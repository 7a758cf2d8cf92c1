import math
import re

import numpy as np
import pytest

from amala.diagnostics import (
    autocorrelation,
    build_report,
    empirical_fisher,
    ess,
    histogram2d,
    mode_coverage,
    tv_distance,
)
from amala.samplers import Chain, run_chain
from amala.targets import GaussianMixture, ParticleBox2D, standard_normal

BOX22 = ParticleBox2D(1.0, 1.0, 2, 2)
MIX_2D = GaussianMixture([(0.3, [-1.0, 0.0], [0.5, 2.0]), (0.7, [1.0, 1.0], [1.0, 1.0])])


def acf_brute_force(series, max_lag):
    """O(n^2) definition sum: biased normalization, fixed mean."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    xc = x - x.mean()
    denom = sum(v * v for v in xc)
    out = []
    for k in range(max_lag + 1):
        out.append(sum(xc[t] * xc[t + k] for t in range(n - k)) / denom)
    return np.array(out)


def scores_at(target, samples):
    """The target's own grad_log_density at every sample, stacked."""
    return np.array([target.grad_log_density(p) for p in samples])


def box_oracle_samples(box, n, rng):
    """Exact i.i.d. draws from the box density via per-axis inverse CDF.

    The density factorizes per axis; F(x) = x/L - sin(2 n pi x/L)/(2 n pi)
    is inverted by vectorized bisection.
    """

    def invert(u, mode_count, length):
        lo = np.zeros_like(u)
        hi = np.full_like(u, length)
        c = 2.0 * mode_count * math.pi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            cdf = mid / length - np.sin(c * mid / length) / c
            take = cdf < u
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        return 0.5 * (lo + hi)

    xs = invert(rng.random(n), box.nx, box.lx)
    ys = invert(rng.random(n), box.ny, box.ly)
    return np.column_stack([xs, ys])


def acf_padded_copy(series, max_lag):
    """The ACF as rfft(x - mean, 2n) computed it, padding a copy of the
    centred series; autocorrelation must give the same bits."""
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    f = np.fft.rfft(x - x.mean(), 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1]
    rho = acov / acov[0]
    rho[0] = 1.0
    return rho


# constants whose float mean is not the value itself
INEXACT_MEAN_CONSTANTS = [np.full(1001, 0.1), np.full(7, 0.7)]


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        rho = autocorrelation(rng.normal(size=300))
        assert rho[0] == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.normal(size=512))  # correlated series
        np.testing.assert_allclose(autocorrelation(x)[:101], acf_brute_force(x, 100), atol=1e-12)

    def test_alternating_series_against_oracle(self):
        x = np.tile([1.0, -1.0], 256)
        np.testing.assert_allclose(autocorrelation(x)[:11], acf_brute_force(x, 10), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 333, 1024])
    def test_bits_match_padded_copy_oracle(self, n):
        x = np.cumsum(np.random.default_rng(n).normal(size=n))
        for max_lag in (0, n - 1):
            assert autocorrelation(x)[: max_lag + 1].tobytes() == acf_padded_copy(x, max_lag).tobytes()

    @pytest.mark.parametrize("max_lag", [1999, 200])
    def test_box_chain_bits_match_padded_copy_oracle(self, max_lag):
        column = run_chain({"name": "mala", "eps": 0.1}, BOX22, 2000, 0, [0.25, 0.25], 1, 0).samples[:, 0]
        assert autocorrelation(column)[: max_lag + 1].tobytes() == acf_padded_copy(column, max_lag).tobytes()

    def test_white_noise_decorrelated(self):
        rng = np.random.default_rng(2)
        rho = autocorrelation(rng.normal(size=100_000))[:11]
        assert np.all(np.abs(rho[1:]) < 0.02)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(100))

    @pytest.mark.parametrize("series", INEXACT_MEAN_CONSTANTS, ids=["0.1x1001", "0.7x7"])
    def test_constant_series_with_inexact_mean_rejected(self, series):
        assert series.mean() != series[0]  # centring leaves a nonzero constant
        with pytest.raises(ValueError, match="constant"):
            autocorrelation(series)

    def test_underflowing_variance_rejected(self):
        # not constant, but the centred sum of squares underflows to 0
        with pytest.raises(ValueError, match="zero variance"):
            autocorrelation([0.0, 5e-324, 0.0])

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0])

    def test_returns_every_lag(self):
        assert autocorrelation([1.0, 2.0, 4.0, 3.0]).shape == (4,)


class TestEss:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(3)
        n = 10_000
        assert 0.8 * n <= ess(rng.normal(size=n)) <= 1.2 * n

    def test_pairwise_duplicated_halves_ess(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=5000)
        doubled = np.repeat(base, 2)
        estimate = ess(doubled)
        assert abs(estimate - len(doubled) / 2) / (len(doubled) / 2) < 0.2

    def test_never_exceeds_n(self):
        rng = np.random.default_rng(5)
        for series in (np.cumsum(rng.normal(size=2000)), np.repeat(rng.normal(size=50), 40)):
            value = ess(series)
            assert 0.0 < value <= len(series)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            ess(np.zeros(10))

    @pytest.mark.parametrize("series", INEXACT_MEAN_CONSTANTS, ids=["0.1x1001", "0.7x7"])
    def test_constant_series_with_inexact_mean_rejected(self, series):
        with pytest.raises(ValueError, match="constant"):
            ess(series)


class TestHistogram2d:
    def test_single_cell(self):
        samples = np.tile([0.1, 0.1], (50, 1))
        grid = histogram2d(samples, BOX22, 4)
        assert grid[0, 0] == 1.0
        assert grid.sum() == 1.0

    def test_equal_mass_at_mode_centers(self):
        centers = BOX22.mode_centers()
        samples = np.tile(centers, (25, 1))
        grid = histogram2d(samples, BOX22, 4)
        assert np.count_nonzero(grid) == 4
        np.testing.assert_allclose(grid[grid > 0], 0.25)

    def test_oracle_sampler_matches_analytic_grid(self):
        # at res=32 the statistical TV floor for 1e5 i.i.d. draws is ~0.033,
        # so the 0.02 bound is checked at res=16 where the floor is ~0.017
        rng = np.random.default_rng(6)
        samples = box_oracle_samples(BOX22, 100_000, rng)
        hist = histogram2d(samples, BOX22, 16)
        assert tv_distance(hist, BOX22.analytic_grid(16)) < 0.02

    def test_out_of_box_sample_rejected(self):
        with pytest.raises(ValueError):
            histogram2d(np.array([[1.5, 0.5]]), BOX22, 4)

    def test_whole_float_res_rejected(self):
        with pytest.raises(ValueError, match=r"^grid_res must be an integer >= 2, got 4\.0$"):
            histogram2d(np.array([[0.25, 0.25]]), BOX22, 4.0)

    def test_convergence_with_sample_size(self):
        grid = BOX22.analytic_grid(32)
        means = []
        for n in (1000, 10_000, 100_000):
            tvs = [
                tv_distance(histogram2d(box_oracle_samples(BOX22, n, np.random.default_rng(s)), BOX22, 32), grid)
                for s in range(5)
            ]
            means.append(np.mean(tvs))
        assert means[0] > means[1] > means[2]


class TestTvDistance:
    def test_identical_grids(self):
        grid = BOX22.analytic_grid(8)
        assert tv_distance(grid, grid) == 0.0

    def test_disjoint_grids(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert tv_distance(a, b) == 1.0

    def test_hand_sum(self):
        assert tv_distance(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(np.ones((2, 2)) / 4, np.ones((4, 4)) / 16)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(np.ones((2, 2)), np.ones((2, 2)) / 4)

    def test_metric_properties_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            grids = [rng.random((4, 4)) for _ in range(3)]
            a, b, c = (g / g.sum() for g in grids)
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15


class TestModeCoverage:
    def test_all_centers_covered(self):
        samples = np.tile(BOX22.mode_centers(), (30, 1))
        assert mode_coverage(samples, BOX22) == 1.0

    def test_single_basin(self):
        samples = np.tile([0.2, 0.2], (100, 1))
        assert mode_coverage(samples, BOX22) == 0.25

    def test_empty_samples(self):
        assert mode_coverage(np.empty((0, 2)), BOX22) == 0.0

    def test_stray_sample_below_threshold_ignored(self):
        # 1 of 1000 samples in a second basin is below the 1% fair-share cut
        samples = np.vstack([np.tile([0.2, 0.2], (999, 1)), [[0.75, 0.75]]])
        assert mode_coverage(samples, BOX22) == 0.25

    def test_out_of_box_sample_rejected(self):
        # the partition histogram2d uses; a sample outside the box was dropped before
        samples = np.vstack([np.tile([0.2, 0.2], (99, 1)), [[1.5, 0.5]]])
        with pytest.raises(ValueError, match="^sample outside the box: chain invariant violated$"):
            mode_coverage(samples, BOX22)


class TestEmpiricalFisher:
    @pytest.mark.parametrize("variance", [1.0, 4.0])
    def test_gaussian_fisher_information(self, variance):
        target = GaussianMixture([(1.0, [0.0], [variance])])
        rng = np.random.default_rng(8)
        samples = (math.sqrt(variance) * rng.normal(size=100_000)).reshape(-1, 1)
        estimate = empirical_fisher(scores_at(target, samples))[0, 0]
        assert abs(estimate - 1.0 / variance) / (1.0 / variance) < 0.05

    def test_symmetric_psd(self):
        target = standard_normal(3)
        rng = np.random.default_rng(9)
        G = empirical_fisher(scores_at(target, rng.normal(size=(500, 3))))
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(G) >= -1e-12)

    def test_box_score_components_independent(self):
        # product-form density: E[score_x score_y] = 0, E[score_x^2] = 4 a^2
        rng = np.random.default_rng(10)
        samples = box_oracle_samples(BOX22, 100_000, rng)
        G = empirical_fisher(scores_at(BOX22, samples))
        analytic_diag = 4.0 * (2.0 * math.pi) ** 2
        assert abs(G[0, 1]) < 0.02 * analytic_diag
        assert abs(G[0, 0] - analytic_diag) / analytic_diag < 0.15
        assert abs(G[1, 1] - analytic_diag) / analytic_diag < 0.15

    @pytest.mark.parametrize("scores", [np.empty((0, 2)), np.ones(3), np.ones((2, 2, 2))])
    def test_bad_shape_rejected(self, scores):
        with pytest.raises(ValueError):
            empirical_fisher(scores)


class TestBuildReport:
    def test_box_chain_report(self):
        chain = run_chain({"name": "adaptive", "eps": 0.25}, BOX22, 3000, 200, [0.25, 0.25], 21, 0)
        report = build_report(chain, BOX22, grid_res=16, max_lag=50)
        assert report.acf.shape == (2, 51)
        np.testing.assert_allclose(report.acf[:, 0], 1.0)
        assert np.all((report.ess > 0) & (report.ess <= 3000))
        assert 0.0 <= report.acceptance_rate <= 1.0
        assert report.tv_distance is not None and 0.0 <= report.tv_distance <= 1.0
        assert report.mode_coverage is not None and 0.0 <= report.mode_coverage <= 1.0
        assert report.wall_time_s > 0

    @pytest.mark.parametrize("max_lag", [5, 200, 10_000])
    def test_acf_and_ess_match_per_column_calls(self, max_lag):
        # one full-length ACF per dimension serves both; the bits must
        # equal the separate autocorrelation and ess calls
        chain = run_chain({"name": "mala", "eps": 0.8}, MIX_2D, 400, 20, [1.0, 1.0], 4, 0)
        report = build_report(chain, MIX_2D, max_lag=max_lag)
        lag = min(max_lag, 399)
        for j in range(2):
            column = chain.samples[:, j]
            assert report.ess[j] == ess(column)
            assert report.acf[j].tolist() == autocorrelation(column)[: lag + 1].tolist()

    def test_gauss_chain_report_has_no_box_fields(self):
        target = standard_normal(1)
        chain = run_chain({"name": "mala", "eps": 0.5}, target, 500, 50, [0.0], 2, 0)
        report = build_report(chain, target, max_lag=20)
        assert report.tv_distance is None
        assert report.mode_coverage is None

    def test_report_round_trips_to_dict(self):
        target = standard_normal(1)
        chain = run_chain({"name": "mala", "eps": 0.5}, target, 200, 0, [0.0], 3, 0)
        payload = build_report(chain, target, max_lag=10).to_dict()
        assert set(payload) == {
            "acf",
            "ess",
            "acceptance_rate",
            "wall_time_s",
            "tv_distance",
            "mode_coverage",
        }
        assert payload["tv_distance"] is None
        assert isinstance(payload["acf"][0], list)

    def test_chain_on_zero_density_point_rejected(self):
        bad = Chain(
            samples=np.array([[0.25, 0.25], [0.5, 0.25]]),
            log_ps=np.array([BOX22.log_density([0.25, 0.25]), -math.inf]),
            accepted=np.array([True, True]),
            meta={"wall_time_s": 0.1},
        )
        with pytest.raises(ValueError, match="zero-density"):
            build_report(bad, BOX22)

    def test_single_sample_rejected(self):
        chain = run_chain({"name": "mala", "eps": 0.1}, BOX22, 1, 0, [0.25, 0.25], 1, 0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            build_report(chain, BOX22)

    @pytest.mark.parametrize("max_lag", [20.0, -3], ids=["float", "negative"])
    def test_bad_max_lag_rejected(self, max_lag):
        # these used to raise numpy's TypeError and "negative dimensions are not allowed"
        chain = run_chain({"name": "mala", "eps": 0.1}, BOX22, 50, 0, [0.25, 0.25], 1, 0)
        with pytest.raises(ValueError, match=rf"^max_lag must be an integer >= 0, got {max_lag!r}$"):
            build_report(chain, BOX22, max_lag=max_lag)

    @pytest.mark.parametrize("grid_res", [4.0, "x"], ids=["float", "string"])
    def test_bad_grid_res_rejected_for_a_mixture(self, grid_res):
        # checked for every target, not only in the box's histogram and grid
        chain = run_chain({"name": "mala", "eps": 0.8}, MIX_2D, 50, 0, [1.0, 1.0], 1, 0)
        with pytest.raises(ValueError, match=rf"^grid_res must be an integer >= 2, got {re.escape(repr(grid_res))}$"):
            build_report(chain, MIX_2D, grid_res=grid_res)

    @pytest.mark.parametrize(
        "cfg", [{"name": "mala", "eps": 500.0}, {"name": "hmc", "eps_leap": 1e-300, "n_leap": 2}]
    )
    def test_chain_that_never_moves(self, cfg):
        # every MALA proposal leaves the box; HMC's steps are below the
        # spacing of floats at 0.25, so theta never changes
        chain = run_chain(cfg, BOX22, 300, 0, [0.25, 0.25], 1, 0)
        assert np.all(chain.samples == 0.25)
        report = build_report(chain, BOX22, max_lag=50)
        assert report.acf.tolist() == np.ones((2, 51)).tolist()
        assert report.ess.tolist() == [300 / 599] * 2
        assert report.mode_coverage == 0.25

    def test_constant_dimension_beside_a_moving_one(self):
        chain = run_chain({"name": "mala", "eps": 0.5}, standard_normal(2), 400, 0, [0.0, 0.0], 3, 0)
        chain.samples[:, 1] = 0.1
        report = build_report(chain, standard_normal(2), max_lag=10)
        assert report.acf[0].tolist() == autocorrelation(chain.samples[:, 0])[:11].tolist()
        assert report.ess[0] == ess(chain.samples[:, 0])
        assert report.acf[1].tolist() == [1.0] * 11
