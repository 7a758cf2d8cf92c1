import math
import subprocess
import sys
from decimal import Decimal, getcontext

import numpy as np
import pytest

from amala.rng import RngStream, split
from amala.samplers import (
    BASE_FLOOR,
    NORM_FLOOR,
    SQRT_2PI,
    AdaptiveSampler,
    norm,
    sigma_update,
)

getcontext().prec = 60


def ratio_norm_guarded(a, b, floor: float) -> float:
    """||a|| / max(||b||, floor) for same-dimension vectors: each ratio
    sigma_update forms, from vectors instead of their norms."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same dimension")
    return norm(a) / max(norm(b), floor)


def sigma_from_vectors(theta_n, theta_prev, grad_n, grad_prev, *rest):
    """sigma_update of the norms of four history vectors, as the adaptive
    kernel computes them."""
    history = (theta_n, theta_prev, grad_n, grad_prev)
    return sigma_update(*(norm(np.asarray(v, dtype=float)) for v in history), *rest)


def sigma_oracle(theta_n, theta_prev, grad_n, grad_prev, psi, params):
    """Recompute the scale update in 60-digit decimal from a recorded psi."""

    def dnorm(v):
        return sum((Decimal(float(x)) ** 2 for x in v), Decimal(0)).sqrt()

    floor = Decimal(NORM_FLOOR)
    r_theta = (dnorm(theta_n) / max(dnorm(theta_prev), floor)) ** 2
    r_grad = (dnorm(grad_n) / max(dnorm(grad_prev), floor)) ** 2
    base = Decimal(params.beta) + Decimal(psi) * (r_theta - r_grad)
    clamped = max(base, Decimal(BASE_FLOOR))
    denom = Decimal(1) + (-r_grad).exp()
    return Decimal(params.eps) * clamped ** Decimal(params.xi) / denom


class TestParams:
    def test_defaults(self):
        p = AdaptiveSampler(eps=0.1)
        assert (p.beta, p.xi) == (1.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": 0.1, "xi": 0.0},
            {"eps": 0.1, "xi": 1.0},
            {"eps": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveSampler(**kwargs)


class TestRatioNormGuarded:
    def test_equal_vectors(self):
        assert ratio_norm_guarded([3.0, 4.0], [3.0, 4.0], 1e-12) == 1.0

    def test_zero_numerator(self):
        assert ratio_norm_guarded([0.0, 0.0], [1.0, 2.0], 1e-12) == 0.0

    def test_zero_denominator_floor(self):
        assert ratio_norm_guarded([1.0], [0.0], 1e-12) == pytest.approx(1e12, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ratio_norm_guarded([1.0], [1.0, 2.0], 1e-12)


def root_one_plus_psi(sigma_prev, stream):
    """One sigma_update whose output is sqrt(1 + psi): r_theta = 1, r_grad = 0,
    beta = 1, xi = 1/2 and eps = 2, so its one uniform draw psi is read back."""
    return sigma_update(1.0, 1.0, 0.0, 1.0, sigma_prev, AdaptiveSampler(eps=2.0), stream)


class TestPsiDraw:
    def test_matches_scaled_uniform(self):
        # r_theta = 4 and r_grad = 2.25 are exact, so the update's bits are
        # those of psi = u * (sqrt(2 pi) + sigma_prev) for the stream's next u
        stream = split(31, 0)
        u = RngStream(stream.seed, stream.stream_id, stream.counter).next_uniform()
        params = AdaptiveSampler(eps=0.3, beta=0.7, xi=0.4)
        psi = u * (SQRT_2PI + 2.0)
        want = 0.3 * max(0.7 + psi * (4.0 - 2.25), BASE_FLOOR) ** 0.4 / (1.0 + math.exp(-2.25))
        assert sigma_update(2.0, 1.0, 3.0, 2.0, 2.0, params, stream) == want
        assert stream.counter == 1

    def test_bounds_with_zero_sigma(self):
        stream = split(8, 0)
        roots = [root_one_plus_psi(0.0, stream) for _ in range(1000)]
        assert stream.counter == 1000
        assert all(1.0 <= v <= math.sqrt(1.0 + SQRT_2PI) for v in roots)

    def test_mean(self):
        stream = split(17, 0)
        draws = [root_one_plus_psi(1.0, stream) ** 2 - 1.0 for _ in range(10_000)]
        expected = (SQRT_2PI + 1.0) / 2.0
        assert abs(np.mean(draws) - expected) / expected < 0.05


class TestSigmaUpdate:
    def test_equal_ratios_worked_example(self):
        # equal norms on both ratios: psi multiplies zero, result is
        # eps / (1 + e^-1) ~ 0.073106 for beta=1, xi=0.5, eps=0.1
        params = AdaptiveSampler(eps=0.1)
        expected = 0.1 / (1.0 + math.exp(-1.0))
        for seed in (1, 2):
            got = sigma_from_vectors(
                [3.0, 4.0], [4.0, 3.0], [1.0, 2.0], [2.0, 1.0], 0.7, params, split(seed, 0)
            )
            assert got == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.073106, abs=1e-6)

    def test_negative_base_hits_floor(self):
        # r_theta = 0 and r_grad = 1 make base = beta - psi < 0 when psi > 1
        params = AdaptiveSampler(eps=0.1)
        seed = next(
            s
            for s in range(100)
            if split(s, 0).next_uniform() * (SQRT_2PI + 1.0) > 1.2
        )
        got = sigma_from_vectors([0.0], [2.0], [1.5], [1.5], 1.0, params, split(seed, 0))
        expected = 0.1 * math.sqrt(BASE_FLOOR) / (1.0 + math.exp(-1.0))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_grad_prev_uses_norm_floor(self):
        params = AdaptiveSampler(eps=0.2)
        got = sigma_from_vectors([1.0], [1.0], [1.0], [0.0], 0.5, params, split(4, 0))
        # r_grad = 1e24: exp underflows, base floors, result eps*sqrt(floor)
        assert got == pytest.approx(0.2 * math.sqrt(BASE_FLOOR), rel=1e-14)
        assert got > 0.0 and math.isfinite(got)

    def test_deterministic_given_stream(self):
        params = AdaptiveSampler(eps=0.3, beta=0.7, xi=0.4)
        args = ([1.0, -2.0], [0.5, 1.0], [3.0, 1.0], [-1.0, 2.0], 0.9, params)
        assert sigma_from_vectors(*args, split(5, 2)) == sigma_from_vectors(*args, split(5, 2))

    def test_psi_independent_when_ratios_match(self):
        params = AdaptiveSampler(eps=0.25, beta=1.3)
        results = {
            sigma_from_vectors([1.0, 2.0], [2.0, 1.0], [-3.0, 0.0], [0.0, 3.0], 1.5, params, split(s, 0))
            for s in range(10)
        }
        assert len(results) == 1

    def test_linear_in_eps(self):
        p1 = AdaptiveSampler(eps=0.1, beta=0.8)
        p2 = AdaptiveSampler(eps=0.2, beta=0.8)
        args = ([1.0, 0.5], [0.3, -0.2], [2.0, 2.0], [1.0, -1.0], 0.4)
        assert 2.0 * sigma_from_vectors(*args, p1, split(6, 0)) == sigma_from_vectors(*args, p2, split(6, 0))

    def test_matches_decimal_oracle(self):
        stream = split(2718, 0)
        for case in range(25):
            d = 1 + case % 3
            theta_n = np.array(stream.normals(d))
            theta_prev = np.array(stream.normals(d))
            grad_n = 3.0 * np.array(stream.normals(d))
            grad_prev = 3.0 * np.array(stream.normals(d))
            sigma_prev = abs(stream.normals(1)[0])
            params = AdaptiveSampler(
                eps=0.05 + stream.next_uniform(),
                beta=0.5 + stream.next_uniform(),
                xi=0.1 + 0.8 * stream.next_uniform(),
            )
            draw_stream = split(1000 + case, 0)
            replay = RngStream(draw_stream.seed, draw_stream.stream_id, draw_stream.counter)
            psi = replay.next_uniform() * (SQRT_2PI + sigma_prev)
            got = sigma_from_vectors(theta_n, theta_prev, grad_n, grad_prev, sigma_prev, params, draw_stream)
            want = float(sigma_oracle(theta_n, theta_prev, grad_n, grad_prev, psi, params))
            assert got == pytest.approx(want, rel=1e-12)

    def test_positive_and_bounded_by_denominator(self):
        stream = split(99, 1)
        params = AdaptiveSampler(eps=0.15)
        for _ in range(50):
            theta_n = np.array(stream.normals(2))
            theta_prev = np.array(stream.normals(2))
            grad_n = np.array(stream.normals(2))
            grad_prev = np.array(stream.normals(2))
            sigma_prev = abs(stream.normals(1)[0])
            draw_stream = split(int(sigma_prev * 1e6), 0)
            replay = RngStream(draw_stream.seed, draw_stream.stream_id, draw_stream.counter)
            psi = replay.next_uniform() * (SQRT_2PI + sigma_prev)
            got = sigma_from_vectors(theta_n, theta_prev, grad_n, grad_prev, sigma_prev, params, draw_stream)
            r_theta = ratio_norm_guarded(theta_n, theta_prev, NORM_FLOOR) ** 2
            r_grad = ratio_norm_guarded(grad_n, grad_prev, NORM_FLOOR) ** 2
            clamped = max(params.beta + psi * (r_theta - r_grad), BASE_FLOOR)
            cap = params.eps * clamped**params.xi
            assert got > 0.0
            assert cap / 2.0 <= got < cap * (1.0 + 1e-12)

    def test_nan_input_asserts(self):
        params = AdaptiveSampler(eps=0.1)
        for args in (
            ([math.nan], [1.0], [1.0], [1.0]),
            ([1.0], [1.0], [math.nan], [1.0]),
            ([1.0], [math.nan], [1.0], [1.0]),
        ):
            with pytest.raises(ValueError, match="NaN"):
                sigma_from_vectors(*args, 0.5, params, split(1, 0))

    def test_nan_input_raises_under_optimize(self):
        # python -O strips asserts; the NaN check must survive it
        code = (
            "import math\n"
            "from amala.samplers import AdaptiveSampler, sigma_update\n"
            "from amala.rng import split\n"
            "try:\n"
            "    sigma_update(math.nan, 1.0, 1.0, 1.0, 0.5, AdaptiveSampler(eps=0.1), split(1, 0))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"
