import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from amala.adaptation import AdaptParams, sigma_update
from amala.rng import RngStream, split
from amala.samplers import (
    AdaptiveSampler,
    ChainState,
    HmcParams,
    MalaSampler,
    Proposal,
    hmc_step,
    init_state,
    langevin_propose,
    leapfrog,
    log_accept_ratio,
    make_sampler,
    mh_accept,
    run_chain,
)
from amala.targets import NEG_INF, GaussianMixture, ParticleBox2D, TargetDensity, standard_normal

BOX22 = ParticleBox2D(1.0, 1.0, 2, 2)
NORMAL1 = standard_normal(1)
NORMAL2 = standard_normal(2)


class FlatTarget(TargetDensity):
    """Improper flat density: zero gradient everywhere."""

    name = "flat"

    def __init__(self, dim):
        self.dim = dim

    def log_density(self, point):
        return 0.0

    def grad_log_density(self, point):
        return np.zeros(self.dim)


def gauss_logpdf_oracle(x, mean, scale):
    """Independent isotropic Gaussian log density via scipy."""
    return float(np.sum(stats.norm.logpdf(np.asarray(x), np.asarray(mean), math.sqrt(scale))))


def mala_propose(state, target, eps, stream):
    """The MALA proposal: the shared Langevin proposal at scale eps^2."""
    return langevin_propose(state, target, eps, eps * eps, stream)


def proposal_between(target, a, b, drift_scale, cov_scale):
    """Hand-built proposal a -> b with explicit forward/reverse densities."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mean_fwd = a + 0.5 * drift_scale * target.grad_log_density(a)
    mean_rev = b + 0.5 * drift_scale * target.grad_log_density(b)
    return Proposal(
        theta_star=b,
        cov_scale_fwd=cov_scale,
        log_q_fwd=gauss_logpdf_oracle(b, mean_fwd, cov_scale),
        log_q_rev=gauss_logpdf_oracle(a, mean_rev, cov_scale),
        log_p_star=target.log_density(b),
    )


class TestMalaPropose:
    def test_flat_target_is_random_walk(self):
        target = FlatTarget(2)
        state = init_state(target, [0.4, -0.2])
        stream = split(3, 0)
        z = np.array(RngStream(stream.seed, stream.stream_id, stream.counter).normals(2))
        prop = mala_propose(state, target, 0.5, stream)
        # zero drift: the forward mean is the current point
        np.testing.assert_allclose(prop.theta_star, state.theta + 0.5 * z, rtol=1e-15)
        assert prop.log_q_fwd == pytest.approx(
            gauss_logpdf_oracle(prop.theta_star, state.theta, 0.25), rel=1e-12
        )

    def test_drift_moves_toward_mode(self):
        # theta=1, grad=-1, eps=0.5: proposal mean is 1 - 0.125 = 0.875
        state = init_state(NORMAL1, [1.0])
        z = split(1, 0).normals(1)[0]
        prop = mala_propose(state, NORMAL1, 0.5, split(1, 0))
        assert prop.theta_star[0] - 0.5 * z == pytest.approx(0.875, abs=1e-15)
        assert prop.log_q_fwd == pytest.approx(
            gauss_logpdf_oracle(prop.theta_star, [0.875], 0.25), rel=1e-12
        )
        assert prop.cov_scale_fwd == 0.25

    def test_log_q_matches_gaussian_oracle(self):
        target = GaussianMixture([(0.4, [0.0, 0.0], [1.0, 2.0]), (0.6, [1.0, -1.0], [0.5, 1.0])])
        stream = split(21, 0)
        for _ in range(20):
            state = init_state(target, stream.normals(2))
            prop = mala_propose(state, target, 0.3, stream)
            mean_fwd = state.theta + 0.5 * 0.09 * state.grad
            assert prop.log_q_fwd == pytest.approx(
                gauss_logpdf_oracle(prop.theta_star, mean_fwd, 0.09), rel=1e-12
            )
            mean_rev = prop.theta_star + 0.5 * 0.09 * target.grad_log_density(prop.theta_star)
            assert prop.log_q_rev == pytest.approx(
                gauss_logpdf_oracle(state.theta, mean_rev, 0.09), rel=1e-12
            )

    def test_escape_from_box_auto_rejects(self):
        state = init_state(BOX22, [0.25, 0.25])
        seed = next(
            s
            for s in range(50)
            if BOX22.log_density(mala_propose(state, BOX22, 5.0, split(s, 0)).theta_star) == NEG_INF
        )
        prop = mala_propose(state, BOX22, 5.0, split(seed, 0))
        assert prop.auto_reject
        assert math.isnan(prop.log_q_rev)
        assert math.isfinite(prop.log_q_fwd)


class TestAdaptivePropose:
    def test_step_zero_equals_mala(self):
        params = AdaptParams(eps=0.4)
        state = init_state(NORMAL2, [0.3, -0.7])
        stream_a, stream_b = split(9, 0), split(9, 0)
        a, acc_a = AdaptiveSampler(params).step(state, NORMAL2, stream_a)
        b, acc_b = MalaSampler(params.eps).step(state, NORMAL2, stream_b)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert acc_a == acc_b and a.log_p == b.log_p
        assert a.sigma == b.sigma == params.eps**2
        assert stream_a.counter == stream_b.counter

    def _state_with_history(self):
        # theta/grad norms equal to their predecessors: r_theta = r_grad = 1
        theta = np.array([3.0, 4.0])
        prev = np.array([4.0, 3.0])
        return ChainState(
            theta=theta,
            log_p=NORMAL2.log_density(theta),
            grad=NORMAL2.grad_log_density(theta),
            theta_prev=prev,
            grad_prev=NORMAL2.grad_log_density(prev),
            sigma=0.5,
        )

    def test_adapted_scale_matches_sigma_update(self):
        params = AdaptParams(eps=0.1)
        state = self._state_with_history()
        new, _ = AdaptiveSampler(params).step(state, NORMAL2, split(12, 0))
        expected = sigma_update(
            state.theta, state.theta_prev, state.grad, state.grad_prev, 0.5, params, split(12, 0)
        )
        assert new.sigma == expected
        assert new.sigma == pytest.approx(0.1 / (1.0 + math.exp(-1.0)), rel=1e-14)

    def test_reverse_density_shares_forward_scale(self):
        params = AdaptParams(eps=0.1)
        state = self._state_with_history()
        stream = split(12, 0)
        scale = sigma_update(
            state.theta, state.theta_prev, state.grad, state.grad_prev, 0.5, params, stream
        )
        prop = langevin_propose(state, NORMAL2, params.eps, scale, stream)
        assert prop.cov_scale_fwd == scale
        mean_rev = prop.theta_star + 0.5 * params.eps**2 * NORMAL2.grad_log_density(prop.theta_star)
        assert prop.log_q_rev == pytest.approx(
            gauss_logpdf_oracle(state.theta, mean_rev, scale), rel=1e-12
        )

    def test_zero_density_proposal_auto_rejects(self):
        sampler = AdaptiveSampler(AdaptParams(eps=1.0))
        state = init_state(BOX22, [0.25, 0.25])
        state = ChainState(
            theta=state.theta,
            log_p=state.log_p,
            grad=state.grad,
            theta_prev=np.array([0.26, 0.25]),
            grad_prev=BOX22.grad_log_density([0.26, 0.25]),
            sigma=2.0,
        )
        seed = next(s for s in range(100) if not sampler.step(state, BOX22, split(s, 0))[1])
        stream = split(seed, 0)
        new, accepted = sampler.step(state, BOX22, stream)
        # psi and two normals (four uniforms) drawn, no acceptance uniform
        assert not accepted and stream.counter == 5
        np.testing.assert_array_equal(new.theta, state.theta)


class TestMhAccept:
    def test_symmetric_equal_density_always_accepts(self):
        state = init_state(NORMAL1, [0.7])
        prop = Proposal(
            theta_star=np.array([-0.7]),
            cov_scale_fwd=0.25,
            log_q_fwd=-1.3,
            log_q_rev=-1.3,
            log_p_star=state.log_p,
            grad_star=NORMAL1.grad_log_density([-0.7]),
        )
        assert log_accept_ratio(state, prop) == 0.0
        new, accepted = mh_accept(state, prop, split(0, 0))
        assert accepted
        assert new.theta[0] == -0.7
        np.testing.assert_array_equal(new.theta_prev, state.theta)
        assert new.sigma == 0.25
        assert new.log_p == NORMAL1.log_density([-0.7])
        np.testing.assert_allclose(new.grad, NORMAL1.grad_log_density([-0.7]))

    def test_zero_density_proposal_rejected_without_uniform(self):
        state = init_state(BOX22, [0.25, 0.25])
        prop = Proposal(
            theta_star=np.array([0.5, 0.25]),
            cov_scale_fwd=0.01,
            log_q_fwd=-1.0,
            log_q_rev=math.nan,
            log_p_star=NEG_INF,
            auto_reject=True,
        )
        stream = split(5, 0)
        new, accepted = mh_accept(state, prop, stream)
        assert not accepted
        assert stream.counter == 0
        np.testing.assert_array_equal(new.theta, state.theta)
        np.testing.assert_array_equal(new.theta_prev, state.theta)

    def test_hand_computed_acceptance_probability(self):
        # MALA 0 -> 1 on N(0,1) with eps=0.5, alpha computed via scipy oracle
        state = init_state(NORMAL1, [0.0])
        prop = proposal_between(NORMAL1, [0.0], [1.0], 0.25, 0.25)
        log_alpha = (
            NORMAL1.log_density([1.0])
            + gauss_logpdf_oracle([0.0], [1.0 - 0.125 * 1.0], 0.25)
            - NORMAL1.log_density([0.0])
            - gauss_logpdf_oracle([1.0], [0.0], 0.25)
        )
        assert log_accept_ratio(state, prop) == pytest.approx(log_alpha, rel=1e-12)

    def test_reject_keeps_position_but_shifts_history(self):
        state = init_state(NORMAL1, [0.2])
        prop = Proposal(
            theta_star=np.array([50.0]),
            cov_scale_fwd=0.25,
            log_q_fwd=-1.0,
            log_q_rev=-1.0,
            log_p_star=NORMAL1.log_density([50.0]),
        )
        new, accepted = mh_accept(state, prop, split(2, 0))
        assert not accepted
        assert new.theta[0] == 0.2
        np.testing.assert_array_equal(new.theta_prev, state.theta)
        assert new.sigma == 0.25

    @pytest.mark.parametrize("target,points", [
        (NORMAL2, "gauss"),
        (BOX22, "box"),
    ])
    def test_detailed_balance_identity(self, target, points):
        stream = split(77, 0)

        def draw_point():
            if points == "gauss":
                return np.array(stream.normals(2))
            while True:
                p = np.array([stream.next_uniform(), stream.next_uniform()])
                if target.log_density(p) != NEG_INF:
                    return p

        for _ in range(200):
            a, b = draw_point(), draw_point()
            # MALA coupling (drift scale == cov scale) and adaptive coupling
            # (cov scale decoupled from the drift) both satisfy the identity;
            # compare in log space, where the sampler computes alpha
            for drift_scale, cov_scale in ((0.09, 0.09), (0.09, 0.31)):
                fwd = proposal_between(target, a, b, drift_scale, cov_scale)
                rev = proposal_between(target, b, a, drift_scale, cov_scale)
                state_a = init_state(target, a)
                state_b = init_state(target, b)
                lhs = target.log_density(a) + fwd.log_q_fwd + min(
                    0.0, log_accept_ratio(state_a, fwd)
                )
                rhs = target.log_density(b) + rev.log_q_fwd + min(
                    0.0, log_accept_ratio(state_b, rev)
                )
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestLeapfrog:
    def test_hand_single_step(self):
        params = HmcParams(eps_leap=0.1, n_leap=1)
        theta, p, diverged = leapfrog([1.0], [0.0], params, NORMAL1)
        assert not diverged
        assert theta[0] == pytest.approx(0.995, abs=1e-15)
        assert p[0] == pytest.approx(-0.09975, abs=1e-15)

    def test_reversibility(self):
        params = HmcParams(eps_leap=0.05, n_leap=30)
        theta0 = np.array([0.9, -1.4])
        p0 = np.array([0.3, 0.8])
        theta1, p1, _ = leapfrog(theta0, p0, params, NORMAL2)
        theta2, p2, _ = leapfrog(theta1, -p1, params, NORMAL2)
        np.testing.assert_allclose(theta2, theta0, atol=1e-10)
        np.testing.assert_allclose(p2, -p0, atol=1e-10)

    def test_matches_tiny_step_integrator(self):
        coarse, _, _ = leapfrog([1.0], [0.5], HmcParams(eps_leap=0.05, n_leap=20), NORMAL1)
        fine, _, _ = leapfrog([1.0], [0.5], HmcParams(eps_leap=0.0005, n_leap=2000), NORMAL1)
        assert coarse[0] == pytest.approx(fine[0], abs=5e-4)

    def test_divergence_flag_on_box_exit(self):
        params = HmcParams(eps_leap=0.5, n_leap=5)
        _, _, diverged = leapfrog([0.25, 0.25], [3.0, 0.0], params, BOX22)
        assert diverged


class TestHmcStep:
    def test_tiny_step_acceptance_probability(self):
        params = HmcParams(eps_leap=1e-4, n_leap=1)
        stream = split(44, 0)
        for _ in range(100):
            theta0 = np.array(stream.normals(1))
            p0 = np.array(stream.normals(1))
            theta1, p1, _ = leapfrog(theta0, p0, params, NORMAL1)
            h0 = -NORMAL1.log_density(theta0) + 0.5 * float(p0 @ p0)
            h1 = -NORMAL1.log_density(theta1) + 0.5 * float(p1 @ p1)
            assert math.exp(min(0.0, h0 - h1)) > 0.9999

    def test_energy_error_scales_second_order(self):
        def mean_abs_dh(eps):
            params = HmcParams(eps_leap=eps, n_leap=10)
            stream = split(123, 0)
            total = 0.0
            for _ in range(1000):
                theta0 = np.array(stream.normals(1))
                p0 = np.array(stream.normals(1))
                theta1, p1, _ = leapfrog(theta0, p0, params, NORMAL1)
                h0 = -NORMAL1.log_density(theta0) + 0.5 * float(p0 @ p0)
                h1 = -NORMAL1.log_density(theta1) + 0.5 * float(p1 @ p1)
                total += abs(h1 - h0)
            return total / 1000

        assert mean_abs_dh(0.2) / mean_abs_dh(0.1) >= 3.5

    def test_divergent_trajectory_rejected(self):
        state = init_state(BOX22, [0.25, 0.25])
        params = HmcParams(eps_leap=0.8, n_leap=10)
        seed = next(
            s for s in range(50) if not hmc_step(state, params, BOX22, split(s, 0))[1]
        )
        new, accepted = hmc_step(state, params, BOX22, split(seed, 0))
        assert not accepted
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_deterministic(self):
        state = init_state(NORMAL2, [0.1, 0.2])
        params = HmcParams(eps_leap=0.1, n_leap=5)
        a, acc_a = hmc_step(state, params, NORMAL2, split(6, 1))
        b, acc_b = hmc_step(state, params, NORMAL2, split(6, 1))
        assert acc_a == acc_b
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.sigma is None  # HMC makes no Langevin proposal

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HmcParams(eps_leap=0.0)
        with pytest.raises(ValueError):
            HmcParams(n_leap=0)


class TestRunChain:
    def test_deterministic_replay(self):
        cfg = {"name": "mala", "eps": 0.5}
        a = run_chain(cfg, NORMAL1, 500, 50, [0.0], seed=42, chain_id=0)
        b = run_chain(cfg, NORMAL1, 500, 50, [0.0], seed=42, chain_id=0)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.accepted, b.accepted)
        np.testing.assert_array_equal(a.log_ps, b.log_ps)

    def test_length_contract(self):
        chain = run_chain({"name": "mala", "eps": 0.5}, NORMAL1, 1000, 100, [0.0], 1, 0)
        assert chain.samples.shape == (1000, 1)
        assert chain.log_ps.shape == (1000,)
        assert chain.accepted.shape == (1000,)
        assert chain.meta["wall_time_s"] > 0

    def test_mala_normal_moments(self):
        chain = run_chain({"name": "mala", "eps": 0.5}, NORMAL1, 20_000, 500, [0.0], 7, 0)
        assert abs(chain.samples.mean()) < 0.05
        assert 0.9 < chain.samples.var() < 1.1

    def test_small_step_acceptance_near_one(self):
        chain = run_chain({"name": "mala", "eps": 1e-3}, NORMAL1, 2000, 0, [0.0], 3, 0)
        assert chain.acceptance_rate >= 0.99

    def test_invalid_init_rejected(self):
        with pytest.raises(ValueError):
            run_chain({"name": "mala", "eps": 0.1}, BOX22, 10, 0, [0.5, 0.25], 1, 0)

    def test_box_chain_never_leaves_support(self):
        cfg = {"name": "adaptive", "eps": 0.2}
        chain = run_chain(cfg, BOX22, 2000, 100, [0.25, 0.25], 11, 0)
        assert np.all(np.isfinite(chain.log_ps))
        assert np.all((chain.samples > 0.0) & (chain.samples < 1.0))

    def test_hmc_normal_moments(self):
        cfg = {"name": "hmc", "eps_leap": 0.2, "n_leap": 10}
        chain = run_chain(cfg, NORMAL1, 5000, 200, [0.0], 5, 0)
        assert abs(chain.samples.mean()) < 0.1
        assert 0.85 < chain.samples.var() < 1.15

    def test_adaptive_step_zero_matches_mala(self):
        mala = run_chain({"name": "mala", "eps": 0.3}, NORMAL2, 1, 0, [0.2, -0.1], 9, 4)
        adaptive = run_chain({"name": "adaptive", "eps": 0.3}, NORMAL2, 1, 0, [0.2, -0.1], 9, 4)
        np.testing.assert_array_equal(mala.samples, adaptive.samples)

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            make_sampler({"name": "nuts"})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": "adaptive", "eps": 0.1, "sigma0": 1.0},
            {"name": "hmc", "mass": 1.0},
            {"name": "mala", "eps": 0.1, "beta": 1.0},
            {"name": "adaptive", "eps": 0.1, "base_floor": 1e-12},
        ],
    )
    def test_unknown_field_rejected(self, cfg):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_sampler(cfg)

    def test_full_adaptation_block_round_trips(self):
        sampler = make_sampler({"name": "adaptive", "eps": 0.2, "beta": 1.4, "xi": 0.3})
        assert sampler.params == AdaptParams(eps=0.2, beta=1.4, xi=0.3)

    def test_meta_contents(self):
        chain = run_chain({"name": "mala", "eps": 0.5}, NORMAL1, 10, 2, [0.0], 13, 2)
        assert chain.meta["sampler"] == "mala"
        assert chain.meta["seed"] == 13 and chain.meta["chain_id"] == 2
        assert chain.meta["burn_in"] == 2
        assert set(chain.meta) == {"sampler", "seed", "chain_id", "burn_in", "wall_time_s"}


class TestGoldenChains:
    """Byte-level reproducibility: these chains must never change bits.

    The digests were recorded before any performance work on the sampling
    path; a change that alters one changed the arithmetic or the draw order.
    The box HMC chain diverges on 35 of its 350 trajectories, so it also
    pins the divergence path.
    """

    @pytest.mark.parametrize(
        "cfg,target,init,digest",
        [
            (
                {"name": "adaptive", "eps": 0.03},
                BOX22,
                [0.25, 0.25],
                "8dd08af8fb82f66fe0a937975a63305545e4a0f4dbd294477409d25bdb64dfbf",
            ),
            (
                {"name": "mala", "eps": 0.03},
                BOX22,
                [0.25, 0.25],
                "52cad621d305a1d8e478a9a9177747b90e6cd924f982d1f1f286a5b8dcb0a253",
            ),
            (
                {"name": "hmc", "eps_leap": 0.05, "n_leap": 20},
                BOX22,
                [0.25, 0.25],
                "4478243820c8f9ee1e61d29004f9ffdd6365a15a4e0711072e3044c4e004eaf0",
            ),
            (
                {"name": "adaptive", "eps": 0.8},
                standard_normal(3),
                [0.0, 0.0, 0.0],
                "4df794f0fe4c1d088f806c18e2f5d49607cee05e7f808e15ad03f4439de29fe5",
            ),
            (
                {"name": "mala", "eps": 0.8},
                standard_normal(3),
                [0.0, 0.0, 0.0],
                "67424cfe6455ec6955284a37b37e8e267ec4d61015987745cd70e4d9f0f9951d",
            ),
        ],
        ids=["adaptive-box", "mala-box", "hmc-box", "adaptive-normal", "mala-normal"],
    )
    def test_digest(self, cfg, target, init, digest):
        chain = run_chain(cfg, target, 300, 50, init, seed=1, chain_id=0)
        got = hashlib.sha256(chain.samples.tobytes() + chain.log_ps.tobytes()).hexdigest()
        assert got == digest
