import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from amala import samplers
from amala.adaptation import sigma_update
from amala.rng import RngStream, split
from amala.samplers import (
    AdaptiveSampler,
    ChainState,
    HmcSampler,
    MalaSampler,
    Proposal,
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
MIX2 = GaussianMixture([(0.4, [-1.0, 0.0], [0.5, 1.0]), (0.6, [1.5, 0.5], [1.0, 0.3])])


class RefusalCountingBox(ParticleBox2D):
    """BOX22 that counts the gradients it refuses: one per HMC divergence."""

    def __init__(self):
        super().__init__(1.0, 1.0, 2, 2)
        self.refused = 0

    def grad_log_density(self, point):
        try:
            return super().grad_log_density(point)
        except ValueError:
            self.refused += 1
            raise


class FlatTarget(TargetDensity):
    """Improper flat density: zero gradient everywhere."""

    name = "flat"

    def __init__(self, dim):
        self.dim = dim

    def log_density(self, point):
        return 0.0

    def grad_log_density(self, point):
        return np.zeros(self.dim)


def leapfrog_oracle(theta, momentum, grad, params, target):
    """The leapfrog loop written with fresh lists per half-kick and drift:
    the bit-level reference for the in-place, fused-kick leapfrog."""
    eps = params.eps_leap
    half = 0.5 * eps
    theta = np.asarray(theta, dtype=float).tolist()
    p = np.asarray(momentum, dtype=float).tolist()
    grad = np.asarray(grad, dtype=float).tolist()
    for _ in range(params.n_leap):
        p = [a + half * b for a, b in zip(p, grad)]
        theta = [a + eps * b for a, b in zip(theta, p)]
        try:
            grad = np.asarray(target.grad_log_density(theta), dtype=float).tolist()
        except ValueError:
            return np.array(theta), np.array(p), True, None
        p = [a + half * b for a, b in zip(p, grad)]
    return np.array(theta), np.array(p), False, np.array(grad)


class ArrayGradBox(ParticleBox2D):
    """BOX22 whose gradient is a numpy vector instead of a list."""

    def __init__(self):
        super().__init__(1.0, 1.0, 2, 2)

    def grad_log_density(self, point):
        return np.array(super().grad_log_density(point))


def gauss_logpdf_oracle(x, mean, scale):
    """Independent isotropic Gaussian log density via scipy."""
    return float(np.sum(stats.norm.logpdf(np.asarray(x), np.asarray(mean), math.sqrt(scale))))


def gaussian_log_density_oracle(x, mean, scale):
    """Log density of x under N(mean, scale * I) as a standalone function:
    the bit-level reference for the densities langevin_propose inlines."""
    x = np.asarray(x, dtype=float)
    diff = x - np.asarray(mean, dtype=float)
    d = diff.shape[0]
    return -0.5 * d * math.log(2.0 * math.pi * scale) - float(np.dot(diff, diff)) / (2.0 * scale)


def langevin_propose_oracle(state, target, eps, scale, stream):
    """langevin_propose with a separate density call per side and no shared
    terms: the bit-level reference for the inlined proposal."""
    drift = 0.5 * eps * eps
    mean_fwd = state.theta + drift * state.grad
    z = np.array(stream.normals(state.theta.shape[0]))
    theta_star = mean_fwd + math.sqrt(scale) * z
    log_q_fwd = gaussian_log_density_oracle(theta_star, mean_fwd, scale)
    log_p_star = target.log_density(theta_star)
    if log_p_star == NEG_INF:
        return Proposal(theta_star, scale, log_q_fwd, math.nan, log_p_star, auto_reject=True)
    grad_star = np.asarray(target.grad_log_density(theta_star), dtype=float)
    log_q_rev = gaussian_log_density_oracle(state.theta, theta_star + drift * grad_star, scale)
    return Proposal(theta_star, scale, log_q_fwd, log_q_rev, log_p_star, grad_star)


def mala_propose(state, target, eps, stream):
    """The MALA proposal: the shared Langevin proposal at scale eps^2."""
    return langevin_propose(state, target, eps, eps * eps, stream)


def proposal_between(target, a, b, drift_scale, cov_scale):
    """Hand-built proposal a -> b with explicit forward/reverse densities."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mean_fwd = a + 0.5 * drift_scale * np.asarray(target.grad_log_density(a))
    mean_rev = b + 0.5 * drift_scale * np.asarray(target.grad_log_density(b))
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
        params = AdaptiveSampler(eps=0.4)
        state = init_state(NORMAL2, [0.3, -0.7])
        stream_a, stream_b = split(9, 0), split(9, 0)
        a, acc_a = params.step(state, NORMAL2, stream_a)
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
        params = AdaptiveSampler(eps=0.1)
        state = self._state_with_history()
        new, _ = params.step(state, NORMAL2, split(12, 0))
        expected = sigma_update(
            state.theta, state.theta_prev, state.grad, state.grad_prev, 0.5, params, split(12, 0)
        )
        assert new.sigma == expected
        assert new.sigma == pytest.approx(0.1 / (1.0 + math.exp(-1.0)), rel=1e-14)

    def test_reverse_density_shares_forward_scale(self):
        params = AdaptiveSampler(eps=0.1)
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
        sampler = AdaptiveSampler(eps=1.0)
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


class TestProposeOracle:
    """langevin_propose against langevin_propose_oracle: the same IEEE
    operations on the same operands, so every field is bit-equal."""

    @staticmethod
    def _bits(value):
        return None if value is None else np.asarray(value, dtype=float).tobytes()

    @pytest.mark.parametrize("adaptive", [False, True], ids=["eps2", "adaptive-scale"])
    @pytest.mark.parametrize(
        "target,theta,eps",
        [
            pytest.param(BOX22, [0.3, 0.2], 0.03, id="box-interior"),
            pytest.param(BOX22, [0.5 + 1e-9, 0.25], 1e-4, id="box-nodal-clamped"),
            pytest.param(BOX22, [0.25, 0.25], 5.0, id="box-auto-reject"),
            pytest.param(standard_normal(32), [0.1 * k - 1.6 for k in range(32)], 0.8, id="normal32"),
            pytest.param(MIX2, [-1.0, 0.0], 0.6, id="mix2"),
        ],
    )
    def test_bits_match_oracle(self, target, theta, eps, adaptive):
        state = init_state(target, theta)
        if adaptive:
            # a history-driven scale, as the adaptive kernel draws it
            history = (state.theta, 1.1 * state.theta, state.grad, 0.9 * state.grad, eps)
            scale = sigma_update(*history, AdaptiveSampler(eps=eps), split(7, 1))
            assert scale != eps * eps
        else:
            scale = eps * eps
        stream, oracle_stream = split(7, 0), split(7, 0)
        props = [langevin_propose(state, target, eps, scale, stream) for _ in range(40)]
        want = [langevin_propose_oracle(state, target, eps, scale, oracle_stream) for _ in range(40)]
        assert stream.counter == oracle_stream.counter
        for prop, oracle in zip(props, want):
            for f in dataclasses.fields(Proposal):
                assert self._bits(getattr(prop, f.name)) == self._bits(getattr(oracle, f.name)), f.name
        if eps == 5.0:
            assert any(p.auto_reject for p in props)
        if eps == 1e-4:
            assert state.grad[0] == BOX22.gmax and not any(p.auto_reject for p in props)


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
        params = HmcSampler(eps_leap=0.1, n_leap=1)
        theta, p, diverged, _ = leapfrog([1.0], [0.0], NORMAL1.grad_log_density([1.0]), params, NORMAL1)
        assert not diverged
        assert theta[0] == pytest.approx(0.995, abs=1e-15)
        assert p[0] == pytest.approx(-0.09975, abs=1e-15)

    def test_reversibility(self):
        params = HmcSampler(eps_leap=0.05, n_leap=30)
        theta0 = np.array([0.9, -1.4])
        p0 = np.array([0.3, 0.8])
        theta1, p1, _, _ = leapfrog(theta0, p0, NORMAL2.grad_log_density(theta0), params, NORMAL2)
        theta2, p2, _, _ = leapfrog(theta1, -p1, NORMAL2.grad_log_density(theta1), params, NORMAL2)
        np.testing.assert_allclose(theta2, theta0, atol=1e-10)
        np.testing.assert_allclose(p2, -p0, atol=1e-10)

    def test_matches_tiny_step_integrator(self):
        grad = NORMAL1.grad_log_density([1.0])
        coarse, _, _, _ = leapfrog([1.0], [0.5], grad, HmcSampler(eps_leap=0.05, n_leap=20), NORMAL1)
        fine, _, _, _ = leapfrog([1.0], [0.5], grad, HmcSampler(eps_leap=0.0005, n_leap=2000), NORMAL1)
        assert coarse[0] == pytest.approx(fine[0], abs=5e-4)

    def test_divergence_flag_on_box_exit(self):
        params = HmcSampler(eps_leap=0.5, n_leap=5)
        start = [0.25, 0.25]
        _, _, diverged, _ = leapfrog(start, [3.0, 0.0], BOX22.grad_log_density(start), params, BOX22)
        assert diverged

    @pytest.mark.parametrize("target,theta0", [(BOX22, [0.3, 0.2]), (NORMAL2, [0.9, -1.4])])
    def test_returns_gradient_at_end_point(self, target, theta0):
        params = HmcSampler(eps_leap=0.01, n_leap=7)
        theta, _, diverged, grad = leapfrog(theta0, [0.5, -0.2], target.grad_log_density(theta0), params, target)
        assert not diverged
        assert grad.tolist() == np.asarray(target.grad_log_density(theta)).tolist()

    def test_diverged_trajectory_returns_no_gradient(self):
        params = HmcSampler(eps_leap=0.5, n_leap=5)
        start = [0.25, 0.25]
        *_, diverged, grad = leapfrog(start, [3.0, 0.0], BOX22.grad_log_density(start), params, BOX22)
        assert diverged and grad is None

    @pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])
    @pytest.mark.parametrize(
        "target,theta0,p0,eps_leap,n_leap",
        [
            pytest.param(BOX22, [0.3, 0.2], [0.5, -0.2], 0.05, 1, id="box-1"),
            pytest.param(BOX22, [0.3, 0.2], [0.5, -0.2], 0.05, 20, id="box-20"),
            pytest.param(BOX22, [0.25, 0.25], [3.0, 0.0], 0.5, 5, id="box-diverging"),
            pytest.param(standard_normal(3), [0.9, -1.4, 0.2], [0.3, 0.8, -0.5], 0.1, 1, id="normal3-1"),
            pytest.param(standard_normal(3), [0.9, -1.4, 0.2], [0.3, 0.8, -0.5], 0.1, 20, id="normal3-20"),
            pytest.param(MIX2, [-1.0, 0.0], [0.7, -0.4], 0.1, 1, id="mix2-1"),
            pytest.param(MIX2, [-1.0, 0.0], [0.7, -0.4], 0.1, 20, id="mix2-20"),
        ],
    )
    def test_bits_match_oracle(self, target, theta0, p0, eps_leap, n_leap, as_array):
        params = HmcSampler(eps_leap=eps_leap, n_leap=n_leap)
        grad0 = np.asarray(target.grad_log_density(theta0), dtype=float).tolist()
        args = [theta0, p0, grad0]
        if as_array:
            args = [np.array(a) for a in args]
        copies = [np.array(a) for a in args]
        theta, p, diverged, grad = leapfrog(*args, params, target)
        want_theta, want_p, want_diverged, want_grad = leapfrog_oracle(*copies, params, target)
        assert diverged == want_diverged == (eps_leap == 0.5)
        assert theta.tobytes() == want_theta.tobytes()
        assert p.tobytes() == want_p.tobytes()
        if diverged:
            assert grad is None and want_grad is None
        else:
            assert grad.tobytes() == want_grad.tobytes()
        # the caller's inputs are left as they were
        for arg, copy in zip(args, copies):
            assert np.asarray(arg).tobytes() == copy.tobytes()


class TestHmcStep:
    def test_tiny_step_acceptance_probability(self):
        params = HmcSampler(eps_leap=1e-4, n_leap=1)
        stream = split(44, 0)
        for _ in range(100):
            theta0 = np.array(stream.normals(1))
            p0 = np.array(stream.normals(1))
            theta1, p1, _, _ = leapfrog(theta0, p0, NORMAL1.grad_log_density(theta0), params, NORMAL1)
            h0 = -NORMAL1.log_density(theta0) + 0.5 * float(p0 @ p0)
            h1 = -NORMAL1.log_density(theta1) + 0.5 * float(p1 @ p1)
            assert math.exp(min(0.0, h0 - h1)) > 0.9999

    def test_energy_error_scales_second_order(self):
        def mean_abs_dh(eps):
            params = HmcSampler(eps_leap=eps, n_leap=10)
            stream = split(123, 0)
            total = 0.0
            for _ in range(1000):
                theta0 = np.array(stream.normals(1))
                p0 = np.array(stream.normals(1))
                theta1, p1, _, _ = leapfrog(theta0, p0, NORMAL1.grad_log_density(theta0), params, NORMAL1)
                h0 = -NORMAL1.log_density(theta0) + 0.5 * float(p0 @ p0)
                h1 = -NORMAL1.log_density(theta1) + 0.5 * float(p1 @ p1)
                total += abs(h1 - h0)
            return total / 1000

        assert mean_abs_dh(0.2) / mean_abs_dh(0.1) >= 3.5

    def test_divergent_trajectory_rejected(self):
        state = init_state(BOX22, [0.25, 0.25])
        params = HmcSampler(eps_leap=0.8, n_leap=10)
        seed = next(
            s for s in range(50) if not params.step(state, BOX22, split(s, 0))[1]
        )
        new, accepted = params.step(state, BOX22, split(seed, 0))
        assert not accepted
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_divergence_rejects_without_acceptance_uniform(self):
        # a diverged trajectory consumes its d momentum normals (2 uniforms
        # each) and no acceptance uniform; a completed one consumes one more
        target = RefusalCountingBox()
        state = init_state(target, [0.25, 0.25])
        params = HmcSampler(eps_leap=0.1, n_leap=5)
        d = state.theta.shape[0]
        seen = set()
        for seed in range(50):
            stream = split(seed, 0)
            refused = target.refused
            new, accepted = params.step(state, target, stream)
            diverged = target.refused > refused
            seen.add(diverged)
            if diverged:
                assert not accepted
                assert stream.counter == 2 * d
                np.testing.assert_array_equal(new.theta, state.theta)
                np.testing.assert_array_equal(new.theta_prev, state.theta)
                assert new.log_p == state.log_p and new.grad is state.grad and new.sigma is None
            else:
                assert stream.counter == 2 * d + 1
        assert seen == {True, False}

    def test_energy_rejection_keeps_state(self):
        # a completed trajectory that loses the acceptance draw: it consumes
        # the acceptance uniform, and the chain keeps its state
        target = RefusalCountingBox()
        state = init_state(target, [0.25, 0.25])
        params = HmcSampler(eps_leap=0.1, n_leap=5)
        d = state.theta.shape[0]
        rejected = []
        for seed in range(50):
            stream = split(seed, 0)
            refused = target.refused
            new, accepted = params.step(state, target, stream)
            if target.refused == refused and not accepted:
                rejected.append(seed)
                assert stream.counter == 2 * d + 1
                np.testing.assert_array_equal(new.theta, state.theta)
                np.testing.assert_array_equal(new.theta_prev, state.theta)
                assert new.log_p == state.log_p and new.grad is state.grad
        assert rejected

    @pytest.mark.parametrize(
        "target,theta0,eps_leap,n_leap",
        [
            pytest.param(BOX22, [0.3, 0.2], 0.05, 20, id="box"),
            pytest.param(NORMAL2, [0.9, -1.4], 0.3, 5, id="normal2"),
            pytest.param(MIX2, [-1.0, 0.0], 0.6, 5, id="mix2"),
        ],
    )
    def test_log_ratio_is_the_energy_error(self, monkeypatch, target, theta0, eps_leap, n_leap):
        # HMC is Metropolis-Hastings on (theta, p): the proposal it hands to
        # mh_accept must give log alpha = h_old - h_new, replayed here from
        # the same momentum draw
        handed = []

        def capture(state, prop, stream):
            handed.append(prop)
            return mh_accept(state, prop, stream)

        monkeypatch.setattr(samplers, "mh_accept", capture)
        params = HmcSampler(eps_leap=eps_leap, n_leap=n_leap)
        state = init_state(target, theta0)
        stream = split(21, 0)
        checked = 0
        for _ in range(60):
            twin = split(21, 0)
            twin.counter = stream.counter
            p0 = np.array(twin.normals(state.theta.shape[0]))
            theta1, p1, diverged, _ = leapfrog(state.theta, p0, state.grad, params, target)
            new, _ = params.step(state, target, stream)
            prop = handed.pop()
            assert prop.auto_reject == diverged and prop.cov_scale_fwd is None
            if not diverged:
                assert prop.theta_star.tobytes() == theta1.tobytes()
                h_old = -state.log_p + 0.5 * float(np.dot(p0, p0))
                h_new = -target.log_density(theta1) + 0.5 * float(np.dot(p1, p1))
                assert log_accept_ratio(state, prop) == pytest.approx(h_old - h_new, rel=1e-12)
                checked += 1
            state = new
        assert checked >= 40

    def test_one_trajectory_of_gradients_per_step(self):
        class Counting(GaussianMixture):
            calls = {"log_density": 0, "grad": 0}

            def log_density(self, point):
                self.calls["log_density"] += 1
                return super().log_density(point)

            def grad_log_density(self, point):
                self.calls["grad"] += 1
                return super().grad_log_density(point)

        target = Counting([(1.0, np.zeros(2), np.ones(2))])
        state = init_state(target, [0.1, 0.2])
        params = HmcSampler(eps_leap=0.1, n_leap=5)
        stream = split(8, 0)
        accepts = 0
        for _ in range(20):
            target.calls.update(log_density=0, grad=0)
            state, accepted = params.step(state, target, stream)
            accepts += accepted
            # the start gradient is state.grad and an accepted state keeps
            # the trajectory's last gradient
            assert target.calls == {"log_density": 1, "grad": params.n_leap}
        assert accepts > 0
        np.testing.assert_array_equal(state.grad, NORMAL2.grad_log_density(state.theta))

    def test_deterministic(self):
        state = init_state(NORMAL2, [0.1, 0.2])
        params = HmcSampler(eps_leap=0.1, n_leap=5)
        a, acc_a = params.step(state, NORMAL2, split(6, 1))
        b, acc_b = params.step(state, NORMAL2, split(6, 1))
        assert acc_a == acc_b
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.sigma is None  # HMC makes no Langevin proposal

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HmcSampler(eps_leap=0.0)
        with pytest.raises(ValueError):
            HmcSampler(n_leap=0)


class TestInvariance:
    """Moment gate: E[x^2] on standard_normal(d), averaged over the d
    coordinates, within 4 standard errors of 1; per-coordinate E[x] and
    E[x^2] on a two-component mixture within 4 standard errors of their
    exact values.

    Each of the 8 chains is one batch; the standard error is the spread of
    the chain means over sqrt(8) (batch means across chains; Flegal & Jones
    2010).
    """

    @pytest.mark.parametrize(
        "block,dim",
        [
            pytest.param({"name": "mala", "eps": 1.0}, 2, id="mala"),
            pytest.param(
                {"name": "adaptive", "eps": 1.0},
                2,
                id="adaptive",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the adaptive kernel is not invariant: E[x^2] = 0.934 +- 0.006 (z = -11.8) "
                    "at eps=1, seed 1; its reverse density reuses the forward scale",
                ),
            ),
            pytest.param({"name": "hmc", "eps_leap": 0.3, "n_leap": 5}, 2, id="hmc"),
            pytest.param({"name": "mala", "eps": 0.8}, 8, id="mala-d8"),
            pytest.param({"name": "hmc", "eps_leap": 0.3, "n_leap": 5}, 8, id="hmc-d8"),
        ],
    )
    def test_second_moment_of_standard_normal(self, block, dim):
        chains = 8
        target = standard_normal(dim)
        means = np.array(
            [(run_chain(block, target, 10_000, 500, [0.0] * dim, 1, k).samples ** 2).mean() for k in range(chains)]
        )
        z = (means.mean() - 1.0) / (means.std(ddof=1) / math.sqrt(chains))
        assert abs(z) <= 4.0, f"E[x^2] = {means.mean():.4f}, z = {z:.1f}"

    @pytest.mark.parametrize(
        "block",
        [
            pytest.param({"name": "mala", "eps": 1.0}, id="mala"),
            pytest.param({"name": "hmc", "eps_leap": 0.3, "n_leap": 5}, id="hmc"),
        ],
    )
    def test_moments_of_mixture(self, block):
        chains = 8
        components = [(0.3, [-0.5, -0.5], [1.0, 0.5]), (0.7, [0.5, 1.0], [0.5, 1.0])]
        w = np.array([c[0] for c in components])
        mu = np.array([c[1] for c in components])
        var = np.array([c[2] for c in components])
        target = GaussianMixture(components)
        samples = [
            run_chain(block, target, 10_000, 500, [0.0, 0.0], 1, k).samples for k in range(chains)
        ]
        for what, stat, exact in (
            ("E[x]", lambda x: x, w @ mu),
            ("E[x^2]", lambda x: x * x, w @ (var + mu * mu)),
        ):
            means = np.array([stat(x).mean(axis=0) for x in samples])
            z = (means.mean(axis=0) - exact) / (means.std(axis=0, ddof=1) / math.sqrt(chains))
            assert np.all(np.abs(z) <= 4.0), f"{what} = {means.mean(axis=0)}, exact {exact}, z = {z}"


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
        # a non-string name is unknown too, not an unhashable-type error
        with pytest.raises(ValueError, match=r"unknown sampler: \['mala'\]"):
            make_sampler({"name": ["mala"], "eps": 0.1})

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
        assert sampler == AdaptiveSampler(eps=0.2, beta=1.4, xi=0.3)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": "adaptive", "eps": 0.03},
            {"name": "mala", "eps": 0.1},
            {"name": "hmc", "eps_leap": 0.05, "n_leap": 20},
        ],
        ids=["adaptive", "mala", "hmc"],
    )
    @pytest.mark.parametrize("target_name", ["box", "mixture"])
    def test_scores_are_the_gradients_at_the_samples(self, cfg, target_name):
        if target_name == "box":
            target, init = RefusalCountingBox(), [0.25, 0.25]
        else:
            target, init = MIX2, [-1.0, 0.0]
        chain = run_chain(cfg, target, 350, 0, init, seed=1, chain_id=0)
        if target_name == "box" and cfg["name"] == "hmc":
            # the chain holds diverged steps and energy rejections
            assert target.refused > 0 and np.count_nonzero(~chain.accepted) > target.refused
        stacked = np.array([target.grad_log_density(x) for x in chain.samples])
        assert chain.scores.shape == chain.samples.shape
        assert chain.scores.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": "adaptive", "eps": 0.03},
            {"name": "mala", "eps": 0.03},
            {"name": "hmc", "eps_leap": 0.05, "n_leap": 20},
        ],
        ids=["adaptive", "mala", "hmc"],
    )
    def test_array_gradient_gives_the_same_chain(self, cfg):
        # the box returns its gradient as a list; a numpy vector is equally valid
        a = run_chain(cfg, BOX22, 300, 50, [0.25, 0.25], seed=1, chain_id=0)
        b = run_chain(cfg, ArrayGradBox(), 300, 50, [0.25, 0.25], seed=1, chain_id=0)
        for field in ("samples", "log_ps", "accepted", "scores"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

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
    pins the divergence path. The MIX2 chains pin the multi-component numpy
    gradient; their HMC chain rejects 27 of its 300 kept steps.
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
            (
                {"name": "adaptive", "eps": 0.8},
                MIX2,
                [-1.0, 0.0],
                "7fa6add07c0b44bf4937a59928faffd61eaaeac7f4572e93cf305ca17488cbcf",
            ),
            (
                {"name": "mala", "eps": 0.8},
                MIX2,
                [-1.0, 0.0],
                "7ef48556cef1b76fd8ebf8e1803baff9467751188188c7fe53c215d3f9a7cbe5",
            ),
            (
                {"name": "hmc", "eps_leap": 0.6, "n_leap": 5},
                MIX2,
                [-1.0, 0.0],
                "195e6e1d24272da9ba9c82d96e4bf6543ced7580e20d776bf425a49abd0b253e",
            ),
        ],
        ids=[
            "adaptive-box",
            "mala-box",
            "hmc-box",
            "adaptive-normal",
            "mala-normal",
            "adaptive-mix2",
            "mala-mix2",
            "hmc-mix2",
        ],
    )
    def test_digest(self, cfg, target, init, digest):
        chain = run_chain(cfg, target, 300, 50, init, seed=1, chain_id=0)
        got = hashlib.sha256(chain.samples.tobytes() + chain.log_ps.tobytes()).hexdigest()
        assert got == digest
