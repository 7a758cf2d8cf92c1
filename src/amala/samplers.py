"""Samplers: classic MALA, the adaptive-scale Langevin sampler, and HMC.

All three share the ChainState bookkeeping. The Langevin pair share one
proposal (langevin_propose) and one Metropolis-Hastings step (mh_accept):
proposals are isotropic Gaussians N(theta + (eps^2/2) grad, scale * I),
MALA with the fixed scale eps^2 and the adaptive sampler with a fresh
stochastic scale drawn each step from the trajectory history.

MALA and HMC leave the target exactly invariant. The adaptive sampler does
not: its scale depends on the current point through the norm ratios, but
the reverse density reuses the forward scale instead of the scale the
reverse move would draw at theta*, so the acceptance ratio is not the ratio
of the true transition densities. The bias is small but measurable (E[x^2]
of about 0.93 instead of 1 on a 2D standard normal at eps = 1).

Stream-draw order per step is fixed (scale update if any, proposal noise,
acceptance uniform) so chains replay bit-identically; zero-density
proposals are auto-rejected without consuming the acceptance uniform.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .adaptation import AdaptParams, sigma_update
from .rng import RngStream, split
from .targets import NEG_INF, TargetDensity


@dataclass
class ChainState:
    """Current chain position with cached target values and adaptation history."""

    theta: np.ndarray
    log_p: float
    grad: np.ndarray
    theta_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None
    sigma: float | None = None  # scale of the last Langevin proposal; None before one


@dataclass
class Proposal:
    """One Gaussian proposal with both transition densities.

    log_q_fwd is the log density of theta_star under the forward kernel
    N(theta + (eps^2/2) grad, cov_scale_fwd * I); log_q_rev the log density
    of the current point under the reverse kernel centered at theta_star.
    Proposals landing on zero-density points carry auto_reject and no
    gradient (the reverse mean is undefined there).
    """

    theta_star: np.ndarray
    cov_scale_fwd: float
    log_q_fwd: float
    log_q_rev: float
    log_p_star: float
    grad_star: np.ndarray | None = None
    auto_reject: bool = False


@dataclass
class HmcParams:
    """Leapfrog settings for the HMC baseline (identity mass matrix only)."""

    eps_leap: float = 0.05
    n_leap: int = 20

    def __post_init__(self):
        if self.eps_leap <= 0:
            raise ValueError("eps_leap must be positive")
        if isinstance(self.n_leap, bool) or not isinstance(self.n_leap, int) or self.n_leap < 1:
            raise ValueError(f"n_leap must be an integer >= 1, got {self.n_leap!r}")


@dataclass
class Chain:
    """Post-burn-in samples of one chain plus run metadata."""

    samples: np.ndarray
    log_ps: np.ndarray
    accepted: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())


def gaussian_log_density(x, mean, scale: float) -> float:
    """Log density of x under the isotropic Gaussian N(mean, scale * I)."""
    x = np.asarray(x, dtype=float)
    diff = x - np.asarray(mean, dtype=float)
    d = diff.shape[0]
    return -0.5 * d * math.log(2.0 * math.pi * scale) - float(np.dot(diff, diff)) / (2.0 * scale)


def init_state(target: TargetDensity, init) -> ChainState:
    """Chain state at the starting point; rejects zero-density inits."""
    theta = np.asarray(init, dtype=float).copy()
    log_p = target.log_density(theta)
    if log_p == NEG_INF:
        raise ValueError("initial point has zero density under the target")
    return ChainState(theta=theta, log_p=log_p, grad=target.grad_log_density(theta))


def langevin_propose(
    state: ChainState, target: TargetDensity, eps: float, scale: float, stream: RngStream
) -> Proposal:
    """Langevin proposal N(theta + (eps^2/2) grad, scale * I) with both densities.

    MALA passes scale = eps^2; the adaptive sampler passes its history-driven
    scale. The reverse density reuses the forward scale.
    """
    drift = 0.5 * eps * eps
    mean_fwd = state.theta + drift * state.grad
    z = np.array(stream.normals(state.theta.shape[0]))
    theta_star = mean_fwd + math.sqrt(scale) * z
    log_q_fwd = gaussian_log_density(theta_star, mean_fwd, scale)
    log_p_star = target.log_density(theta_star)
    if log_p_star == NEG_INF:
        return Proposal(theta_star, scale, log_q_fwd, math.nan, log_p_star, auto_reject=True)
    grad_star = target.grad_log_density(theta_star)
    log_q_rev = gaussian_log_density(state.theta, theta_star + drift * grad_star, scale)
    return Proposal(theta_star, scale, log_q_fwd, log_q_rev, log_p_star, grad_star)


def log_accept_ratio(state: ChainState, prop: Proposal) -> float:
    """Uncapped log acceptance ratio; -inf for auto-rejected proposals."""
    if prop.auto_reject:
        return NEG_INF
    return prop.log_p_star + prop.log_q_rev - state.log_p - prop.log_q_fwd


def _advance(state: ChainState, theta, log_p, grad, sigma: float | None = None) -> ChainState:
    # history shifts forward on accept and reject alike, so repeated
    # rejection drives the norm ratios to 1 and shrinks the adaptive scale
    return ChainState(
        theta=theta,
        log_p=log_p,
        grad=grad,
        theta_prev=state.theta,
        grad_prev=state.grad,
        sigma=sigma,
    )


def mh_accept(state: ChainState, prop: Proposal, stream: RngStream) -> tuple[ChainState, bool]:
    """Metropolis-Hastings accept/reject; returns the next state.

    Zero-density proposals reject without consuming a uniform; every other
    step consumes exactly one.
    """
    log_alpha = log_accept_ratio(state, prop)
    sigma = prop.cov_scale_fwd
    if log_alpha != NEG_INF:
        u = stream.next_uniform()
        if log_alpha >= 0.0 or u < math.exp(log_alpha):
            return _advance(state, prop.theta_star, prop.log_p_star, prop.grad_star, sigma), True
    return _advance(state, state.theta, state.log_p, state.grad, sigma), False


def leapfrog(
    theta, momentum, params: HmcParams, target: TargetDensity
) -> tuple[np.ndarray, np.ndarray, bool]:
    """n_leap leapfrog iterations (half-kick, drift, half-kick).

    Returns (theta, momentum, diverged); diverged flags a trajectory that
    drifted onto a zero-density point, where the gradient is undefined.
    Only the gradient is evaluated along the trajectory: by the
    TargetDensity contract it raises ValueError exactly at zero-density
    points. The loop runs on float lists, which is the same sequence of
    IEEE operations as the vector form and avoids numpy call overhead on
    short vectors.
    """
    eps = params.eps_leap
    half = 0.5 * eps
    theta = np.asarray(theta, dtype=float).tolist()
    p = np.asarray(momentum, dtype=float).tolist()
    grad = target.grad_log_density(theta).tolist()
    for _ in range(params.n_leap):
        p = [a + half * b for a, b in zip(p, grad)]
        theta = [a + eps * b for a, b in zip(theta, p)]
        try:
            grad = target.grad_log_density(theta).tolist()
        except ValueError:
            return np.array(theta), np.array(p), True
        p = [a + half * b for a, b in zip(p, grad)]
    return np.array(theta), np.array(p), False


def hmc_step(
    state: ChainState, params: HmcParams, target: TargetDensity, stream: RngStream
) -> tuple[ChainState, bool]:
    """One HMC transition: momentum refresh, leapfrog, energy-error accept."""
    d = state.theta.shape[0]
    p0 = np.array(stream.normals(d))
    theta_star, p_star, diverged = leapfrog(state.theta, p0, params, target)
    if diverged:
        return _advance(state, state.theta, state.log_p, state.grad), False
    log_p_star = target.log_density(theta_star)
    h_old = -state.log_p + 0.5 * float(np.dot(p0, p0))
    h_new = -log_p_star + 0.5 * float(np.dot(p_star, p_star))
    log_alpha = h_old - h_new
    u = stream.next_uniform()
    if log_alpha >= 0.0 or u < math.exp(log_alpha):
        grad_star = target.grad_log_density(theta_star)
        return _advance(state, theta_star, log_p_star, grad_star), True
    return _advance(state, state.theta, state.log_p, state.grad), False


class MalaSampler:
    """Classic MALA with fixed step size: the Langevin proposal at scale eps^2."""

    name = "mala"

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        prop = langevin_propose(state, target, self.eps, self.eps * self.eps, stream)
        return mh_accept(state, prop, stream)


class AdaptiveSampler:
    """Langevin sampler with the stochastic history-driven proposal scale.

    Step 0 has no history pair, so it uses the MALA scale eps^2; adaptation
    starts at step 1 and consumes one uniform (psi) before the proposal.
    """

    name = "adaptive"

    def __init__(self, params: AdaptParams):
        self.params = params

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        p = self.params
        if state.theta_prev is None:
            scale = p.eps * p.eps
        else:
            scale = sigma_update(
                state.theta, state.theta_prev, state.grad, state.grad_prev, state.sigma, p, stream
            )
        prop = langevin_propose(state, target, p.eps, scale, stream)
        return mh_accept(state, prop, stream)


class HmcSampler:
    """Hamiltonian Monte Carlo baseline with fixed leapfrog settings."""

    name = "hmc"

    def __init__(self, params: HmcParams):
        self.params = params

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        return hmc_step(state, self.params, target, stream)


def make_sampler(cfg: Mapping):
    """Build a sampler from its config block ({'name': ..., params...})."""
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if name == "mala":
        return MalaSampler(**cfg)
    if name == "adaptive":
        return AdaptiveSampler(AdaptParams(**cfg))
    if name == "hmc":
        return HmcSampler(HmcParams(**cfg))
    raise ValueError(f"unknown sampler: {name!r}")


def run_chain(
    sampler_cfg: Mapping,
    target: TargetDensity,
    n: int,
    burn_in: int,
    init,
    seed: int,
    chain_id: int,
) -> Chain:
    """Run one chain and return its post-burn-in samples.

    The chain draws from split(seed, chain_id) only, so reruns with the
    same arguments reproduce the chain exactly. Wall time covers the
    sampling loop alone.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    sampler = make_sampler(sampler_cfg)
    stream = split(seed, chain_id)
    state = init_state(target, init)
    d = state.theta.shape[0]
    samples = np.empty((n, d))
    log_ps = np.empty(n)
    accepted = np.empty(n, dtype=bool)
    t0 = time.perf_counter()
    for i in range(burn_in + n):
        state, acc = sampler.step(state, target, stream)
        if i >= burn_in:
            j = i - burn_in
            samples[j] = state.theta
            log_ps[j] = state.log_p
            accepted[j] = acc
    wall = time.perf_counter() - t0
    meta = {
        "sampler": sampler.name,
        "seed": int(seed),
        "chain_id": int(chain_id),
        "burn_in": int(burn_in),
        "wall_time_s": wall,
    }
    return Chain(samples=samples, log_ps=log_ps, accepted=accepted, meta=meta)
