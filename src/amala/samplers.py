"""Samplers: classic MALA, the adaptive-scale Langevin sampler, and HMC.

All three kernels share one Metropolis-Hastings step (mh_accept), which
knows nothing of any kernel: it builds the next state from the proposal's
point, log density and gradient alone. HMC's momentum densities fill the
proposal slots. The Langevin pair also share one proposal
(langevin_propose): isotropic Gaussians N(theta + (eps^2/2) grad, scale * I),
MALA with the fixed scale eps^2 and the adaptive sampler with a fresh
stochastic scale drawn each step from the trajectory history. That history
(the last scale and the norms of the previous point) belongs to the
adaptive kernel: AdaptiveSampler.step is its only writer, and MALA and HMC
states carry none of it.

MALA and HMC leave the target exactly invariant. The adaptive sampler does
not: its scale depends on the current point through the norm ratios, but
the reverse density reuses the forward scale instead of the scale the
reverse move would draw at theta*, so the acceptance ratio is not the ratio
of the true transition densities. The bias is small but measurable (E[x^2]
of about 0.93 instead of 1 on a 2D standard normal at eps = 1).

Each sampler class is a dataclass whose fields are exactly the keys of its
config block besides "name"; make_sampler builds one from that block.

Vectors are float lists from init_state, which converts the start point
once, to run_chain's row copies: no step makes a numpy round trip.
Stream-draw order per step is fixed (scale update if any, proposal noise or
momentum, acceptance uniform) so chains replay bit-identically; proposals
on zero-density points and diverged HMC trajectories are auto-rejected
without consuming the acceptance uniform.
"""

import math
import struct
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .rng import RngStream, split, uint64
from .targets import NEG_INF, TargetDensity, check_dataclass_fields, finite_real, finite_vector, integer_at_least

SQRT_2PI = math.sqrt(2.0 * math.pi)
# floor of the norm-ratio denominators and of the base before its power
NORM_FLOOR = 1e-12
BASE_FLOOR = 1e-12


def norm(v) -> float:
    """Euclidean norm of a sequence of floats: the square root of its squares
    summed left to right. The bits depend on neither the CPU nor the Python
    version: a BLAS dot product's would depend on the kernel the CPU
    selects, and math.hypot's on the Python version."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


@dataclass
class ChainState:
    """Current chain position with its cached target values.

    No step changes the theta or grad list of a state it is given.
    sigma and norms_prev are the adaptive kernel's history, written by
    AdaptiveSampler.step alone and None in every MALA and HMC state: sigma
    is the scale of the last adaptive proposal and norms_prev the pair
    (|theta|, |grad|) of the point the last step started from.
    """

    theta: list[float]
    log_p: float
    grad: list[float]
    sigma: float | None = None
    norms_prev: tuple[float, float] | None = None


@dataclass
class Proposal:
    """One Metropolis-Hastings proposal with the densities of its auxiliary draw.

    log_q_fwd is the log density of the draw that makes the move, log_q_rev
    that of the draw that would make the reverse move. For a Langevin move
    the draw is the Gaussian noise: theta_star under N(theta + (eps^2/2)
    grad, scale * I), and the current point under the reverse kernel
    centered at theta_star. For HMC it is the momentum, -|p|^2/2 at the
    start and at the end of the trajectory. theta_star is a new float list.
    Proposals landing on zero-density points, and diverged trajectories,
    carry auto_reject, log_p_star -inf and no gradient.
    """

    theta_star: list[float]
    log_q_fwd: float
    log_q_rev: float
    log_p_star: float
    grad_star: list[float] | None = None
    auto_reject: bool = False


@dataclass
class Chain:
    """Post-burn-in samples of one chain plus run metadata; no gradients."""

    samples: np.ndarray
    log_ps: np.ndarray
    accepted: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())


def check_init(target: TargetDensity, init) -> tuple:
    """(init as a float vector, its log density); rejects non-finite, wrong-length and zero-density inits."""
    theta = finite_vector(init, "init element")
    if theta.shape != (target.dim,):
        raise ValueError(f"init has shape {theta.shape}, the target expects ({target.dim},)")
    log_p = target.log_density(theta)
    if log_p == NEG_INF:
        raise ValueError(f"init {theta.tolist()} is not a point of positive target density")
    return theta, log_p


def init_state(target: TargetDensity, init) -> ChainState:
    """Chain state at the starting point, its vectors as float lists; rejects
    what check_init rejects and a gradient not shaped as the point."""
    theta, log_p = check_init(target, init)
    grad = np.asarray(target.grad_log_density(theta), dtype=float)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient has shape {grad.shape} at a point of shape {theta.shape}")
    return ChainState(theta=theta.tolist(), log_p=log_p, grad=grad.tolist())


def langevin_propose(
    state: ChainState, target: TargetDensity, eps: float, scale: float, stream: RngStream
) -> Proposal:
    """Langevin proposal N(theta + (eps^2/2) grad, scale * I) with both densities.

    MALA passes scale = eps^2; the adaptive sampler passes its history-driven
    scale. The reverse density reuses the forward scale, so both Gaussian log
    densities, -(d/2) log(2 pi scale) - |x - mean|^2 / (2 scale), share one
    log-normaliser. The forward one takes |x - mean|^2 / scale as |z|^2 of
    the standard normal draw z that makes the move.
    """
    theta = state.theta
    d = len(theta)
    drift = 0.5 * eps * eps
    log_norm = -0.5 * d * math.log(2.0 * math.pi * scale)
    root = math.sqrt(scale)
    z = stream.normals(d)
    theta_star = [(t + drift * g) + root * x for t, g, x in zip(theta, state.grad, z)]
    r = norm(z)
    log_q_fwd = log_norm - 0.5 * r * r
    log_p_star = target.log_density(theta_star)
    if log_p_star == NEG_INF:
        return Proposal(theta_star, log_q_fwd, math.nan, log_p_star, auto_reject=True)
    grad_star = target.grad_log_density(theta_star)
    r = norm([t - (s + drift * g) for t, s, g in zip(theta, theta_star, grad_star)])
    log_q_rev = log_norm - r * r / (2.0 * scale)
    return Proposal(theta_star, log_q_fwd, log_q_rev, log_p_star, grad_star)


def log_accept_ratio(state: ChainState, prop: Proposal) -> float:
    """Uncapped log acceptance ratio; -inf for auto-rejected proposals."""
    if prop.auto_reject:
        return NEG_INF
    return prop.log_p_star + prop.log_q_rev - state.log_p - prop.log_q_fwd


def mh_accept(state: ChainState, prop: Proposal, stream: RngStream) -> tuple[ChainState, bool]:
    """Metropolis-Hastings accept/reject; returns the next state, the
    proposal's point on accept and the current one on reject, with no
    history: the kernel that keeps one adds it.

    A proposal whose log ratio is -inf (auto-rejected or not) rejects
    without consuming a uniform; every other step consumes exactly one.
    """
    log_alpha = log_accept_ratio(state, prop)
    accepted = False
    if log_alpha != NEG_INF:
        u = stream.next_uniform()
        accepted = log_alpha >= 0.0 or u < math.exp(log_alpha)
    if accepted:
        return ChainState(prop.theta_star, prop.log_p_star, prop.grad_star), True
    return ChainState(state.theta, state.log_p, state.grad), False


def leapfrog(
    theta, momentum, grad, params: "HmcSampler", target: TargetDensity
) -> tuple[list[float], list[float], bool, list[float] | None]:
    """n_leap leapfrog iterations (half-kick, drift, half-kick) from theta,
    whose log-density gradient grad the caller already holds.

    Returns (theta, momentum, diverged, grad at the returned theta), so a
    trajectory evaluates at most n_leap gradients and nothing else.
    diverged flags a trajectory that drifted onto a zero-density point,
    where by the TargetDensity contract the gradient raises ValueError;
    the returned momentum is then the mid-step one and grad is None.
    The loop updates copies of theta and momentum in place, which it
    returns, and only reads the gradients. It fuses the closing and opening
    half-kicks of consecutive iterations as (p + h*g) + h*g, the same two
    adds in the same order. Each iteration kicks and drifts coordinate i in
    one pass, since theta[i] depends on p[i] alone. The target gets the
    working position list, which changes after the call.
    """
    eps = params.eps_leap
    half = 0.5 * eps
    theta, p, g = list(theta), list(momentum), grad
    dims = range(len(theta))
    for k in range(params.n_leap):
        for i in dims:
            q = p[i] + half * g[i]
            if k:
                q = q + half * g[i]
            p[i] = q
            theta[i] = theta[i] + eps * q
        try:
            g = target.grad_log_density(theta)
        except ValueError:
            return theta, p, True, None
    for i in dims:
        p[i] = p[i] + half * g[i]
    return theta, p, False, g


@dataclass
class MalaSampler:
    """Classic MALA with fixed step size: the Langevin proposal at scale eps^2."""

    name = "mala"
    eps: float

    def __post_init__(self):
        eps = finite_real(self.eps, "eps")
        if eps <= 0:
            raise ValueError("eps must be positive")
        # the proposal scale is eps^2, which must neither underflow nor overflow
        if not 0.0 < eps * eps < math.inf:
            raise ValueError(f"eps must square to a positive finite number, got {self.eps!r}")

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        prop = langevin_propose(state, target, self.eps, self.eps * self.eps, stream)
        return mh_accept(state, prop, stream)


def sigma_update(
    theta_norm: float,
    theta_norm_prev: float,
    grad_norm: float,
    grad_norm_prev: float,
    sigma_prev: float,
    params: "AdaptiveSampler",
    stream: RngStream,
) -> float:
    """Next proposal scale (the formula in AdaptiveSampler) from the
    Euclidean norms, by norm, of the last two points and gradients; params
    is the AdaptiveSampler whose eps, beta and xi enter the update.

    Strictly positive and finite for finite inputs; when the position and
    gradient norm ratios agree (r_theta == r_grad) the psi draw multiplies
    zero and the output is deterministic. A NaN anywhere in the history makes
    a norm ratio NaN and raises ValueError.
    """
    r_theta = (theta_norm / max(theta_norm_prev, NORM_FLOOR)) ** 2
    r_grad = (grad_norm / max(grad_norm_prev, NORM_FLOOR)) ** 2
    if math.isnan(r_theta) or math.isnan(r_grad):
        raise ValueError("NaN in the chain history")
    psi = stream.next_uniform() * (SQRT_2PI + sigma_prev)
    base = params.beta + psi * (r_theta - r_grad)
    clamped = max(base, BASE_FLOOR)
    return params.eps * clamped**params.xi / (1.0 + math.exp(-r_grad))


@dataclass
class AdaptiveSampler(MalaSampler):
    """Langevin sampler with the stochastic history-driven proposal scale,
    a scalar multiple of the identity recomputed each step by sigma_update:

        r_theta = (|theta_n| / |theta_{n-1}|)^2
        r_grad  = (|grad_n|  / |grad_{n-1}|)^2
        psi     ~ Uniform[0, sqrt(2*pi) + sigma_n]
        sigma   = eps * max(beta + psi * (r_theta - r_grad), floor)^xi
                  / (1 + exp(-r_grad))

    Both ratios are ratios of Euclidean norms with a floored denominator, so
    the update is defined for every finite history, including zero vectors.
    The base is floored before the fractional power (a negative base has no
    real power), which also guarantees a strictly positive output.

    eps doubles as the Langevin step size. Step 0 has no previous point, so
    it uses the MALA scale eps^2; adaptation starts at step 1 and consumes
    one uniform (psi) before the proposal. Each step records its scale and
    the norms of its start point in the next state, the chain's only history.
    """

    name = "adaptive"
    beta: float = 1.0
    xi: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        finite_real(self.beta, "beta")
        if not 0.0 < finite_real(self.xi, "xi") < 1.0:
            raise ValueError("xi must lie in (0, 1)")

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        norms = (norm(state.theta), norm(state.grad))
        prev = state.norms_prev
        if prev is None:
            scale = self.eps * self.eps
        else:
            # a module global, so perfbench's tracer can wrap it
            scale = sigma_update(norms[0], prev[0], norms[1], prev[1], state.sigma, self, stream)
        prop = langevin_propose(state, target, self.eps, scale, stream)
        new, accepted = mh_accept(state, prop, stream)
        # history shifts forward on accept and reject alike, so repeated
        # rejection drives the norm ratios to 1 and shrinks the scale
        new.sigma, new.norms_prev = scale, norms
        return new, accepted


@dataclass
class HmcSampler:
    """Hamiltonian Monte Carlo baseline with fixed leapfrog settings
    (identity mass matrix only)."""

    name = "hmc"
    eps_leap: float = 0.05
    n_leap: int = 20

    def __post_init__(self):
        if finite_real(self.eps_leap, "eps_leap") <= 0:
            raise ValueError("eps_leap must be positive")
        integer_at_least(self.n_leap, "n_leap", 1)

    def step(self, state: ChainState, target: TargetDensity, stream: RngStream):
        """One HMC transition: momentum refresh, leapfrog, Metropolis-Hastings
        on (theta, p) with the momentum densities as the proposal densities,
        so log alpha is the energy error h_old - h_new.

        Leapfrog starts from the cached state.grad and an accepted state keeps
        its last gradient: a step costs n_leap gradients and one log density.
        """
        z = stream.normals(len(state.theta))
        theta_star, p_star, diverged, grad_star = leapfrog(state.theta, z, state.grad, self, target)
        r = norm(z)
        log_q_fwd = -0.5 * r * r
        if diverged:
            prop = Proposal(theta_star, log_q_fwd, math.nan, NEG_INF, None, True)
        else:
            r = norm(p_star)
            log_q_rev = -0.5 * r * r
            prop = Proposal(theta_star, log_q_fwd, log_q_rev, target.log_density(theta_star), grad_star)
        return mh_accept(state, prop, stream)


_SAMPLERS = {cls.name: cls for cls in (MalaSampler, AdaptiveSampler, HmcSampler)}


def make_sampler(cfg: Mapping):
    """Build a sampler from its config block: 'name' picks the class and
    every other key is one of its fields."""
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if not isinstance(name, str) or name not in _SAMPLERS:
        raise ValueError(f"unknown sampler: {name!r}")
    check_dataclass_fields(cfg, f"{name} sampler", _SAMPLERS[name])
    return _SAMPLERS[name](**cfg)


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
    sampling loop alone. A kept point is packed straight into its samples row.
    """
    integer_at_least(n, "n", 1)
    integer_at_least(burn_in, "burn_in", 0)
    uint64(chain_id, "chain_id")
    stream = split(seed, chain_id)
    sampler = make_sampler(sampler_cfg)
    state = init_state(target, init)
    d = len(state.theta)
    samples = np.empty((n, d))
    log_ps = np.empty(n)
    accepted = np.empty(n, dtype=bool)
    pack_row, row_bytes = struct.Struct(f"{d}d").pack_into, 8 * d
    t0 = time.perf_counter()
    for _ in range(burn_in):
        state = sampler.step(state, target, stream)[0]
    for j in range(n):
        state, acc = sampler.step(state, target, stream)
        pack_row(samples, j * row_bytes, *state.theta)
        log_ps[j] = state.log_p
        accepted[j] = acc
    wall = time.perf_counter() - t0
    meta = {"sampler": sampler.name, "chain_id": chain_id, "burn_in": int(burn_in), "wall_time_s": wall}
    return Chain(samples=samples, log_ps=log_ps, accepted=accepted, meta=meta)
