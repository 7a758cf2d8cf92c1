"""Stochastic scale update for the adaptive Langevin proposal.

The proposal covariance of the adaptive sampler is a scalar multiple of the
identity, recomputed each step from the trajectory history:

    r_theta = (|theta_n| / |theta_{n-1}|)^2
    r_grad  = (|grad_n|  / |grad_{n-1}|)^2
    psi     ~ Uniform[0, sqrt(2*pi) + sigma_n]
    sigma   = eps * max(beta + psi * (r_theta - r_grad), floor)^xi
              / (1 + exp(-r_grad))

Both ratios are ratios of Euclidean norms with a floored denominator, so the
update is defined for every finite history, including zero vectors. The base
is floored before the fractional power (a negative base has no real power),
which also guarantees a strictly positive output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class AdaptParams:
    """Knobs for the scale update; eps doubles as the Langevin step size."""

    eps: float
    beta: float = 1.0
    xi: float = 0.5
    base_floor: float = 1e-12
    norm_floor: float = 1e-12

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")
        if self.base_floor <= 0 or self.norm_floor <= 0:
            raise ValueError("floors must be positive")


def ratio_norm_guarded(a, b, floor: float) -> float:
    """||a|| / max(||b||, floor) for same-dimension vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same dimension")
    # sqrt(x.dot(x)) is how np.linalg.norm computes a real 1-D norm, without
    # its dispatch overhead
    return math.sqrt(a.dot(a)) / max(math.sqrt(b.dot(b)), floor)


def psi_draw(sigma_prev: float, stream: RngStream) -> float:
    """One uniform draw from [0, sqrt(2*pi) + sigma_prev)."""
    return stream.next_uniform() * (SQRT_2PI + sigma_prev)


def sigma_update(
    theta_n,
    theta_prev,
    grad_n,
    grad_prev,
    sigma_prev: float,
    params: AdaptParams,
    stream: RngStream,
) -> float:
    """Next proposal scale from the last two points and gradients.

    Strictly positive and finite for finite inputs; when the position and
    gradient norm ratios agree (r_theta == r_grad) the psi draw multiplies
    zero and the output is deterministic. A NaN anywhere in the history makes
    a norm ratio NaN and raises ValueError.
    """
    r_theta = ratio_norm_guarded(theta_n, theta_prev, params.norm_floor) ** 2
    r_grad = ratio_norm_guarded(grad_n, grad_prev, params.norm_floor) ** 2
    if math.isnan(r_theta) or math.isnan(r_grad):
        raise ValueError("NaN in the chain history")
    psi = psi_draw(sigma_prev, stream)
    base = params.beta + psi * (r_theta - r_grad)
    clamped = max(base, params.base_floor)
    return params.eps * clamped**params.xi / (1.0 + math.exp(-r_grad))
