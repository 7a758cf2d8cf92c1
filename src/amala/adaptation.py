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

from .rng import RngStream

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


def sigma_update(
    theta_norm: float,
    theta_norm_prev: float,
    grad_norm: float,
    grad_norm_prev: float,
    sigma_prev: float,
    params,
    stream: RngStream,
) -> float:
    """Next proposal scale from the Euclidean norms (by norm) of the last two
    points and gradients; params is the AdaptiveSampler whose eps, beta and
    xi enter the update. The chain carries each point's norms, so a step
    computes them only for a point it has not seen.

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
