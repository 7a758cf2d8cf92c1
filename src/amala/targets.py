"""Target densities: the 2D particle-in-a-box benchmark and Gaussian mixtures.

Every target follows the TargetDensity contract. Zero-density regions are
encoded as a -inf log density rather than an error so the
Metropolis-Hastings step rejects such proposals naturally.
"""

import math
import struct
from dataclasses import MISSING, fields
from math import cos, log, pi, sin
from numbers import Real
from operator import mul, sub, truediv

import numpy as np

NEG_INF = float("-inf")


def finite_real(value, what: str) -> float:
    """value as a float; a bool, a non-number, NaN, infinity or an integer
    too large for a float raises ValueError naming what."""
    if not isinstance(value, bool) and isinstance(value, Real):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def integer_at_least(value, what: str, low: int) -> None:
    """Raise ValueError naming what unless value is an int (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


def _sum(values) -> float:
    """Left-to-right float sum. The builtin sum compensates its rounding from
    Python 3.12 on, so its bits depend on the Python version; these do not."""
    total = 0.0
    for v in values:
        total += v
    return total


def finite_vector(values, what: str) -> np.ndarray:
    """values as a float vector; a scalar, a nested list or a non-finite or
    non-number element raises a one-line ValueError naming what."""
    # dtype=object keeps each element's own type: a bool among floats is still seen
    vector = np.asarray(values, dtype=object)
    if vector.ndim != 1:
        raise ValueError(f"{what} must be a flat list of numbers, got {values!r}")
    return np.array([finite_real(v, what) for v in vector])


class TargetDensity:
    """Interface shared by all targets: log density and its gradient.

    A point is any length-``dim`` sequence of floats (both built-in targets
    raise ``ValueError`` for another length); the kernels carry float
    lists. ``log_density`` returns a float that may be -inf at zero-density
    points, never +inf and never NaN for finite points.
    ``grad_log_density`` returns a length-``dim`` float list (as both
    built-in targets do) or numpy vector, and raises ``ValueError`` exactly
    where ``log_density`` is -inf. HMC's leapfrog relies on that: it
    evaluates only the gradient along a trajectory and treats the
    ``ValueError`` as a divergence. Both built-in targets derive the two
    from one evaluation of the point, so they agree by construction.
    Leapfrog passes its own working position list and changes it after the
    call, so a target must not keep the point. It may memoize by value:
    results kept under a copy of the point's float64 bytes are safe, as the
    caller's object is never read again.
    """

    dim = 0

    def log_density(self, point) -> float:
        raise NotImplementedError

    def grad_log_density(self, point):
        raise NotImplementedError


def _wave_number(n: int, length: float, n_name: str, length_name: str) -> float:
    """2 n pi / L, one axis's gradient factor; raises ValueError naming n
    when it overflows a float."""
    try:
        k = 2.0 * (n * math.pi / length)
    except OverflowError:  # n itself is too large for a float
        k = math.inf
    if k == math.inf:
        raise ValueError(f"2 {n_name} pi / {length_name} overflows, got {n_name} = {n!r}, {length_name} = {length!r}")
    return k


class ParticleBox2D(TargetDensity):
    """Squared eigenfunction density of a particle in a 2D box.

    p(x, y) = (2/sqrt(Lx*Ly))^2 sin^2(nx pi x / Lx) sin^2(ny pi y / Ly)
    on [0, Lx] x [0, Ly]. The density has nx*ny isolated modes separated
    by zero-density nodal lines, which makes it a hard multimodal target
    for local samplers.

    The log-gradient components diverge like cot near nodal lines, so each
    is clamped to [-gmax, gmax]; clamping preserves direction and keeps the
    Euler proposal finite. Both methods take the point through ``_phases``,
    so the gradient raises exactly where the log density is -inf. The
    keyword arguments are the fields of a "particle_box" config block.
    """

    dim = 2

    def __init__(self, Lx: float, Ly: float, nx: int, ny: int, gmax: float = 1e6):
        if finite_real(Lx, "Lx") <= 0 or finite_real(Ly, "Ly") <= 0:
            raise ValueError("box side lengths must be positive")
        integer_at_least(nx, "nx", 1)
        integer_at_least(ny, "ny", 1)
        if finite_real(gmax, "gmax") <= 0:
            raise ValueError("gmax must be positive")
        self.lx = float(Lx)
        self.ly = float(Ly)
        self.nx = nx
        self.ny = ny
        self.gmax = float(gmax)
        area = self.lx * self.ly
        if not 0.0 < area < math.inf or 4.0 / area == math.inf:
            raise ValueError(f"Lx * Ly must give a finite normaliser 4 / (Lx * Ly), got Lx = {Lx!r}, Ly = {Ly!r}")
        self._log_norm = math.log(4.0 / (self.lx * self.ly))
        # d/dx log sin^2(n pi x / L) = (2 n pi / L) cot(n pi x / L), per axis
        self._kx = _wave_number(nx, self.lx, "nx", "Lx")
        self._ky = _wave_number(ny, self.ly, "ny", "Ly")

    def _phases(self, point):
        """(pi*nx*x/Lx, pi*ny*y/Ly) where the density is positive, else None."""
        x, y = point
        x, y = float(x), float(y)
        # negated, so that a NaN coordinate is outside the box too
        if not (x > 0.0 and x < self.lx and y > 0.0 and y < self.ly):
            return None
        # integer scaled coordinates (nx*x/Lx, ny*y/Ly), the box walls
        # included, are exactly where a factor sin(pi*t) vanishes: any other
        # pi*t is a positive double (pi*5e-324 is 1.5e-323), never a multiple of pi
        tx = self.nx * x / self.lx
        ty = self.ny * y / self.ly
        if tx.is_integer() or ty.is_integer():
            return None
        return pi * tx, pi * ty

    def log_density(self, point) -> float:
        phases = self._phases(point)
        if phases is None:
            return NEG_INF
        ux, uy = phases
        return self._log_norm + 2.0 * log(abs(sin(ux))) + 2.0 * log(abs(sin(uy)))

    def grad_log_density(self, point) -> list[float]:
        phases = self._phases(point)
        if phases is None:
            raise ValueError("gradient requested at a zero-density point")
        ux, uy = phases
        gmax = self.gmax
        gx = self._kx * (cos(ux) / sin(ux))
        gy = self._ky * (cos(uy) / sin(uy))
        gx = gmax if gx > gmax else -gmax if gx < -gmax else gx
        gy = gmax if gy > gmax else -gmax if gy < -gmax else gy
        return [gx, gy]

    def _axis_cell_masses(self, n: int, length: float, res: int) -> np.ndarray:
        # exact integral of (2/L) sin^2(n pi x / L) over each cell
        a = n * math.pi / length

        def antideriv(x):
            return 0.5 * x - math.sin(2.0 * a * x) / (4.0 * a)

        edges = [length * i / res for i in range(res + 1)]
        return np.array(
            [(2.0 / length) * (antideriv(edges[i + 1]) - antideriv(edges[i])) for i in range(res)]
        )

    def analytic_grid(self, res: int) -> np.ndarray:
        """Cell-averaged probability mass on a res x res partition of the box.

        Row i covers x in [i*Lx/res, (i+1)*Lx/res), column j the matching
        y strip. The density factorizes per axis, so cells are products of
        closed-form sin^2 integrals and the grid sums to 1 up to rounding.
        """
        integer_at_least(res, "grid_res", 2)
        mx = self._axis_cell_masses(self.nx, self.lx, res)
        my = self._axis_cell_masses(self.ny, self.ly, res)
        return np.outer(mx, my)

    def mode_centers(self) -> np.ndarray:
        """Centers of the nx*ny mode basins, ordered x-major."""
        xs = [(2 * i + 1) * self.lx / (2 * self.nx) for i in range(self.nx)]
        ys = [(2 * j + 1) * self.ly / (2 * self.ny) for j in range(self.ny)]
        return np.array([[x, y] for x in xs for y in ys])


class GaussianMixture(TargetDensity):
    """Diagonal-covariance Gaussian mixture used as an analytic validation target.

    Components are (weight, mean, variance) triples; weights are normalized
    at construction so tolerant inputs still satisfy the sum-to-one invariant.
    The parameters are fixed after construction: the normalizers are computed
    once from them. A point's log density and gradient are computed together
    and the last point's are kept, so the gradient that follows a log density
    at the same point (and the log density closing an HMC trajectory) is free.

    Several components are evaluated in Python floats with ``math.exp``,
    ``math.log`` and left-to-right sums, and one component's quadratic form
    is ``np.add.reduce`` of an exact product: no BLAS call, SIMD-dispatched
    ``np.exp``/``np.log`` or builtin ``sum``, so the bits depend neither on
    the kernels numpy and its BLAS pick nor on the Python version.
    """

    def __init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        for i, c in enumerate(components):
            if not isinstance(c, (tuple, list)) or len(c) != 3:
                raise ValueError(f"component {i} must be a (weight, mean, variance) triple, got {c!r}")
        weights = np.array([finite_real(c[0], f"component {i} weight") for i, c in enumerate(components)])
        means = [finite_vector(c[1], f"component {i} mean") for i, c in enumerate(components)]
        variances = [finite_vector(c[2], f"component {i} variance") for i, c in enumerate(components)]
        dim = means[0].size
        for i, (mean, variance) in enumerate(zip(means, variances)):
            if not mean.size:
                raise ValueError(f"component {i} mean is empty")
            for vector, what in ((mean, "mean"), (variance, "variance")):
                if vector.size != dim:
                    raise ValueError(f"component {i} {what} has length {vector.size}, component 0 mean has length {dim}")
        means = np.array(means)
        variances = np.array(variances)
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if np.any(variances <= 0):
            raise ValueError("component variances must be positive")
        with np.errstate(over="ignore"):  # an overflowing sum raises this, not a numpy warning
            if weights.sum() == math.inf:
                raise ValueError(f"component weights must have a finite sum, got {weights.tolist()!r}")
        self.weights = weights / weights.sum()
        for i, w in enumerate(self.weights.tolist()):
            if w == 0.0:
                raise ValueError(f"component {i} weight {weights[i].item()!r} normalizes to 0")
        self.means = means
        self.variances = variances
        self.dim = dim
        # per component: log weight plus Gaussian normalizer, then the mean
        # and variance as float lists
        self._components = [
            (math.log(w) - 0.5 * _sum(math.log(2.0 * math.pi * v) for v in var), mean, var)
            for w, mean, var in zip(self.weights.tolist(), means.tolist(), variances.tolist())
        ]
        self._format = f"{dim}d"
        self._last_key = None
        self._last = None

    def _evaluate(self, point) -> tuple:
        """(log density, gradient) at a point; the gradient is None where the
        log density is -inf (every quadratic form overflowed). The last result
        is kept under the point's float64 bytes, packed (a third of numpy's
        time on a list), so a caller that changes its point only misses."""
        try:
            key = struct.pack(self._format, *point)
        except (struct.error, TypeError):
            raise ValueError(f"point has dimension {np.shape(point)}, target expects ({self.dim},)") from None
        if key != self._last_key:
            point = np.frombuffer(key)
            self._last = self._single(point) if len(self._components) == 1 else self._mixture(point)
            self._last_key = key
        return self._last

    def _single(self, point: np.ndarray) -> tuple:
        diff = point - self.means[0]
        scaled = diff / self.variances[0]
        q = float(np.add.reduce(scaled * diff))
        if q == math.inf:
            return NEG_INF, None
        return self._components[0][0] - 0.5 * q, (-scaled).tolist()

    def _mixture(self, point: np.ndarray) -> tuple:
        x = point.tolist()
        scaled = []  # (point - mean_k) / variance_k per component
        logs = []
        for coef, mean, var in self._components:
            diff = list(map(sub, x, mean))
            s = list(map(truediv, diff, var))
            scaled.append(s)
            logs.append(coef - 0.5 * _sum(map(mul, diff, s)))
        shift = max(logs)
        if shift == NEG_INF:
            return NEG_INF, None
        exps = [math.exp(v - shift) for v in logs]
        total = _sum(exps)
        # -sum_k resp_k * scaled_k, one component at a time
        grad = [0.0] * self.dim
        for e, s in zip(exps, scaled):
            r = e / total
            grad = [g - r * v for g, v in zip(grad, s)]
        return shift + math.log(total), grad

    def log_density(self, point) -> float:
        return self._evaluate(point)[0]

    def grad_log_density(self, point) -> list[float]:
        grad = self._evaluate(point)[1]
        if grad is None:
            raise ValueError("gradient requested at a zero-density point")
        return list(grad)  # a new list: the caller owns it, the memo keeps its own


def standard_normal(dim: int = 1) -> GaussianMixture:
    """Unit-variance zero-mean Gaussian as a one-component mixture."""
    return GaussianMixture([(1.0, np.zeros(dim), np.ones(dim))])


def _check_fields(block: dict, what: str, required: tuple, optional: tuple = ()):
    """Reject a config block with a missing or an unknown field, naming it."""
    for key in required:
        if key not in block:
            raise ValueError(f"{what} is missing field {key!r}")
    for key in block:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has unknown field {key!r}")


def check_dataclass_fields(block: dict, what: str, cls) -> None:
    """_check_fields for the keyword arguments of dataclass cls: a field
    with no default is required."""
    names = tuple(f.name for f in fields(cls))
    required = tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    _check_fields(block, what, required, names)


def make_target(name: str, params: dict) -> TargetDensity:
    """Build a target from its config block (the "name" field is optional)."""
    if name == "particle_box":
        _check_fields(params, "particle_box target", ("Lx", "Ly", "nx", "ny"), ("name", "gmax"))
        return ParticleBox2D(**{key: value for key, value in params.items() if key != "name"})
    if name == "gauss_mix":
        _check_fields(params, "gauss_mix target", ("components",), ("name",))
        components = params["components"]
        if not isinstance(components, list):
            raise ValueError(f"gauss_mix field 'components' must be a list of JSON objects, got {components!r}")
        for i, c in enumerate(components):
            if not isinstance(c, dict):
                raise ValueError(f"gauss_mix component {i} must be a JSON object, got {c!r}")
            _check_fields(c, f"gauss_mix component {i}", ("weight", "mean", "variance"))
        return GaussianMixture([(c["weight"], c["mean"], c["variance"]) for c in components])
    raise ValueError(f"unknown target: {name!r}")
