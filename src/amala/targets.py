"""Target densities: the 2D particle-in-a-box benchmark and Gaussian mixtures.

Every target follows the TargetDensity contract. Zero-density regions are
encoded as a -inf log density rather than an error so the
Metropolis-Hastings step rejects such proposals naturally.
"""

import math
from numbers import Real

import numpy as np

NEG_INF = float("-inf")


def finite_real(value, what: str) -> float:
    """value as a float; a bool, a non-number, NaN or infinity raises ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _finite_vector(values, what: str) -> np.ndarray:
    # dtype=object keeps each element's own type: a bool among floats is still seen
    return np.array([finite_real(v, what) for v in np.asarray(values, dtype=object).ravel()])


class TargetDensity:
    """Interface shared by all targets: log density and its gradient.

    A point is any length-``dim`` sequence of floats (a numpy vector or a
    list). ``log_density`` returns a float that may be -inf at zero-density
    points, never +inf and never NaN for finite points.
    ``grad_log_density`` returns a length-``dim`` sequence of floats (a
    list or a numpy vector) and raises ``ValueError`` exactly where
    ``log_density`` is -inf. HMC's leapfrog relies on that: it evaluates
    only the gradient along a trajectory and treats the ``ValueError`` as
    a divergence. Leapfrog passes its own working position list and
    changes it after the call, so a target must not keep the point. It may
    memoize by value: results kept under a copy of the point's float64
    bytes are safe, as the caller's object is never read again.
    """

    dim = 0

    def log_density(self, point) -> float:
        raise NotImplementedError

    def grad_log_density(self, point):
        raise NotImplementedError


class ParticleBox2D(TargetDensity):
    """Squared eigenfunction density of a particle in a 2D box.

    p(x, y) = (2/sqrt(Lx*Ly))^2 sin^2(nx pi x / Lx) sin^2(ny pi y / Ly)
    on [0, Lx] x [0, Ly]. The density has nx*ny isolated modes separated
    by zero-density nodal lines, which makes it a hard multimodal target
    for local samplers.

    The log-gradient components diverge like cot near nodal lines, so each
    is clamped to [-gmax, gmax]; clamping preserves direction and keeps the
    Euler proposal finite.
    """

    dim = 2

    def __init__(self, lx: float, ly: float, nx: int, ny: int, gmax: float = 1e6):
        if finite_real(lx, "Lx") <= 0 or finite_real(ly, "Ly") <= 0:
            raise ValueError("box side lengths must be positive")
        for value, what in ((nx, "nx"), (ny, "ny")):
            if finite_real(value, what) < 1 or value != int(value):
                raise ValueError("quantum numbers must be integers >= 1")
        if finite_real(gmax, "gmax") <= 0:
            raise ValueError("gmax must be positive")
        self.lx = float(lx)
        self.ly = float(ly)
        self.nx = int(nx)
        self.ny = int(ny)
        self.gmax = float(gmax)
        self._log_norm = math.log(4.0 / (self.lx * self.ly))
        # d/dx log sin^2(n pi x / L) = (2 n pi / L) cot(n pi x / L), per axis
        self._kx = 2.0 * (self.nx * math.pi / self.lx)
        self._ky = 2.0 * (self.ny * math.pi / self.ly)

    def log_density(self, point) -> float:
        x = float(point[0])
        y = float(point[1])
        if x <= 0.0 or x >= self.lx or y <= 0.0 or y >= self.ly:
            return NEG_INF
        # integer scaled coordinates (nx*x/Lx, ny*y/Ly), the box walls
        # included, are exactly where a factor sin(pi*t) vanishes
        tx = self.nx * x / self.lx
        ty = self.ny * y / self.ly
        if tx == math.floor(tx) or ty == math.floor(ty):
            return NEG_INF
        sx = math.sin(math.pi * tx)
        sy = math.sin(math.pi * ty)
        if sx == 0.0 or sy == 0.0:
            return NEG_INF
        return self._log_norm + 2.0 * math.log(abs(sx)) + 2.0 * math.log(abs(sy))

    def grad_log_density(self, point) -> list[float]:
        x = float(point[0])
        y = float(point[1])
        if x <= 0.0 or x >= self.lx or y <= 0.0 or y >= self.ly:
            raise ValueError("gradient requested at a zero-density point")
        tx = self.nx * x / self.lx
        ty = self.ny * y / self.ly
        if tx == math.floor(tx) or ty == math.floor(ty):
            raise ValueError("gradient requested at a zero-density point")
        ux = math.pi * tx
        uy = math.pi * ty
        sx = math.sin(ux)
        sy = math.sin(uy)
        if sx == 0.0 or sy == 0.0:
            raise ValueError("gradient requested at a zero-density point")
        gmax = self.gmax
        gx = self._kx * (math.cos(ux) / sx)
        gy = self._ky * (math.cos(uy) / sy)
        gx = gmax if gx > gmax else -gmax if gx < -gmax else gx
        gy = gmax if gy > gmax else -gmax if gy < -gmax else gy
        return [gx, gy]

    def energy(self) -> float:
        """Energy of the (nx, ny) eigenstate in model units (hbar = m = rho = 1),
        (nx^2/Lx^2 + ny^2/Ly^2) / 2; reporting metadata only."""
        return 0.5 * (self.nx**2 / self.lx**2 + self.ny**2 / self.ly**2)

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
        if res < 2:
            raise ValueError("grid resolution must be at least 2")
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
    once from them. With several components, ``log_density`` and
    ``grad_log_density`` share the last point's component terms, memoized by
    the point's float64 bytes, so the gradient that follows a log density at
    the same point (and the log density at the end of an HMC trajectory)
    does not compute them again.
    """

    def __init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([finite_real(c[0], f"component {i} weight") for i, c in enumerate(components)])
        means = [_finite_vector(c[1], f"component {i} mean") for i, c in enumerate(components)]
        variances = [_finite_vector(c[2], f"component {i} variance") for i, c in enumerate(components)]
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
        self.weights = weights / weights.sum()
        self.means = means
        self.variances = variances
        self.dim = dim
        # per-component Gaussian normalization constants
        self._log_norms = -0.5 * np.sum(np.log(2.0 * math.pi * variances), axis=1)
        # log weight plus normalizer: the first add of each component's log density
        self._log_coefs = np.log(self.weights) + self._log_norms
        self._last_key = None
        self._last_terms = None

    def _check_point(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point has dimension {point.shape}, target expects ({self.dim},)")
        return point

    def _terms(self, point: np.ndarray):
        """(diff, shift, exps, total) at a checked point of a multi-component
        mixture: diff = point - means, shift the largest component log density,
        exps = exp(logs - shift) and total their sum (both None where every
        quadratic form overflowed). The last result is kept under the point's
        bytes, a copy, so a caller that changes its point afterwards only
        misses; the cached arrays are never changed or handed out.
        """
        key = point.tobytes()
        if key != self._last_key:
            diff = point - self.means
            logs = self._log_coefs - 0.5 * np.add.reduce(diff * diff / self.variances, axis=1)
            shift = np.maximum.reduce(logs)
            exps = total = None
            if shift != NEG_INF:
                exps = np.exp(logs - shift)
                total = np.add.reduce(exps)
            self._last_key = key
            self._last_terms = (diff, shift, exps, total)
        return self._last_terms

    def log_density(self, point) -> float:
        point = self._check_point(point)
        if len(self.weights) == 1:
            diff = point - self.means[0]
            return float(self._log_norms[0] - 0.5 * np.dot(diff / self.variances[0], diff))
        _, shift, _, total = self._terms(point)
        if total is None:  # every quadratic form overflowed
            return NEG_INF
        return float(shift + math.log(total))

    def grad_log_density(self, point) -> np.ndarray:
        point = self._check_point(point)
        if len(self.weights) == 1:
            diff = point - self.means[0]
            scaled = diff / self.variances[0]
            if np.dot(scaled, diff) == math.inf:  # where log_density is -inf
                raise ValueError("gradient requested at a zero-density point")
            return -scaled
        diff, _, exps, total = self._terms(point)
        if total is None:
            raise ValueError("gradient requested at a zero-density point")
        return (exps / total) @ (-diff / self.variances)


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


def make_target(name: str, params: dict) -> TargetDensity:
    """Build a target from its config block (the "name" field is optional)."""
    if name == "particle_box":
        _check_fields(params, "particle_box target", ("Lx", "Ly", "nx", "ny"), ("name", "gmax"))
        return ParticleBox2D(params["Lx"], params["Ly"], params["nx"], params["ny"], params.get("gmax", 1e6))
    if name == "gauss_mix":
        _check_fields(params, "gauss_mix target", ("components",), ("name",))
        for i, c in enumerate(params["components"]):
            _check_fields(c, f"gauss_mix component {i}", ("weight", "mean", "variance"))
        return GaussianMixture([(c["weight"], c["mean"], c["variance"]) for c in params["components"]])
    raise ValueError(f"unknown target: {name!r}")
