"""Target densities: the 2D particle-in-a-box benchmark and Gaussian mixtures.

Every target follows the TargetDensity contract. Zero-density regions are
encoded as a -inf log density rather than an error so the
Metropolis-Hastings step rejects such proposals naturally.
"""

import math

import numpy as np

NEG_INF = float("-inf")


class TargetDensity:
    """Interface shared by all targets: log density and its gradient.

    A point is any length-``dim`` sequence of floats (a numpy vector or a
    list). ``log_density`` returns a float that may be -inf at zero-density
    points, never +inf and never NaN for finite points.
    ``grad_log_density`` returns a numpy vector and raises ``ValueError``
    exactly where ``log_density`` is -inf. HMC's leapfrog relies on that:
    it evaluates only the gradient along a trajectory and treats the
    ``ValueError`` as a divergence.

    ``grad_log_density_rows`` is the gradient of each row of an (n, dim)
    matrix. The default loops over ``grad_log_density``; a target may
    override it with one vectorized pass for speed, under the same
    contract: it raises ``ValueError`` if any row has zero density.
    """

    name = "target"
    dim = 0

    def log_density(self, point) -> float:
        raise NotImplementedError

    def grad_log_density(self, point) -> np.ndarray:
        raise NotImplementedError

    def grad_log_density_rows(self, points) -> np.ndarray:
        pts = self._check_rows(points)
        grads = np.empty(pts.shape)
        for i in range(pts.shape[0]):
            grads[i] = self.grad_log_density(pts[i])
        return grads

    def _check_rows(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points have shape {pts.shape}, target expects (n, {self.dim})")
        return pts


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

    name = "particle_box"
    dim = 2

    def __init__(self, lx: float, ly: float, nx: int, ny: int, gmax: float = 1e6):
        if lx <= 0 or ly <= 0:
            raise ValueError("box side lengths must be positive")
        if nx < 1 or ny < 1 or nx != int(nx) or ny != int(ny):
            raise ValueError("quantum numbers must be integers >= 1")
        if gmax <= 0:
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

    def _scaled_position(self, point) -> tuple[float, float] | None:
        """Scaled coordinates (nx*x/Lx, ny*y/Ly) of a point strictly inside the
        box and off the nodal lines, else None.

        Integer scaled coordinates (including the box walls) are exactly where
        a standing-wave factor sin(pi*t) vanishes.
        """
        x = float(point[0])
        y = float(point[1])
        if x <= 0.0 or x >= self.lx or y <= 0.0 or y >= self.ly:
            return None
        tx = self.nx * x / self.lx
        ty = self.ny * y / self.ly
        if tx == math.floor(tx) or ty == math.floor(ty):
            return None
        return tx, ty

    def log_density(self, point) -> float:
        t = self._scaled_position(point)
        if t is None:
            return NEG_INF
        sx = math.sin(math.pi * t[0])
        sy = math.sin(math.pi * t[1])
        if sx == 0.0 or sy == 0.0:
            return NEG_INF
        return self._log_norm + 2.0 * math.log(abs(sx)) + 2.0 * math.log(abs(sy))

    def grad_log_density(self, point) -> np.ndarray:
        t = self._scaled_position(point)
        if t is None:
            raise ValueError("gradient requested at a zero-density point")
        ux = math.pi * t[0]
        uy = math.pi * t[1]
        sx = math.sin(ux)
        sy = math.sin(uy)
        if sx == 0.0 or sy == 0.0:
            raise ValueError("gradient requested at a zero-density point")
        gmax = self.gmax
        gx = self._kx * (math.cos(ux) / sx)
        gy = self._ky * (math.cos(uy) / sy)
        gx = gmax if gx > gmax else -gmax if gx < -gmax else gx
        gy = gmax if gy > gmax else -gmax if gy < -gmax else gy
        return np.array([gx, gy])

    def grad_log_density_rows(self, points) -> np.ndarray:
        """grad_log_density of every row in one numpy pass.

        Each zero-density test runs before the values it guards are
        computed, so no row divides by zero or overflows.
        """
        pts = self._check_rows(points)
        if np.any((pts <= 0.0) | (pts >= [self.lx, self.ly])):
            raise ValueError("gradient requested at a zero-density point")
        t = pts * [self.nx, self.ny] / [self.lx, self.ly]
        if np.any(t == np.floor(t)):
            raise ValueError("gradient requested at a zero-density point")
        u = math.pi * t
        s = np.sin(u)
        if np.any(s == 0.0):
            raise ValueError("gradient requested at a zero-density point")
        return np.clip([self._kx, self._ky] * (np.cos(u) / s), -self.gmax, self.gmax)

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

    def first_mode_center(self) -> np.ndarray:
        return np.array([self.lx / (2 * self.nx), self.ly / (2 * self.ny)])


class GaussianMixture(TargetDensity):
    """Diagonal-covariance Gaussian mixture used as an analytic validation target.

    Components are (weight, mean, variance) triples; weights are normalized
    at construction so tolerant inputs still satisfy the sum-to-one invariant.
    """

    name = "gauss_mix"

    def __init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([float(c[0]) for c in components])
        means = np.array([np.asarray(c[1], dtype=float).ravel() for c in components])
        variances = np.array([np.asarray(c[2], dtype=float).ravel() for c in components])
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if np.any(variances <= 0):
            raise ValueError("component variances must be positive")
        if means.shape != variances.shape:
            raise ValueError("mean/variance dimensions disagree")
        self.weights = weights / weights.sum()
        self.means = means
        self.variances = variances
        self.dim = means.shape[1]
        self._log_weights = np.log(self.weights)
        # per-component Gaussian normalization constants
        self._log_norms = -0.5 * np.sum(np.log(2.0 * math.pi * variances), axis=1)

    def _check_point(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point has dimension {point.shape}, target expects ({self.dim},)")
        return point

    def _component_log_densities(self, point: np.ndarray) -> np.ndarray:
        """Per-component log terms; a (n, 1, dim) stack of points gives (n, components)."""
        diff = point - self.means
        return self._log_weights + self._log_norms - 0.5 * np.sum(diff * diff / self.variances, axis=-1)

    def log_density(self, point) -> float:
        point = self._check_point(point)
        if len(self.weights) == 1:
            diff = point - self.means[0]
            return float(self._log_norms[0] - 0.5 * np.dot(diff / self.variances[0], diff))
        logs = self._component_log_densities(point)
        shift = logs.max()
        if shift == NEG_INF:  # every quadratic form overflowed
            return NEG_INF
        return float(shift + math.log(np.exp(logs - shift).sum()))

    def grad_log_density(self, point) -> np.ndarray:
        point = self._check_point(point)
        if len(self.weights) == 1:
            diff = point - self.means[0]
            scaled = diff / self.variances[0]
            if np.dot(scaled, diff) == math.inf:  # where log_density is -inf
                raise ValueError("gradient requested at a zero-density point")
            return -scaled
        logs = self._component_log_densities(point)
        shift = logs.max()
        if shift == NEG_INF:
            raise ValueError("gradient requested at a zero-density point")
        resp = np.exp(logs - shift)
        resp /= resp.sum()
        scores = -(point - self.means) / self.variances
        return resp @ scores

    def grad_log_density_rows(self, points) -> np.ndarray:
        """grad_log_density of every row in one numpy pass, with the same
        arithmetic per row as the one-point path."""
        pts = self._check_rows(points)
        diff = pts[:, None, :] - self.means  # (n, components, dim)
        scaled = diff / self.variances
        if len(self.weights) == 1:
            if np.any(np.sum(scaled * diff, axis=2) == math.inf):
                raise ValueError("gradient requested at a zero-density point")
            return -scaled[:, 0]
        logs = self._component_log_densities(pts[:, None, :])
        shift = logs.max(axis=1, keepdims=True)
        if np.any(shift == NEG_INF):
            raise ValueError("gradient requested at a zero-density point")
        resp = np.exp(logs - shift)
        resp /= resp.sum(axis=1, keepdims=True)
        return (resp[:, None, :] @ -scaled)[:, 0]


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
