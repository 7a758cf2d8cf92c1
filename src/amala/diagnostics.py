"""Chain quality metrics: autocorrelation, ESS, TV distance, mode coverage.

The autocorrelation uses the biased fixed-mean normalization, computed via
FFT (validated against the O(n^2) definition sum in the tests). ESS uses
the initial-positive-sequence truncation: lags are summed through the first
lag K where rho(K) + rho(K+1) turns negative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import NEG_INF, ParticleBox2D, TargetDensity


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """rho(k) for k = 0..max_lag; rho(0) is exactly 1.

    Constant series have zero variance and no autocorrelation; they raise.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("series must have at least 2 points")
    if not 0 <= max_lag < n:
        raise ValueError("max_lag must satisfy 0 <= max_lag < n")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation undefined")
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1]
    rho = acov / acov[0]
    rho[0] = 1.0
    return rho


def ess(series) -> float:
    """Effective sample size, clamped to (0, n]."""
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    rho = autocorrelation(x, n - 1)
    pair = rho[1:-1] + rho[2:]
    negative = np.nonzero(pair < 0.0)[0]
    cutoff = int(negative[0]) + 1 if negative.size else n - 1
    denom = 1.0 + 2.0 * float(rho[1 : cutoff + 1].sum())
    if denom <= 0.0:
        return float(n)
    return float(min(n, n / denom))


def histogram2d(samples, box: ParticleBox2D, res: int) -> np.ndarray:
    """Normalized res x res counts over the box, same layout as analytic_grid.

    A sample outside the box violates the chain invariant (the chain can
    never occupy a zero-density point) and raises.
    """
    if res < 2:
        raise ValueError("grid resolution must be at least 2")
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("samples must be a nonempty n x 2 matrix")
    ix = np.floor(pts[:, 0] / box.lx * res).astype(int)
    iy = np.floor(pts[:, 1] / box.ly * res).astype(int)
    if np.any((ix < 0) | (ix >= res) | (iy < 0) | (iy >= res)):
        raise ValueError("sample outside the box: chain invariant violated")
    counts = np.bincount(ix * res + iy, minlength=res * res).reshape(res, res)
    return counts / pts.shape[0]


def tv_distance(grid_a, grid_b) -> float:
    """Half the L1 distance between two normalized mass grids."""
    a = np.asarray(grid_a, dtype=float)
    b = np.asarray(grid_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("grids must have the same shape")
    for g in (a, b):
        if abs(g.sum() - 1.0) > 1e-6:
            raise ValueError("grid is not normalized")
    return float(min(1.0, max(0.0, 0.5 * np.abs(a - b).sum())))


def mode_coverage(samples, box: ParticleBox2D) -> float:
    """Fraction of the nx*ny mode basins holding at least 1% of their fair share.

    Basins are the uniform nx x ny partition of the box; for the squared
    eigenfunction density the nodal lines are exactly the basin boundaries.
    """
    pts = np.asarray(samples, dtype=float)
    n_basins = box.nx * box.ny
    if pts.size == 0:
        return 0.0
    bx = np.floor(pts[:, 0] / box.lx * box.nx).astype(int)
    by = np.floor(pts[:, 1] / box.ly * box.ny).astype(int)
    inside = (bx >= 0) & (bx < box.nx) & (by >= 0) & (by < box.ny)
    counts = np.bincount(bx[inside] * box.ny + by[inside], minlength=n_basins)
    threshold = math.ceil(0.01 * pts.shape[0] / n_basins)
    return float((counts >= threshold).sum() / n_basins)


def empirical_fisher(target: TargetDensity, samples) -> np.ndarray:
    """Monte Carlo estimate of E[score score^T] from samples of the target.

    The scores come from one ``grad_log_density_rows`` call over all the
    samples, which raises ``ValueError`` if any sample has zero density.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("samples must be a nonempty n x d matrix")
    scores = target.grad_log_density_rows(pts)
    return scores.T @ scores / pts.shape[0]


@dataclass
class DiagnosticsReport:
    """Per-chain evaluation summary (Nones mark fields not defined for the target)."""

    acf: np.ndarray
    ess: np.ndarray
    acceptance_rate: float
    wall_time_s: float
    tv_distance: float | None = None
    mode_coverage: float | None = None
    fisher_trace: float | None = None

    def to_dict(self) -> dict:
        return {
            "acf": [[float(v) for v in row] for row in self.acf],
            "ess": [float(v) for v in self.ess],
            "acceptance_rate": float(self.acceptance_rate),
            "wall_time_s": float(self.wall_time_s),
            "tv_distance": None if self.tv_distance is None else float(self.tv_distance),
            "mode_coverage": None if self.mode_coverage is None else float(self.mode_coverage),
            "fisher_trace": None if self.fisher_trace is None else float(self.fisher_trace),
        }


def build_report(chain, target: TargetDensity, grid_res: int = 32, max_lag: int = 200) -> DiagnosticsReport:
    """Assemble the full report for one finished chain."""
    samples = chain.samples
    n, d = samples.shape
    if np.any(chain.log_ps == NEG_INF):
        raise ValueError("chain occupies a zero-density point: invariant violated")
    lag = min(max_lag, n - 1)
    acf = np.vstack([autocorrelation(samples[:, j], lag) for j in range(d)])
    ess_vec = np.array([ess(samples[:, j]) for j in range(d)])
    tv = coverage = None
    if isinstance(target, ParticleBox2D):
        hist = histogram2d(samples, target, grid_res)
        tv = tv_distance(hist, target.analytic_grid(grid_res))
        coverage = mode_coverage(samples, target)
    fisher_trace = float(np.trace(empirical_fisher(target, samples)))
    return DiagnosticsReport(
        acf=acf,
        ess=ess_vec,
        acceptance_rate=chain.acceptance_rate,
        wall_time_s=float(chain.meta.get("wall_time_s", 0.0)),
        tv_distance=tv,
        mode_coverage=coverage,
        fisher_trace=fisher_trace,
    )
