"""Chain quality metrics: autocorrelation, ESS, TV distance, mode coverage.

The autocorrelation uses the biased fixed-mean normalization, computed via
FFT (validated against the O(n^2) definition sum in the tests). ESS uses
the initial-positive-sequence truncation: lags are summed through the first
lag K where rho(K) + rho(K+1) turns negative.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .targets import NEG_INF, ParticleBox2D, TargetDensity, integer_at_least


def autocorrelation(series) -> np.ndarray:
    """rho(k) for k = 0..n-1 of an n-point series; rho(0) is exactly 1.

    A constant series raises, found by equality since its float mean can
    round off the value; so does one whose centred sum of squares is 0.
    That sum is numpy's pairwise reduction, not a BLAS dot: the ACF makes no
    BLAS call, so it wakes no BLAS thread beside a serial run. It is centred
    into half of one zeroed 2n buffer, so rfft makes no zero-padded copy.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("series must have at least 2 points")
    buf = np.zeros(2 * n)
    xc = np.subtract(x, x.mean(), out=buf[:n])
    if np.add.reduce(xc * xc) == 0.0 or np.all(x == x[0]):
        raise ValueError("series is constant or has zero variance; autocorrelation undefined")
    del xc
    f = np.fft.rfft(buf)
    del buf
    power = f * np.conj(f)
    del f
    acov = np.fft.irfft(power)[:n]
    rho = acov / acov[0]
    rho[0] = 1.0
    return rho


def ess(series) -> float:
    """Effective sample size, clamped to (0, n]."""
    return _ess_from_acf(autocorrelation(series))


def _ess_from_acf(rho: np.ndarray) -> float:
    """ess of an n-point series from its full autocorrelation rho[0..n-1]."""
    n = rho.shape[0]
    pair = rho[1:-1] + rho[2:]
    negative = np.nonzero(pair < 0.0)[0]
    cutoff = int(negative[0]) + 1 if negative.size else n - 1
    denom = 1.0 + 2.0 * float(rho[1 : cutoff + 1].sum())
    if denom <= 0.0:
        return float(n)
    return float(min(n, n / denom))


def _box_cells(pts: np.ndarray, box: ParticleBox2D, kx: int, ky: int) -> np.ndarray:
    """Flat x-major index of each sample's cell in the kx x ky partition of
    the box, analytic_grid's layout. A sample outside the box violates the
    chain invariant (the chain can never occupy a zero-density point) and raises.
    """
    ix = np.floor(pts[:, 0] / box.lx * kx).astype(int)
    iy = np.floor(pts[:, 1] / box.ly * ky).astype(int)
    if np.any((ix < 0) | (ix >= kx) | (iy < 0) | (iy >= ky)):
        raise ValueError("sample outside the box: chain invariant violated")
    return ix * ky + iy


def histogram2d(samples, box: ParticleBox2D, res: int) -> np.ndarray:
    """Normalized res x res counts over the box, same layout as analytic_grid;
    a sample outside the box raises."""
    integer_at_least(res, "grid_res", 2)
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("samples must be a nonempty n x 2 matrix")
    counts = np.bincount(_box_cells(pts, box, res, res), minlength=res * res).reshape(res, res)
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
    A sample outside the box raises.
    """
    pts = np.asarray(samples, dtype=float)
    n_basins = box.nx * box.ny
    if pts.size == 0:
        return 0.0
    counts = np.bincount(_box_cells(pts, box, box.nx, box.ny), minlength=n_basins)
    threshold = math.ceil(0.01 * pts.shape[0] / n_basins)
    return float((counts >= threshold).sum() / n_basins)


def empirical_fisher(scores) -> np.ndarray:
    """Monte Carlo estimate of E[score score^T] from the scores (log-density
    gradients) at samples of the target, one row per sample; no run calls it."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError("scores must be a nonempty n x d matrix")
    return scores.T @ scores / scores.shape[0]


@dataclass
class DiagnosticsReport:
    """Per-chain evaluation summary (Nones mark fields not defined for the target)."""

    acf: np.ndarray
    ess: np.ndarray
    acceptance_rate: float
    wall_time_s: float
    tv_distance: float | None = None
    mode_coverage: float | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "acf": self.acf.tolist(), "ess": self.ess.tolist()}


def build_report(chain, target: TargetDensity, grid_res: int = 32, max_lag: int = 200) -> DiagnosticsReport:
    """Assemble the full report for one finished chain.

    A dimension in which the chain never moved has ACF 1 at every lag.
    """
    integer_at_least(max_lag, "max_lag", 0)
    integer_at_least(grid_res, "grid_res", 2)
    samples = chain.samples
    n, d = samples.shape
    if np.any(chain.log_ps == NEG_INF):
        raise ValueError("chain occupies a zero-density point: invariant violated")
    if n < 2:
        raise ValueError("a report needs at least 2 samples")
    # one full-length ACF per dimension serves the reported lags and the
    # ESS; each is freed before the next is computed
    acf = np.empty((d, min(max_lag, n - 1) + 1))
    ess_vec = np.empty(d)
    for j in range(d):
        column = samples[:, j]
        rho = np.ones(n) if np.all(column == column[0]) else autocorrelation(column)
        acf[j] = rho[: acf.shape[1]]
        ess_vec[j] = _ess_from_acf(rho)
        del rho
    tv = coverage = None
    if isinstance(target, ParticleBox2D):
        hist = histogram2d(samples, target, grid_res)
        tv = tv_distance(hist, target.analytic_grid(grid_res))
        coverage = mode_coverage(samples, target)
    return DiagnosticsReport(
        acf=acf,
        ess=ess_vec,
        acceptance_rate=chain.acceptance_rate,
        wall_time_s=float(chain.meta.get("wall_time_s", 0.0)),
        tv_distance=tv,
        mode_coverage=coverage,
    )
