"""Output check and metric extraction from the files `amala compare` writes.

Everything here reads the artifacts of one finished command: the manifest,
the chain CSVs, the per-chain ``*_diag.json`` reports and
``comparison.csv``. A run whose artifacts are missing, do not match their
manifest hashes or break a chain invariant raises ``OutputError``.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import mixture_moments


class OutputError(Exception):
    """An artifact is missing or corrupt, or a sample breaks a chain invariant."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ess_ips(series) -> float:
    """Initial-positive-sequence ESS of one series, clamped to (0, n].

    Autocorrelations are summed through the first lag K at which
    rho(K) + rho(K+1) turns negative, the same estimator amala reports.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    if acov[0] <= 0.0:
        raise OutputError("constant series: ESS undefined")
    rho = acov / acov[0]
    pair = rho[1:-1] + rho[2:]
    negative = np.nonzero(pair < 0.0)[0]
    cutoff = int(negative[0]) + 1 if negative.size else n - 1
    denom = 1.0 + 2.0 * float(rho[1 : cutoff + 1].sum())
    return float(n) if denom <= 0.0 else float(min(n, n / denom))


def expected_files(config: dict) -> tuple[set, set]:
    """(hashed files, unhashed reports) a compare run of this config must list."""
    box = config["target"]["name"] == "particle_box"
    hashed, reports = set(), {"comparison.csv"}
    for s in config["samplers"]:
        for k in range(config["chains"]):
            stem = f"{s['name']}_chain{k}"
            hashed |= {f"{stem}.csv", f"{stem}_acf.csv"}
            if box:
                hashed.add(f"{stem}_hist.csv")
            reports.add(f"{stem}_diag.json")
    if box:
        hashed.add("target_grid.csv")
    return hashed, reports


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc


def check_manifest(out_dir: Path, config: dict) -> dict:
    """Verify that every expected file is listed, exists and matches its hash.

    Returns the {file name: sha256} map of the hashed files.
    """
    manifest = _load_json(out_dir / "manifest.json")
    hashed, reports = expected_files(config)
    files = manifest.get("files", {})
    if set(files) != hashed:
        raise OutputError(f"manifest lists {sorted(set(files) ^ hashed)} unexpectedly")
    if set(manifest.get("reports", [])) != reports:
        raise OutputError("manifest report list does not match the config")
    for name in reports:
        if not (out_dir / name).is_file():
            raise OutputError(f"{name} is missing")
    for name, digest in files.items():
        path = out_dir / name
        if not path.is_file():
            raise OutputError(f"{name} is missing")
        if sha256(path) != digest:
            raise OutputError(f"{name} does not match its manifest hash")
    return dict(files)


def read_chain_csv(path: Path, config: dict) -> np.ndarray:
    """Samples (n x d) of one chain CSV after checking every row.

    Rows must be numbered burn_in+1..burn_in+n, every coordinate and log_p
    finite, ``accepted`` 0 or 1 and, on the box, every sample strictly
    inside it.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    d = len(header) - 3
    if d < 1 or header != ["step"] + [f"x{j}" for j in range(d)] + ["log_p", "accepted"]:
        raise OutputError(f"{path.name}: bad header")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    n, burn_in = config["n"], config["burn_in"]
    if rows.shape != (n, d + 3):
        raise OutputError(f"{path.name}: expected {n} rows of {d + 3} fields, got {rows.shape}")
    if not np.array_equal(rows[:, 0], np.arange(burn_in + 1, burn_in + n + 1)):
        raise OutputError(f"{path.name}: step column is not burn_in+1..burn_in+n")
    if not np.all(np.isfinite(rows[:, 1:-1])):
        raise OutputError(f"{path.name}: non-finite sample or log_p")
    if not np.all((rows[:, -1] == 0) | (rows[:, -1] == 1)):
        raise OutputError(f"{path.name}: accepted column is not 0/1")
    samples = rows[:, 1 : d + 1]
    target = config["target"]
    if target["name"] == "particle_box":
        x, y = samples[:, 0], samples[:, 1]
        inside = (x > 0) & (x < target["Lx"]) & (y > 0) & (y < target["Ly"])
        if d != 2 or not np.all(inside):
            raise OutputError(f"{path.name}: sample outside the box")
    return samples


def read_comparison(path: Path, samplers: list) -> dict:
    """{sampler: {"min_ess": float, "acceptance_rate": float}} from comparison.csv."""
    with open(path, newline="") as fh:
        rows = {r.get("sampler"): r for r in csv.DictReader(fh)}
    if sorted(rows, key=str) != sorted(samplers):
        raise OutputError("comparison.csv does not list one row per sampler")
    try:
        return {s: {c: float(r[c]) for c in ("min_ess", "acceptance_rate")} for s, r in rows.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise OutputError(f"comparison.csv: {exc!r}") from exc


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise OutputError(f"{what} is not a finite number")
    return float(value)


def x2_bias(chains: list, exact_x2: np.ndarray) -> tuple[float, float]:
    """|pooled E[x^2] - exact| and its ESS-based Monte Carlo standard error.

    Each chain gives the series s_t = mean_j x_tj^2, so dimensions that move
    together (as a mixture's do, through the shared component) are not
    counted as independent. The pooled estimate is the mean of the chains'
    means of s; its variance is the sum over chains of var(s) / ESS(s),
    divided by the number of chains squared.
    """
    series = [np.mean(samples * samples, axis=1) for samples in chains]
    var_sum = sum(float(np.var(s)) / ess_ips(s) for s in series)
    pooled = float(np.mean([np.mean(s) for s in series]))
    return abs(pooled - float(np.mean(exact_x2))), math.sqrt(var_sum) / len(series)


def read_run(out_dir: Path, config: dict) -> dict:
    """Check one finished compare run and extract its metrics.

    Returns {"hashes": {...}, "quality": {...}, "samplers": {name: {...}}}.
    ``quality`` holds every number that must repeat exactly for a given
    (workload, seed); sampler entries add the timing-derived rates.
    """
    hashes = check_manifest(out_dir, config)
    names = [s["name"] for s in config["samplers"]]
    comparison = read_comparison(out_dir / "comparison.csv", names)
    steps = config["burn_in"] + config["n"]
    box = config["target"]["name"] == "particle_box"
    exact_x2 = None if box else mixture_moments(config["target"])[1]
    samplers, quality = {}, {}
    for name in names:
        walls, min_ess, accept, tvs, covs, chains = [], [], [], [], [], []
        for k in range(config["chains"]):
            stem = f"{name}_chain{k}"
            chains.append(read_chain_csv(out_dir / f"{stem}.csv", config))
            diag = _load_json(out_dir / f"{stem}_diag.json")
            ess = [_finite(v, f"{stem} ess") for v in diag.get("ess", [])]
            if len(ess) != chains[-1].shape[1] or min(ess) <= 0:
                raise OutputError(f"{stem}_diag.json: ess has the wrong length or sign")
            walls.append(_finite(diag.get("wall_time_s"), f"{stem} wall_time_s"))
            if walls[-1] <= 0:
                raise OutputError(f"{stem}_diag.json: wall time is not positive")
            min_ess.append(min(ess))
            accept.append(_finite(diag.get("acceptance_rate"), f"{stem} acceptance_rate"))
            if box:
                tvs.append(_finite(diag.get("tv_distance"), f"{stem} tv_distance"))
                covs.append(_finite(diag.get("mode_coverage"), f"{stem} mode_coverage"))
        q = {f"{name}.min_ess": float(np.mean(min_ess)), f"{name}.acceptance": float(np.mean(accept))}
        for column, key in (("min_ess", "min_ess"), ("acceptance_rate", "acceptance")):
            if not math.isclose(comparison[name][column], q[f"{name}.{key}"], rel_tol=1e-9):
                raise OutputError(f"comparison.csv {column} of {name} disagrees with the chain reports")
        if box:
            q[f"{name}.tv"] = float(np.mean(tvs))
            q[f"{name}.mode_coverage"] = float(np.mean(covs))
        else:
            bias, mcse = x2_bias(chains, exact_x2)
            q.update({f"{name}.bias_x2": bias, f"{name}.bias_x2_mcse": mcse, f"{name}.bias_x2_z": bias / mcse})
        quality.update(q)
        samplers[name] = {
            "sampling_s": sum(walls),
            "chain_steps_per_s": [steps / w for w in walls],
            "min_ess_per_s": float(np.mean([e / w for e, w in zip(min_ess, walls)])),
        }
    return {"hashes": hashes, "quality": quality, "samplers": samplers}
