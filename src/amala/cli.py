"""Experiment CLI: seeded runs and sampler comparisons.

One JSON config describes a whole experiment (target, sampler blocks, chain
count, seed, output directory); `--seed` and `--out` override the matching
config fields. A config is validated when built and again when a run starts,
before any output exists; the run samples what that second check built.
Every artifact a run produces is deterministic given (config, seed) except
the timing fields inside diagnostics reports and the comparison table, so
the manifest records content hashes for the deterministic files and lists
the timing-bearing reports unhashed.

Chains may run in parallel (`--workers`, at most one process per chain),
each worker writing the files of the chains it ran; file contents and
aggregates are ordered by (sampler name, chain id), so results are
worker-count-independent. `--workers 1` runs every chain in-process and
loads no process pool.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import build_report, histogram2d
from .rng import uint64
from .samplers import check_init, make_sampler, run_chain
from .targets import GaussianMixture, ParticleBox2D, check_dataclass_fields, integer_at_least, make_target


@dataclass
class ExperimentConfig:
    target: dict
    samplers: list
    n: int
    burn_in: int = 0
    chains: int = 1
    seed: int = 0
    init: object = "mode_center"
    outputs: str = "out"
    grid_res: int = 32
    max_lag: int = 200

    def __post_init__(self):
        self.build()

    def build(self) -> tuple:
        """Validate every field and return the (target, start point) to sample;
        construction calls it, and run_experiment again before any output."""
        for name, low in (("n", 2), ("burn_in", 0), ("chains", 1), ("grid_res", 2), ("max_lag", 1)):
            integer_at_least(getattr(self, name), name, low)
        uint64(self.seed, "seed")
        if not isinstance(self.samplers, list) or not self.samplers:
            raise ValueError("config needs a list of at least one sampler block")
        for what, block in [("target", self.target)] + [("sampler", s) for s in self.samplers]:
            if not isinstance(block, dict):
                raise ValueError(f"{what} block must be a JSON object, got {block!r}")
        for s in self.samplers:
            make_sampler(s)
        names = [s["name"] for s in self.samplers]
        if len(set(names)) != len(names):
            raise ValueError("sampler names must be unique (files are named by sampler)")
        target = make_target(self.target.get("name"), self.target)
        return target, check_init(target, resolve_init(self.init, target))[0]


def load_config(path, seed=None, out=None) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["outputs"] = out
    check_dataclass_fields(raw, "config", ExperimentConfig)
    return ExperimentConfig(**raw)


def resolve_init(init, target):
    """The start point named by "mode_center", or init itself, which check_init checks."""
    if isinstance(init, str):
        if init != "mode_center":
            raise ValueError(f"unknown init spec: {init!r}")
        if isinstance(target, ParticleBox2D):
            return target.mode_centers()[0]
        if isinstance(target, GaussianMixture):
            return target.means[0].copy()
        raise ValueError("mode_center init is not defined for this target")
    return init


def _fmt(x) -> str:
    return repr(float(x))


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_grid_csv(path: Path, grid: np.ndarray):
    lines = [",".join(_fmt(v) for v in row) for row in grid]
    _write_text(path, "\n".join(lines) + "\n")


# rows formatted per write; small chunks keep the peak RSS of a run below
# that of formatting a whole chain at once
_CHAIN_CSV_ROWS = 256


def _write_chain_csv(path: Path, chain):
    """One row per sample, streamed in chunks of _CHAIN_CSV_ROWS rows.

    tolist() gives the Python floats whose repr _fmt writes, so the bytes
    match formatting each value on its own; chunking bounds the memory the
    row strings take. A row whose point and log_p have the bits of the row
    before it (a rejected step, mostly) reuses that row's text; comparing
    bits, not values or the accepted flag, keeps 0.0 and -0.0 apart.
    """
    n, d = chain.samples.shape
    step = chain.meta["burn_in"] + 1
    points = chain.samples.view(np.uint64)
    log_ps = chain.log_ps.view(np.uint64)
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = (points[1:] == points[:-1]).all(axis=1) & (log_ps[1:] == log_ps[:-1])
    with open(path, "w", newline="\n") as fh:
        fh.write("step," + ",".join(f"x{j}" for j in range(d)) + ",log_p,accepted\n")
        for start in range(0, n, _CHAIN_CSV_ROWS):
            stop = start + _CHAIN_CSV_ROWS
            rows = zip(
                chain.samples[start:stop].tolist(),
                chain.log_ps[start:stop].tolist(),
                chain.accepted[start:stop].tolist(),
                repeat[start:stop].tolist(),
            )
            lines = []
            for i, (coords, log_p, acc, same) in enumerate(rows, start):
                if not same:
                    values = f"{','.join(map(repr, coords))},{log_p!r}"
                lines.append(f"{step + i},{values},{int(acc)}\n")
            fh.write("".join(lines))


def _write_acf_csv(path: Path, acf: np.ndarray):
    d = acf.shape[0]
    header = "lag," + ",".join(f"rho_x{j}" for j in range(d))
    lines = [header]
    for lag in range(acf.shape[1]):
        lines.append(f"{lag}," + ",".join(_fmt(acf[j, lag]) for j in range(d)))
    _write_text(path, "\n".join(lines) + "\n")


_HASH_CHUNK = 1 << 16  # bytes per read in _sha256


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, fed in fixed-size reads, never held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _chain_job(args, out_dir: Path, grid_res: int, max_lag: int):
    """Run one chain (args is run_chain's argument tuple) and write its chain
    CSV, diagnostics JSON, ACF CSV and, on a box target, histogram CSV.

    Returns (sampler name, {hashed file name: sha256}, diagnostics file
    name, report); the chain itself never leaves the worker.
    """
    target = args[1]
    chain = run_chain(*args)
    name = f"{chain.meta['sampler']}_chain{chain.meta['chain_id']}"
    hashed = {}

    chain_path = out_dir / f"{name}.csv"
    _write_chain_csv(chain_path, chain)
    hashed[chain_path.name] = _sha256(chain_path)

    report = build_report(chain, target, grid_res=grid_res, max_lag=max_lag)
    diag_path = out_dir / f"{name}_diag.json"
    _write_text(diag_path, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")

    acf_path = out_dir / f"{name}_acf.csv"
    _write_acf_csv(acf_path, report.acf)
    hashed[acf_path.name] = _sha256(acf_path)

    if isinstance(target, ParticleBox2D):
        hist_path = out_dir / f"{name}_hist.csv"
        _write_grid_csv(hist_path, histogram2d(chain.samples, target, grid_res))
        hashed[hist_path.name] = _sha256(hist_path)
    return chain.meta["sampler"], hashed, diag_path.name, report


def _comparison_lines(by_sampler: dict) -> list[str]:
    """One row per sampler name, each column a mean over its chains' reports."""
    lines = ["sampler,mean_time_s,acceptance_rate,min_ess,tv_distance,mode_coverage"]
    for name in sorted(by_sampler):
        reps = by_sampler[name]
        mean_time = np.mean([r.wall_time_s for r in reps])
        acc = np.mean([r.acceptance_rate for r in reps])
        min_ess = np.mean([min(r.ess) for r in reps])
        tv = "" if reps[0].tv_distance is None else _fmt(np.mean([r.tv_distance for r in reps]))
        cov = "" if reps[0].mode_coverage is None else _fmt(np.mean([r.mode_coverage for r in reps]))
        lines.append(f"{name},{_fmt(mean_time)},{_fmt(acc)},{_fmt(min_ess)},{tv},{cov}")
    return lines


def run_experiment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Run all chains, each writing its own files (see _chain_job), then
    write the analytic grid, the comparison table and the manifest.

    Returns the manifest exactly as written to manifest.json. Hashed files:
    chain CSVs, ACF CSVs, histogram CSVs and the analytic grid. Diagnostics
    JSONs and the comparison table carry wall times and are listed without
    hashes.
    """
    integer_at_least(workers, "workers", 1)
    target, init = config.build()
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one job per (sampler, chain) in (sampler name, chain id) order; a
    # worker process gets the target already built
    jobs = [
        (s, target, config.n, config.burn_in, init, config.seed, k)
        for s in sorted(config.samplers, key=lambda s: s["name"])
        for k in range(config.chains)
    ]
    job = partial(_chain_job, out_dir=out_dir, grid_res=config.grid_res, max_lag=config.max_lag)
    # the pool starts all its processes at the first submit, so never more
    # than there are chains to run
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, jobs))
    else:
        results = [job(args) for args in jobs]

    hashed: dict[str, str] = {}
    reports: list[str] = []
    by_sampler: dict[str, list] = {}
    for sampler, files, diag_name, report in results:
        hashed.update(files)
        reports.append(diag_name)
        by_sampler.setdefault(sampler, []).append(report)

    if isinstance(target, ParticleBox2D):
        grid_path = out_dir / "target_grid.csv"
        _write_grid_csv(grid_path, target.analytic_grid(config.grid_res))
        hashed[grid_path.name] = _sha256(grid_path)

    cmp_path = out_dir / "comparison.csv"
    _write_text(cmp_path, "\n".join(_comparison_lines(by_sampler)) + "\n")
    reports.append(cmp_path.name)

    manifest = {
        "config": asdict(config),
        "files": dict(sorted(hashed.items())),
        "reports": sorted(reports),
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def compare_samplers(config: ExperimentConfig, workers: int = 1) -> Path:
    """run_experiment for a config with at least two samplers to compare;
    returns the path of the comparison table."""
    if len(config.samplers) < 2:
        raise ValueError("compare needs at least 2 sampler blocks")
    run_experiment(config, workers)
    return Path(config.outputs) / "comparison.csv"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amala", description="Langevin/HMC sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "compare"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel chains, one process each at most")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, out=args.out)
        if args.command == "run":
            run_experiment(config, workers=args.workers)
        else:
            compare_samplers(config, workers=args.workers)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
