"""Experiment CLI: seeded runs, sampler comparisons, analytic grids.

One JSON config describes a whole experiment (target, sampler blocks, chain
count, seed, output directory); `--seed` and `--out` override the matching
config fields. Every artifact a run produces is deterministic given
(config, seed) except the timing fields inside diagnostics reports and the
comparison table, so the manifest records content hashes for the
deterministic files and lists the timing-bearing reports unhashed.

Chains may run in parallel (`--workers`), each worker writing the files of
the chains it ran; file contents and aggregates are ordered by (sampler
name, chain id), so results are worker-count-independent.
"""

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import build_report, histogram2d
from .samplers import make_sampler, run_chain
from .targets import NEG_INF, GaussianMixture, ParticleBox2D, make_target


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
        for name, low in (("n", 1), ("burn_in", 0), ("chains", 1), ("grid_res", 2), ("max_lag", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if not self.samplers:
            raise ValueError("config needs at least one sampler block")
        names = [s.get("name") for s in self.samplers]
        if len(set(names)) != len(names):
            raise ValueError("sampler names must be unique (files are named by sampler)")
        # fail early on unknown target/sampler names, bad parameters or a
        # starting point the chains cannot use
        target = make_target(self.target.get("name"), self.target)
        for s in self.samplers:
            make_sampler(s)
        init = resolve_init(self, target)
        if init.shape != (target.dim,):
            raise ValueError(f"init has shape {init.shape}, the target expects ({target.dim},)")
        if not np.all(np.isfinite(init)) or target.log_density(init) == NEG_INF:
            raise ValueError(f"init {init.tolist()} is not a finite point of positive target density")


def load_config(path, seed=None, out=None) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["outputs"] = out
    return ExperimentConfig(**raw)


def resolve_init(config: ExperimentConfig, target) -> np.ndarray:
    if isinstance(config.init, str):
        if config.init != "mode_center":
            raise ValueError(f"unknown init spec: {config.init!r}")
        if isinstance(target, ParticleBox2D):
            return target.first_mode_center()
        if isinstance(target, GaussianMixture):
            return target.means[0].copy()
        raise ValueError("mode_center init is not defined for this target")
    return np.asarray(config.init, dtype=float)


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
    row strings take.
    """
    n, d = chain.samples.shape
    step = chain.meta["burn_in"] + 1
    with open(path, "w", newline="\n") as fh:
        fh.write("step," + ",".join(f"x{j}" for j in range(d)) + ",log_p,accepted\n")
        for start in range(0, n, _CHAIN_CSV_ROWS):
            stop = start + _CHAIN_CSV_ROWS
            rows = zip(
                chain.samples[start:stop].tolist(),
                chain.log_ps[start:stop].tolist(),
                chain.accepted[start:stop].tolist(),
            )
            fh.write(
                "".join(
                    f"{step + i},{','.join(map(repr, coords))},{log_p!r},{int(acc)}\n"
                    for i, (coords, log_p, acc) in enumerate(rows, start)
                )
            )


def _write_acf_csv(path: Path, acf: np.ndarray):
    d = acf.shape[0]
    header = "lag," + ",".join(f"rho_x{j}" for j in range(d))
    lines = [header]
    for lag in range(acf.shape[1]):
        lines.append(f"{lag}," + ",".join(_fmt(acf[j, lag]) for j in range(d)))
    _write_text(path, "\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


def _run_chains(config: ExperimentConfig, out_dir: Path, workers: int):
    """Run _chain_job for every (sampler, chain) pair, in (sampler name,
    chain id) order; returns the target and the jobs' results.

    A worker process gets the target already built.
    """
    target = make_target(config.target.get("name"), config.target)
    init = resolve_init(config, target)
    jobs = [
        (s, target, config.n, config.burn_in, init, config.seed, k)
        for s in sorted(config.samplers, key=lambda s: s["name"])
        for k in range(config.chains)
    ]
    job = partial(_chain_job, out_dir=out_dir, grid_res=config.grid_res, max_lag=config.max_lag)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return target, list(pool.map(job, jobs))
    return target, [job(args) for args in jobs]


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
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    target, results = _run_chains(config, out_dir, workers)
    is_box = isinstance(target, ParticleBox2D)

    hashed: dict[str, str] = {}
    reports: list[str] = []
    by_sampler: dict[str, list] = {}
    for sampler, files, diag_name, report in results:
        hashed.update(files)
        reports.append(diag_name)
        by_sampler.setdefault(sampler, []).append(report)

    if is_box:
        grid_path = out_dir / "target_grid.csv"
        _write_grid_csv(grid_path, target.analytic_grid(config.grid_res))
        hashed[grid_path.name] = _sha256(grid_path)

    cmp_path = out_dir / "comparison.csv"
    _write_text(cmp_path, "\n".join(_comparison_lines(by_sampler)) + "\n")
    reports.append(cmp_path.name)

    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "files": dict(sorted(hashed.items())),
        "reports": sorted(reports),
    }
    if is_box:
        manifest["target_energy"] = target.energy()
    _write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def compare_samplers(config: ExperimentConfig, workers: int = 1) -> Path:
    """run_experiment for a config with at least two samplers to compare;
    returns the path of the comparison table."""
    if len(config.samplers) < 2:
        raise ValueError("compare needs at least 2 sampler blocks")
    run_experiment(config, workers)
    return Path(config.outputs) / "comparison.csv"


def emit_grid(config: ExperimentConfig) -> Path:
    """Write the analytic cell-mass grid for a box target."""
    target = make_target(config.target.get("name"), config.target)
    if not isinstance(target, ParticleBox2D):
        raise ValueError("grid output is only defined for the particle_box target")
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "target_grid.csv"
    _write_grid_csv(path, target.analytic_grid(config.grid_res))
    return path


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amala", description="Langevin/HMC sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "compare"):
        p = sub.add_parser(cmd)
        _add_common(p)
        p.add_argument("--workers", type=int, default=1, help="parallel chains")
    _add_common(sub.add_parser("grid"))
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, out=args.out)
        if args.command == "run":
            run_experiment(config, workers=args.workers)
        elif args.command == "compare":
            compare_samplers(config, workers=args.workers)
        else:
            emit_grid(config)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
