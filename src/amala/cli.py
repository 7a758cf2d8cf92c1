"""Experiment CLI: seeded runs, sampler comparisons, analytic grids.

One JSON config describes a whole experiment (target, sampler blocks, chain
count, seed, output directory); `--seed` and `--out` override the matching
config fields. Every artifact a run produces is deterministic given
(config, seed) except the timing fields inside diagnostics reports and the
comparison table, so the manifest records content hashes for the
deterministic files and lists the timing-bearing reports unhashed.

Chains may run in parallel (`--workers`); files and aggregates are ordered
by (sampler name, chain id), so results are worker-count-independent.
"""

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.grid_res < 2:
            raise ValueError("grid_res must be at least 2")
        if self.max_lag < 1:
            raise ValueError("max_lag must be at least 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if not self.samplers:
            raise ValueError("config needs at least one sampler block")
        names = [s.get("name") for s in self.samplers]
        if len(set(names)) != len(names):
            raise ValueError("sampler names must be unique (files are named by sampler)")
        # fail early on unknown target/sampler names, bad parameters or a
        # starting point the chains cannot use
        target = make_target(self.target["name"], self.target)
        for s in self.samplers:
            make_sampler(s)
        init = resolve_init(self, target)
        if init.shape != (target.dim,):
            raise ValueError(f"init has shape {init.shape}, the target expects ({target.dim},)")
        if not np.all(np.isfinite(init)) or target.log_density(init) == NEG_INF:
            raise ValueError(f"init {init.tolist()} is not a finite point of positive target density")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "samplers": self.samplers,
            "n": self.n,
            "burn_in": self.burn_in,
            "chains": self.chains,
            "seed": self.seed,
            "init": self.init,
            "outputs": self.outputs,
            "grid_res": self.grid_res,
            "max_lag": self.max_lag,
        }


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


def _chain_job(args):
    target_cfg, sampler_cfg, n, burn_in, init, seed, chain_id = args
    target = make_target(target_cfg["name"], target_cfg)
    return run_chain(sampler_cfg, target, n, burn_in, np.asarray(init), seed, chain_id)


def _run_chains(config: ExperimentConfig, workers: int):
    """Run every (sampler, chain) pair, in (sampler name, chain id) order."""
    target = make_target(config.target["name"], config.target)
    init = resolve_init(config, target)
    sampler_cfgs = sorted(config.samplers, key=lambda s: s["name"])
    jobs = [
        (config.target, s, config.n, config.burn_in, list(map(float, init)), config.seed, k)
        for s in sampler_cfgs
        for k in range(config.chains)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chains = list(pool.map(_chain_job, jobs))
    else:
        chains = [_chain_job(job) for job in jobs]
    return target, list(zip(jobs, chains))


def _comparison_lines(records) -> list[str]:
    by_sampler: dict[str, list] = {}
    for rec in records:
        by_sampler.setdefault(rec["sampler"], []).append(rec)
    lines = ["sampler,mean_time_s,acceptance_rate,min_ess,tv_distance,mode_coverage"]
    for name in sorted(by_sampler):
        recs = by_sampler[name]
        mean_time = np.mean([r["report"].wall_time_s for r in recs])
        acc = np.mean([r["report"].acceptance_rate for r in recs])
        min_ess = np.mean([min(r["report"].ess) for r in recs])
        tvs = [r["report"].tv_distance for r in recs]
        covs = [r["report"].mode_coverage for r in recs]
        tv = "" if tvs[0] is None else _fmt(np.mean(tvs))
        cov = "" if covs[0] is None else _fmt(np.mean(covs))
        lines.append(f"{name},{_fmt(mean_time)},{_fmt(acc)},{_fmt(min_ess)},{tv},{cov}")
    return lines


def run_experiment(config: ExperimentConfig, workers: int = 1, comparison: bool = False) -> dict:
    """Run all chains, write per-chain artifacts and the manifest.

    Returns the manifest exactly as written to manifest.json. Hashed files:
    chain CSVs, ACF CSVs, histogram CSVs and the analytic grid. Diagnostics
    JSONs (and the comparison table, when requested) carry wall times and
    are listed without hashes.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    target, results = _run_chains(config, workers)
    is_box = isinstance(target, ParticleBox2D)

    hashed: dict[str, str] = {}
    reports: list[str] = []
    records = []
    for job, chain in results:
        sampler_cfg = job[1]
        name = f"{sampler_cfg['name']}_chain{chain.meta['chain_id']}"
        chain_path = out_dir / f"{name}.csv"
        _write_chain_csv(chain_path, chain)
        hashed[chain_path.name] = _sha256(chain_path)

        report = build_report(chain, target, grid_res=config.grid_res, max_lag=config.max_lag)
        diag_path = out_dir / f"{name}_diag.json"
        _write_text(diag_path, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        reports.append(diag_path.name)

        acf_path = out_dir / f"{name}_acf.csv"
        _write_acf_csv(acf_path, report.acf)
        hashed[acf_path.name] = _sha256(acf_path)

        if is_box:
            hist_path = out_dir / f"{name}_hist.csv"
            _write_grid_csv(hist_path, histogram2d(chain.samples, target, config.grid_res))
            hashed[hist_path.name] = _sha256(hist_path)
        records.append({"sampler": sampler_cfg["name"], "chain": chain, "report": report})

    if is_box:
        grid_path = out_dir / "target_grid.csv"
        _write_grid_csv(grid_path, target.analytic_grid(config.grid_res))
        hashed[grid_path.name] = _sha256(grid_path)

    if comparison:
        cmp_path = out_dir / "comparison.csv"
        _write_text(cmp_path, "\n".join(_comparison_lines(records)) + "\n")
        reports.append(cmp_path.name)

    manifest = {
        "config": config.to_dict(),
        "seed": config.seed,
        "files": dict(sorted(hashed.items())),
        "reports": sorted(reports),
    }
    if is_box:
        manifest["target_energy"] = target.energy()
    _write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def compare_samplers(config: ExperimentConfig, workers: int = 1) -> Path:
    """Run the experiment and write the per-sampler comparison table."""
    if len(config.samplers) < 2:
        raise ValueError("compare needs at least 2 sampler blocks")
    run_experiment(config, workers, comparison=True)
    return Path(config.outputs) / "comparison.csv"


def emit_grid(config: ExperimentConfig) -> Path:
    """Write the analytic cell-mass grid for a box target."""
    target = make_target(config.target["name"], config.target)
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
