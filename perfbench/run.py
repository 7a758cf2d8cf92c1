"""amala benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload box_compare --seed 1 --seconds 30 --trace 0

Run from the repository root; amala is imported from ``src/``. The
benchmark is a closed loop with one client: it generates the workload's
config from the seed, then runs ``python -m amala.cli compare`` as a user
does, one command at a time, until ``--seconds`` are used (an odd number
of commands, at least ``MIN_REPEATS``). End-to-end metrics are read from
the artifacts each command writes, and every command's output is checked:
manifest hashes, identical hashed files and quality numbers across repeats
of the seed, finite samples, and samples strictly inside the box. A
command that exits nonzero or fails the check counts as a failed
operation and gives no metric values.

End-to-end metrics: ``setup_s`` is the median of probes of interpreter
start, ``import amala`` and config validation, ``SETUP_PROBES`` of them
before each command, so they sample the same host conditions as the
commands; ``wall_s``, ``peak_rss_mb`` and ``sampling_s`` (summed sampling
wall of all chains) are medians over the commands;
``<sampler>.steps_per_s`` is the median over every chain of every command
of (burn_in + n) / chain wall.

With ``--trace 1`` the experiment runs in-process with one worker, twice
with every amala layer wrapped (see tracing.py) and once untraced between
them; a workload with more workers also runs once untraced on its pool,
for the pool efficiency. The two traced runs must give identical exact
counts, and every run the same hashed files; per-layer numbers are
medians over the traced runs, and the tracing overhead is their median
wall time minus the untraced one.

Human-readable lines come first, including metrics that only exist on some
workloads (HMC, box TV and coverage, Gaussian bias with its Monte Carlo
standard error). The last line is one JSON object holding the metrics that
BENCHMARK.json lists for the mode.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from artifacts import OutputError, read_run
from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MIN_REPEATS = 3
SETUP_PROBES = 4  # before each command
TIME_LIMIT_S = 170.0
SETUP_CODE = "import sys, amala.cli; amala.cli.load_config(sys.argv[1])"


# units of the printed metrics that BENCHMARK.json does not list, by the
# last part of their name
UNITS = {
    "steps_per_s": "1/s",
    "min_ess_per_s": "1/s",
    "min_ess": "count",
    "acceptance": "fraction",
    "tv": "fraction",
    "mode_coverage": "fraction",
    "bias_x2": "1",
    "bias_x2_mcse": "1",
    "bias_x2_z": "MCSE",
    "sampling_s": "s",
    "grid_s": "s",
    "untraced_wall_s": "s",
}


class CommandFailed(Exception):
    """The CLI command exited nonzero or ran out of time."""


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "libc": "-".join(platform.libc_ver()),
    }


def command_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_command(cmd: list, env: dict, timeout: float, log: Path) -> tuple[float, float]:
    """Run one command in its own process group; returns (wall s, peak RSS MB).

    Peak RSS is the largest of the command's process and the workers it
    waited for, as wait4 reports it. A command still running at the
    timeout is killed with its whole group.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        raise CommandFailed(f"exit code {proc.returncode}: {' '.join(tail)}")
    return wall, usage.ru_maxrss / 1024.0


class Operations:
    """Attempted and failed operations, and the results of the good ones.

    Every repeat of one (workload, seed) must reproduce the first good
    repeat's hashed files and quality numbers exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.results = []

    def record(self, out_dir: Path, config: dict, **extra) -> dict | None:
        self.attempted += 1
        try:
            result = read_run(out_dir, config)
            if self.reference is None:
                self.reference = result
            elif result["hashes"] != self.reference["hashes"]:
                raise OutputError("hashed files differ from an earlier repeat of the same seed")
            elif result["quality"] != self.reference["quality"]:
                raise OutputError("quality numbers differ from an earlier repeat of the same seed")
        except OutputError as exc:
            self.fail(f"output check: {exc}")
            return None
        result.update(extra)
        self.results.append(result)
        return result

    def fail(self, why: str):
        self.failed += 1
        print(f"operation {self.attempted} FAILED: {why}")


def median_of(results, get) -> float:
    return float(statistics.median(get(r) for r in results))


def measure_setup(cfg_path: Path, env: dict, log: Path) -> list:
    """Wall times of interpreter start, ``import amala`` and config validation."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(cfg_path)]
    return [run_command(cmd, env, 60.0, log)[0] for _ in range(SETUP_PROBES)]


def untraced(workload: str, seed: int, seconds: float, work: Path, ops: Operations) -> dict:
    start = time.perf_counter()
    config, workers = make_config(workload, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    env = command_env()
    setup, durations = [], []
    while True:
        elapsed = time.perf_counter() - start
        n = len(durations)
        # an odd number of commands, so the median is one measured command
        if n >= MIN_REPEATS and n % 2 and elapsed + 2 * statistics.median(durations) > seconds:
            break
        setup += measure_setup(cfg_path, env, work / "stderr.log")
        out = work / f"r{ops.attempted}"
        cmd = [sys.executable, "-m", "amala.cli", "compare", "--config", str(cfg_path)]
        cmd += ["--out", str(out), "--workers", str(workers)]
        try:
            wall, rss = run_command(cmd, env, max(5.0, TIME_LIMIT_S - elapsed), work / "stderr.log")
        except CommandFailed as exc:
            ops.attempted += 1
            ops.fail(str(exc))
        else:
            ops.record(out, config, wall_s=wall, peak_rss_mb=rss)
        durations.append(time.perf_counter() - start - elapsed)
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - start > TIME_LIMIT_S - 2 * max(durations):
            break
    if not ops.results:
        return {}
    res = ops.results
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(res, lambda r: r["wall_s"]),
        "peak_rss_mb": median_of(res, lambda r: r["peak_rss_mb"]),
        "sampling_s": median_of(res, lambda r: sum(s["sampling_s"] for s in r["samplers"].values())),
    }
    for name in res[0]["samplers"]:
        # median over every chain of every repeat: one chain caught by a
        # burst of host noise does not move it
        rates = [v for r in res for v in r["samplers"][name]["chain_steps_per_s"]]
        metrics[f"{name}.steps_per_s"] = float(statistics.median(rates))
        metrics[f"{name}.min_ess_per_s"] = median_of(res, lambda r: r["samplers"][name]["min_ess_per_s"])
    metrics.update(res[0]["quality"])
    print(f"repeats: {len(res)} good of {ops.attempted}; setup probes: {len(setup)}")
    print("wall_s per repeat:", " ".join(f"{r['wall_s']:.3f}" for r in res))
    print("setup_s per probe:", " ".join(f"{t:.3f}" for t in setup))
    return metrics


def traced(workload: str, seed: int, work: Path, ops: Operations) -> dict:
    sys.path.insert(0, str(SRC))
    import amala.cli

    raw, workers = make_config(workload, seed)
    samplers = sorted(s["name"] for s in raw["samplers"])
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(raw))
    config = amala.cli.load_config(cfg_path)

    def run(label: str, workers: int, tracer: Tracer | None = None) -> dict | None:
        """One in-process compare into work/label; None if it failed."""
        config.outputs = str(work / label)
        compare, undo = amala.cli.compare_samplers, None
        if tracer is not None:
            undo = install(tracer, amala)
            compare = tracer.wrap("cli", "compare_samplers", compare)
        t0 = time.perf_counter()
        try:
            compare(config, workers)
        except Exception:  # a program error is a failed operation, not a benchmark crash
            ops.attempted += 1
            ops.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            if undo is not None:
                undo()
        return ops.record(work / label, raw, wall_s=time.perf_counter() - t0)

    def traced_run(k: int):
        """(layer metrics, exact counts, wall s) of traced run k; None if it failed."""
        tr = Tracer(workload)
        result = run(f"traced{k}", 1, tr)
        if result is None:
            return None
        counts = tr.exact_counts(samplers)
        m = layer_metrics(tr, samplers)
        m["cli.bytes_written"] = sum(p.stat().st_size for p in (work / f"traced{k}").iterdir())
        dump = tr.dump() | {"seed": seed, "counts": counts, "machine": machine_info()}
        (WORK / f"trace-{workload}-s{seed}-{k}.json").write_text(json.dumps(dump, indent=1))
        return m, counts, result["wall_s"]

    pool = run("pool", workers) if workers > 1 else None
    first = traced_run(0)
    base = run("untraced", 1)  # between the traced runs, so host drift hits both sides alike
    second = traced_run(1)
    if workers == 1:
        pool = base
    if None in (pool, base, first, second):
        return {}
    if first[1] != second[1]:
        differ = sorted(n for n in first[1] if first[1][n] != second[1].get(n))
        ops.fail(f"exact counts differ between traced runs: {differ}")
        return {}
    metrics = {name: float(statistics.median([first[0][name], second[0][name]])) for name in first[0]}
    pool_busy = sum(s["sampling_s"] for s in pool["samplers"].values())
    metrics["cli.pool_efficiency"] = pool_busy / (workers * pool["wall_s"])
    metrics["trace.untraced_wall_s"] = base["wall_s"]
    metrics["trace.overhead_s"] = statistics.median([first[2], second[2]]) - base["wall_s"]
    return metrics


def unit_of(name: str, spec: dict) -> str:
    """Unit of a printed metric: from BENCHMARK.json, its adaptive twin, or UNITS."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    head, last = name.rsplit(".", 1) if "." in name else ("", name)
    return units.get(name) or units.get(f"{head}.adaptive") or UNITS[last]


def report(metrics: dict, spec: list) -> dict:
    """The JSON metrics block for the names and units ``spec`` lists."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"benchmark did not measure {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "amala" / "cli.py").is_file():
        print(f"error: amala sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("machine:", json.dumps(machine_info()))
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    ops = Operations()
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, work, ops)
        else:
            metrics = untraced(args.workload, args.seed, args.seconds, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:<14.6g} {unit_of(name, spec)}")
    correct = bool(metrics) and ops.failed == 0
    key = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": report(metrics, spec[key]) if metrics else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
