"""Run the benchmark workloads traced at seed 1 and compare their exact counts with tests/golden.

    python tests/check_trace_counts.py

runs ``perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 1`` for
box_compare, mix_chains and gauss_hd (which pins the single-component
mixture path and the d = 32 row writes), printing each run's output. The
tracer patches amala's layer seams by name, so a program that no longer
matches them fails here. Exits 1 naming every fault: a run that exits
nonzero, whose last line is not ``correct`` or reports failed operations,
or whose exact counts (draws, target calls, steps, accepts, rejects) in
``.bench_build/perfbench/trace-<w>-s1-0.json`` differ from
``tests/golden/trace_counts_seed1.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("box_compare", "mix_chains", "gauss_hd")
GOLDEN = "tests/golden/trace_counts_seed1.json"


def fault_of(workload: str, golden: dict) -> str | None:
    """Run one traced workload; its fault as one line, or None."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    print(run.stdout, end="", flush=True)
    if run.returncode != 0:
        return f"{workload}: perfbench/run.py exited {run.returncode}"
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True or result.get("failed") != 0:
        return f"{workload}: traced run is not correct or has failed operations"
    got = json.loads((ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-s1-0.json").read_text())["counts"]
    want = golden[workload]
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    if changed:
        diffs = ", ".join(f"{k}: {want.get(k)} recorded, {got.get(k)} now" for k in changed)
        return f"{workload}: exact counts differ from {GOLDEN}: {diffs}"
    return None


def main() -> int:
    golden = json.loads((ROOT / GOLDEN).read_text())
    faults = [f for f in (fault_of(w, golden) for w in WORKLOADS) if f]
    for fault in faults:
        print(fault)
    if not faults:
        print(f"{', '.join(WORKLOADS)}: correct, 0 failed operations, exact counts as recorded")
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit(__doc__)
    sys.exit(main())
