"""Run the seed-1 golden workloads and compare their hashed files with tests/golden.

    python tests/check_golden_hashes.py OUT_DIR

runs ``configs/benchmark.json``, the ``mix_chains`` benchmark workload on
two workers and the ``gauss_hd`` workload (a d = 32 standard normal), each
built by ``perfbench/workloads.make_config``, through ``python -m
amala.cli compare`` on this checkout's ``src`` (put first on the
subprocess's ``PYTHONPATH``, so neither an installed package nor a missing
one decides what runs), and exits 1 naming every file whose hash differs
from ``tests/golden/<workload>_seed1_files.json``. The bytes must not depend on
the CPU: CI runs it again with ``OPENBLAS_CORETYPE`` and
``NPY_DISABLE_CPU_FEATURES`` set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import make_config  # noqa: E402

# golden file stem -> (config, --workers)
WORKLOADS = {
    "benchmark": (json.loads((ROOT / "configs" / "benchmark.json").read_text()), 1),
    "mix_chains": make_config("mix_chains", 1),
    "gauss_hd": make_config("gauss_hd", 1),
}


def main(out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = False
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    for name, (config, workers) in WORKLOADS.items():
        config_path = out / f"{name}.json"
        config_path.write_text(json.dumps(config))
        run_dir = out / name
        subprocess.run(
            [sys.executable, "-m", "amala.cli", "compare", "--config", str(config_path), "--seed", "1",
             "--out", str(run_dir), "--workers", str(workers)],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        got = json.loads((run_dir / "manifest.json").read_text())["files"]
        want = json.loads((ROOT / "tests" / "golden" / f"{name}_seed1_files.json").read_text())
        changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        if changed:
            failed = True
            print(f"{name}: hashed files differ from tests/golden/{name}_seed1_files.json: {changed}")
        else:
            print(f"{name}: {len(got)} hashed files as recorded")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
