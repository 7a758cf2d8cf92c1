"""Tests of the benchmark itself, on tiny configs that run in well under a second."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amala
import amala.cli
from artifacts import OutputError, ess_ips, read_run, x2_bias
from run import ROOT, Operations, unit_of
from tracing import Tracer, install, layer_metrics
from workloads import BOX_COMPARE, make_config, mixture_moments

TINY_BOX = {
    "target": BOX_COMPARE["target"],
    "samplers": [
        {"name": "adaptive", "eps": 0.03},
        {"name": "mala", "eps": 0.03},
        {"name": "hmc", "eps_leap": 0.05, "n_leap": 5},
    ],
    "n": 300,
    "burn_in": 20,
    "chains": 2,
    "seed": 3,
    "init": "mode_center",
    "grid_res": 8,
    "max_lag": 20,
}
TINY_MIX = {
    "target": {
        "name": "gauss_mix",
        "components": [
            {"weight": 1.0, "mean": [-1.0, 0.0, 2.0], "variance": [0.5, 1.0, 2.0]},
            {"weight": 3.0, "mean": [1.0, 0.5, 0.0], "variance": [1.0, 1.0, 1.0]},
        ],
    },
    "samplers": [{"name": "adaptive", "eps": 0.6}, {"name": "mala", "eps": 0.6}],
    "n": 400,
    "burn_in": 20,
    "chains": 2,
    "seed": 5,
    "init": "mode_center",
    "max_lag": 20,
}


def compare(raw: dict, out: Path, workers: int = 1) -> Path:
    config = amala.cli.ExperimentConfig(**dict(raw, outputs=str(out)))
    amala.cli.compare_samplers(config, workers)
    return out


def rewrite_hashed(out: Path, name: str, text: str):
    """Replace a hashed artifact and its manifest hash, as a consistent forgery."""
    path = out / name
    path.write_text(text)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"][name] = amala.cli._sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest))


def test_mixture_moments_hand_computed():
    target = {
        "name": "gauss_mix",
        "components": [
            {"weight": 1.0, "mean": [0.0, 2.0], "variance": [1.0, 1.0]},
            {"weight": 3.0, "mean": [2.0, -2.0], "variance": [0.5, 4.0]},
        ],
    }
    mean, second = mixture_moments(target)
    # weights normalize to 1/4 and 3/4
    assert mean.tolist() == [1.5, -1.0]
    assert second.tolist() == [0.25 * 1.0 + 0.75 * 4.5, 0.25 * 5.0 + 0.75 * 8.0]
    with pytest.raises(ValueError):
        mixture_moments(BOX_COMPARE["target"])


def test_mixture_moments_match_samples_of_the_target():
    target = amala.targets.make_target("gauss_mix", TINY_MIX["target"])
    rng = np.random.default_rng(0)
    comp = rng.choice(2, size=200_000, p=target.weights)
    x = target.means[comp] + np.sqrt(target.variances[comp]) * rng.standard_normal((200_000, 3))
    mean, second = mixture_moments(TINY_MIX["target"])
    np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
    np.testing.assert_allclose((x * x).mean(axis=0), second, atol=0.05)


def test_box_workload_is_the_benchmark_config():
    repo_config = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    config, workers = make_config("box_compare", 7)
    assert workers == 1
    assert config == dict(repo_config, seed=7, outputs="out")


def test_make_config_checks_its_inputs():
    with pytest.raises(ValueError):
        make_config("nope", 1)
    with pytest.raises(ValueError):
        make_config("gauss_hd", -1)
    assert make_config("mix_chains", 2)[0]["seed"] == 2


def test_ess_matches_amala_estimator():
    rng = np.random.default_rng(1)
    x = np.zeros(3000)
    for i in range(1, x.size):
        x[i] = 0.8 * x[i - 1] + rng.standard_normal()
    assert math.isclose(ess_ips(x), amala.diagnostics.ess(x), rel_tol=1e-9)


def test_metrics_come_from_the_artifacts(tmp_path):
    out = compare(TINY_BOX, tmp_path / "box")
    res = read_run(out, TINY_BOX)
    manifest = json.loads((out / "manifest.json").read_text())
    assert res["hashes"] == manifest["files"]
    for name in ("adaptive", "mala", "hmc"):
        diags = [json.loads((out / f"{name}_chain{k}_diag.json").read_text()) for k in range(2)]
        walls = [d["wall_time_s"] for d in diags]
        s = res["samplers"][name]
        assert s["sampling_s"] == pytest.approx(sum(walls))
        assert s["chain_steps_per_s"] == pytest.approx([320 / w for w in walls])
        assert s["min_ess_per_s"] == pytest.approx(np.mean([min(d["ess"]) / d["wall_time_s"] for d in diags]))
        assert res["quality"][f"{name}.tv"] == pytest.approx(np.mean([d["tv_distance"] for d in diags]))
        assert res["quality"][f"{name}.mode_coverage"] == np.mean([d["mode_coverage"] for d in diags])


def test_bias_uses_the_oracle(tmp_path):
    out = compare(TINY_MIX, tmp_path / "mix")
    res = read_run(out, TINY_MIX)
    exact = mixture_moments(TINY_MIX["target"])[1].mean()
    for name in ("adaptive", "mala"):
        rows = [np.loadtxt(out / f"{name}_chain{k}.csv", delimiter=",", skiprows=1) for k in range(2)]
        pooled = np.mean([np.mean(r[:, 1:4] ** 2) for r in rows])
        assert res["quality"][f"{name}.bias_x2"] == pytest.approx(abs(pooled - exact))
        assert 0 < res["quality"][f"{name}.bias_x2_mcse"] < 1


def test_bias_mcse_does_not_treat_coupled_dimensions_as_independent():
    rng = np.random.default_rng(2)
    z = [rng.standard_normal(4000) for _ in range(2)]
    # four identical coordinates carry no more information than one
    coupled = [np.column_stack([s] * 4) for s in z]
    single = [s[:, None] for s in z]
    assert x2_bias(coupled, np.ones(4)) == pytest.approx(x2_bias(single, np.ones(1)))
    mcse = math.sqrt(sum(np.var(s * s) / ess_ips(s * s) for s in z)) / 2
    assert x2_bias(single, np.ones(1))[1] == pytest.approx(mcse)


def test_corrupted_artifact_is_a_failed_operation(tmp_path):
    ops = Operations()
    good = compare(TINY_BOX, tmp_path / "good")
    assert ops.record(good, TINY_BOX) is not None
    bad = shutil.copytree(good, tmp_path / "bad")
    chain = bad / "mala_chain1.csv"
    chain.write_text(chain.read_text().replace("1", "2", 1))
    assert ops.record(bad, TINY_BOX) is None
    assert (ops.attempted, ops.failed, len(ops.results)) == (2, 1, 1)


def test_unreadable_comparison_table_is_a_failed_operation(tmp_path):
    out = compare(TINY_BOX, tmp_path / "box")
    table = out / "comparison.csv"
    table.write_text(table.read_text().replace(",", ",x", 3))
    ops = Operations()
    assert ops.record(out, TINY_BOX) is None
    assert (ops.attempted, ops.failed) == (1, 1)


def test_sample_outside_the_box_fails_even_with_a_matching_hash(tmp_path):
    out = compare(TINY_BOX, tmp_path / "box")
    lines = (out / "adaptive_chain0.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "1.5"
    lines[5] = ",".join(fields)
    rewrite_hashed(out, "adaptive_chain0.csv", "\n".join(lines) + "\n")
    with pytest.raises(OutputError, match="outside the box"):
        read_run(out, TINY_BOX)


def test_missing_artifact_and_changed_repeat_fail(tmp_path):
    ops = Operations()
    first = compare(TINY_BOX, tmp_path / "a")
    assert ops.record(first, TINY_BOX) is not None
    other = compare(dict(TINY_BOX, seed=4), tmp_path / "b")
    assert ops.record(other, TINY_BOX) is None  # same config, other outputs
    (first / "hmc_chain0_acf.csv").unlink()
    assert ops.record(first, TINY_BOX) is None
    assert (ops.attempted, ops.failed) == (3, 2)


def test_traced_counts_repeat_and_undo_restores(tmp_path):
    before = (amala.cli.run_chain, amala.samplers.mh_accept, amala.rng.RngStream.next_uniform)
    results = []
    for k in range(2):
        tr = Tracer("tiny")
        undo = install(tr, amala)
        try:
            compare(TINY_BOX, tmp_path / f"t{k}")
        finally:
            undo()
        results.append((tr.exact_counts(["adaptive", "hmc", "mala"]), layer_metrics(tr, ["adaptive", "hmc", "mala"])))
    assert (amala.cli.run_chain, amala.samplers.mh_accept, amala.rng.RngStream.next_uniform) == before
    counts, metrics = results[0]
    assert counts == results[1][0]
    steps = TINY_BOX["burn_in"] + TINY_BOX["n"]
    assert counts["samplers.steps"] == 3 * 2 * steps
    # the adaptive kernel updates its scale on every step but the first
    assert counts["adaptation.sigma_update.calls"] == 2 * (steps - 1)
    assert read_run(tmp_path / "t0", TINY_BOX)["hashes"] == read_run(tmp_path / "t1", TINY_BOX)["hashes"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outside = {"cli.bytes_written", "cli.pool_efficiency", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} - outside <= set(metrics)
    printed = list(metrics) + list(read_run(tmp_path / "t0", TINY_BOX)["quality"])
    printed += [f"{s}.{k}" for s in ("mala", "hmc") for k in ("steps_per_s", "min_ess_per_s")]
    printed += ["sampling_s", "trace.untraced_wall_s", "adaptive.bias_x2_z"]
    assert all(unit_of(name, spec) for name in printed)
    for module in ("rng", "targets", "adaptation", "samplers", "diagnostics", "cli"):
        assert metrics[f"{module}.self_s"] > 0


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert sorted(w["name"] for w in spec["workloads"]) == ["box_compare", "mix_chains"]


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss_hd", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
