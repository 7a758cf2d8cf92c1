import json
import subprocess
import sys

import numpy as np
import pytest

from amala.cli import (
    _CHAIN_CSV_ROWS,
    ExperimentConfig,
    _write_chain_csv,
    compare_samplers,
    load_config,
    main,
    resolve_init,
    run_experiment,
)
from amala.samplers import Chain
from amala.targets import make_target

BOX_TARGET = {"name": "particle_box", "Lx": 1.0, "Ly": 1.0, "nx": 2, "ny": 2}
MIX_TARGET = {
    "name": "gauss_mix",
    "components": [{"weight": 1.0, "mean": [0.0, 0.0], "variance": [1.0, 1.0]}],
}
BOX_WITHOUT_NY = {k: v for k, v in BOX_TARGET.items() if k != "ny"}
MIX_EXTRA_FIELD = {
    "name": "gauss_mix",
    "components": [{"weight": 1.0, "mean": [0.0, 0.0], "variance": [1.0, 1.0], "scale": 2.0}],
}
MIX_NO_VARIANCE = {"name": "gauss_mix", "components": [{"weight": 1.0, "mean": [0.0, 0.0]}]}
NAN = float("nan")
INF = float("inf")


def mixture(**second):
    """A two-component 2D mixture whose second component takes the given fields."""
    component = {"weight": 0.5, "mean": [0.0, 0.0], "variance": [1.0, 1.0]}
    return {"name": "gauss_mix", "components": [component, {**component, **second}]}


def base_config(**overrides):
    cfg = {
        "target": BOX_TARGET,
        "samplers": [{"name": "mala", "eps": 0.05}, {"name": "adaptive", "eps": 0.05}],
        "n": 60,
        "burn_in": 10,
        "chains": 2,
        "seed": 5,
        "init": "mode_center",
        "grid_res": 8,
        "max_lag": 20,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return path


class TestConfig:
    def test_load_and_overrides(self, tmp_path):
        path = write_config(tmp_path, outputs=str(tmp_path / "a"))
        cfg = load_config(path, seed=99, out=str(tmp_path / "b"))
        assert cfg.seed == 99
        assert cfg.outputs == str(tmp_path / "b")

    def test_defaults(self, tmp_path):
        raw = base_config()
        for key in ("burn_in", "chains", "seed", "init", "outputs", "grid_res", "max_lag"):
            raw.pop(key, None)
        cfg = ExperimentConfig(**raw)
        assert cfg.grid_res == 32 and cfg.max_lag == 200 and cfg.chains == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"chains": 0},
            {"grid_res": 1},
            {"samplers": []},
            {"samplers": [{"name": "mala", "eps": 0.1}, {"name": "mala", "eps": 0.2}]},
            {"samplers": [{"name": "nuts"}]},
            {"target": {"name": "banana"}},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 2**64 + 1},
            {"init": "somewhere"},
            {"init": [0.3]},
            {"init": [0.5, 0.25]},
            {"init": [0.0, 0.25]},
            {"init": [float("nan"), 0.25]},
            {"target": MIX_TARGET, "init": [0.0, 0.0, 0.0]},
            {"target": {**BOX_TARGET, "gmx": 10.0}},
            {"target": BOX_WITHOUT_NY},
            {"target": MIX_EXTRA_FIELD, "init": [0.0, 0.0]},
            {"target": MIX_NO_VARIANCE, "init": [0.0, 0.0]},
            {"target": {**MIX_TARGET, "weights": [1.0]}, "init": [0.0, 0.0]},
            {"n": 2.5},
            {"chains": 2.0},
            {"burn_in": 1.5},
            {"grid_res": 8.5},
            {"max_lag": 20.0},
            {"n": True},
            {"seed": True},
            {"samplers": [{"name": "hmc", "eps_leap": 0.05, "n_leap": 2.5}]},
            {"samplers": [{"name": "hmc", "eps_leap": 0.05, "n_leap": True}]},
            {"burn_in": -1},
            {"max_lag": 0},
            {"samplers": [{"name": "mala", "eps": NAN}]},
            {"samplers": [{"name": "mala", "eps": True}]},
            {"samplers": [{"name": "adaptive", "eps": INF}]},
            {"samplers": [{"name": "adaptive", "eps": 0.1, "beta": NAN}]},
            {"samplers": [{"name": "adaptive", "eps": 0.1, "beta": True}]},
            {"samplers": [{"name": "hmc", "eps_leap": NAN, "n_leap": 3}]},
            {"samplers": [{"name": "hmc", "eps_leap": INF, "n_leap": 3}]},
            {"target": {**BOX_TARGET, "Lx": INF}},
            {"target": {**BOX_TARGET, "nx": True}},
            {"target": {**BOX_TARGET, "gmax": NAN}},
            {"target": {**BOX_TARGET, "gmax": INF}},
            {"target": mixture(weight=NAN), "init": [0.0, 0.0]},
            {"target": mixture(weight=True), "init": [0.0, 0.0]},
            {"target": mixture(mean=[INF, 0.0]), "init": [0.0, 0.0]},
            {"target": mixture(mean=[True, 0.0]), "init": [0.0, 0.0]},
            {"target": mixture(variance=[1.0, NAN]), "init": [0.0, 0.0]},
            {"samplers": ["mala"]},
            {"samplers": {"name": "mala", "eps": 0.1}},
            {"target": "particle_box"},
            {"n": 1},
            {"samplers": [{"name": "adaptive", "eps": 0.1, "xi": "0.5"}]},
            {"target": MIX_TARGET, "init": ["0.3", "0.4"]},
            {"target": MIX_TARGET, "init": [True, True]},
            {"target": MIX_TARGET, "init": [[0.1, 0.2]]},
            {"samplers": [{"name": ["mala"], "eps": 0.1}]},
            {"samplers": [{"name": {"a": 1}, "eps": 0.1}]},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises((ValueError, KeyError)):
            ExperimentConfig(**base_config(**overrides))

    def test_resolve_init(self):
        box = make_target("particle_box", BOX_TARGET)
        np.testing.assert_allclose(resolve_init("mode_center", box), [0.25, 0.25])
        mix = make_target("gauss_mix", MIX_TARGET)
        np.testing.assert_allclose(resolve_init("mode_center", mix), [0.0, 0.0])
        np.testing.assert_allclose(resolve_init([0.3, 0.4], box), [0.3, 0.4])
        with pytest.raises(ValueError):
            resolve_init("somewhere", box)

    def test_in_place_target_edit_is_run(self, tmp_path):
        edited = ExperimentConfig(**base_config(target=dict(BOX_TARGET), outputs=str(tmp_path / "edited")))
        edited.target["nx"] = 1
        edited.target["ny"] = 1
        built = ExperimentConfig(
            **base_config(target={**BOX_TARGET, "nx": 1, "ny": 1}, outputs=str(tmp_path / "built"))
        )
        man_edited, man_built = run_experiment(edited), run_experiment(built)
        assert man_edited["files"] == man_built["files"]
        assert man_edited["target_energy"] == man_built["target_energy"] == 1.0
        assert man_edited["config"]["target"] == man_built["config"]["target"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.samplers[0].update(eps=NAN),
            lambda cfg: setattr(cfg, "n", 1),
            lambda cfg: setattr(cfg, "init", [0.5, 0.25]),
            lambda cfg: setattr(cfg, "target", {"name": "banana"}),
            lambda cfg: setattr(cfg, "samplers", []),
        ],
        ids=["eps-in-place", "n", "init", "target", "samplers"],
    )
    def test_edited_config_fails_before_output(self, tmp_path, edit):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out")))
        edit(cfg)
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_outputs_assignment(self, tmp_path):
        cfg = ExperimentConfig(**base_config())
        cfg.outputs = str(tmp_path / "elsewhere")
        assert run_experiment(cfg)["config"]["outputs"] == str(tmp_path / "elsewhere")
        assert (tmp_path / "elsewhere" / "manifest.json").exists()


class TestRunExperiment:
    def test_file_contract(self, tmp_path):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out")))
        run_experiment(cfg)
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        expected = {"manifest.json", "target_grid.csv", "comparison.csv"}
        for s in ("mala", "adaptive"):
            for k in range(2):
                expected |= {
                    f"{s}_chain{k}.csv",
                    f"{s}_chain{k}_diag.json",
                    f"{s}_chain{k}_acf.csv",
                    f"{s}_chain{k}_hist.csv",
                }
        assert names == expected
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == expected - {"manifest.json"} - set(manifest["reports"])
        assert sorted(manifest["reports"]) == manifest["reports"]
        assert "comparison.csv" in manifest["reports"]

    def test_single_sampler_run_writes_one_comparison_row(self, tmp_path):
        cfg = ExperimentConfig(
            **base_config(samplers=[{"name": "mala", "eps": 0.05}], outputs=str(tmp_path / "out"))
        )
        run_experiment(cfg)
        lines = (tmp_path / "out" / "comparison.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("mala,")

    def test_chain_csv_structure(self, tmp_path):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out"), chains=1))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "mala_chain0.csv").read_text().strip().split("\n")
        assert lines[0] == "step,x0,x1,log_p,accepted"
        assert len(lines) == 1 + cfg.n
        first = lines[1].split(",")
        assert first[0] == str(cfg.burn_in + 1)
        assert first[-1] in {"0", "1"}

    @pytest.mark.parametrize("n", [1, _CHAIN_CSV_ROWS - 1, _CHAIN_CSV_ROWS, _CHAIN_CSV_ROWS + 1])
    def test_streamed_chain_csv_matches_joined_rows(self, tmp_path, n):
        awkward = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-300, -2.5, 0.25]
        samples = np.resize(np.array(awkward), (n, 3))
        log_ps = np.resize(np.array(awkward[::-1]), n)
        accepted = np.arange(n) % 3 == 0
        chain = Chain(samples=samples, log_ps=log_ps, accepted=accepted, scores=samples, meta={"burn_in": 7})
        lines = ["step,x0,x1,x2,log_p,accepted"]
        for i in range(n):
            coords = ",".join(repr(float(v)) for v in samples[i])
            lines.append(f"{7 + i + 1},{coords},{repr(float(log_ps[i]))},{int(accepted[i])}")
        path = tmp_path / "chain.csv"
        _write_chain_csv(path, chain)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_diag_json_fields(self, tmp_path):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out"), chains=1))
        run_experiment(cfg)
        diag = json.loads((tmp_path / "out" / "adaptive_chain0_diag.json").read_text())
        assert diag["tv_distance"] is not None
        assert diag["mode_coverage"] is not None
        assert 0.0 <= diag["acceptance_rate"] <= 1.0
        assert len(diag["acf"]) == 2 and len(diag["acf"][0]) == cfg.max_lag + 1

    def test_gauss_target_omits_box_files(self, tmp_path):
        cfg = ExperimentConfig(
            **base_config(
                target=MIX_TARGET, init=[0.0, 0.0], outputs=str(tmp_path / "out"), chains=1
            )
        )
        run_experiment(cfg)
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "target_grid.csv" not in names
        assert not any(n.endswith("_hist.csv") for n in names)
        diag = json.loads((tmp_path / "out" / "mala_chain0_diag.json").read_text())
        assert diag["tv_distance"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = ExperimentConfig(**base_config(outputs=str(tmp_path / "a")))
        cfg_b = ExperimentConfig(**base_config(outputs=str(tmp_path / "b")))
        man_a = run_experiment(cfg_a)
        man_b = run_experiment(cfg_b)
        assert man_a["files"] == man_b["files"]
        for name in man_a["files"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        cfg_a = ExperimentConfig(**base_config(outputs=str(tmp_path / "w1")))
        cfg_b = ExperimentConfig(**base_config(outputs=str(tmp_path / "w2")))
        man_a = run_experiment(cfg_a, workers=1)
        man_b = run_experiment(cfg_b, workers=2)
        assert man_a["files"] == man_b["files"]
        # the workers also compute the reports: every number but a wall time agrees
        assert man_a["reports"] == man_b["reports"]
        for name in man_a["reports"]:
            if name.endswith("_diag.json"):
                diag_a = json.loads((tmp_path / "w1" / name).read_text())
                diag_b = json.loads((tmp_path / "w2" / name).read_text())
                assert diag_a.pop("wall_time_s") > 0.0 and diag_b.pop("wall_time_s") > 0.0
                assert diag_a == diag_b

        def table_without_time(out):
            rows = [row.split(",") for row in (out / "comparison.csv").read_text().splitlines()]
            col = rows[0].index("mean_time_s")
            return [row[:col] + row[col + 1 :] for row in rows]

        table = table_without_time(tmp_path / "w1")
        assert len(table) == 3 and table == table_without_time(tmp_path / "w2")

    def test_pool_is_capped_at_the_job_count(self, tmp_path, monkeypatch):
        built = []

        class InProcessPool:
            # records the pool size and maps in this process: no process starts
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("amala.cli.ProcessPoolExecutor", InProcessPool)
        one_sampler = {"samplers": [{"name": "mala", "eps": 0.05}]}
        serial = run_experiment(ExperimentConfig(**base_config(outputs=str(tmp_path / "w1"), **one_sampler)))
        assert built == []
        pooled = run_experiment(
            ExperimentConfig(**base_config(outputs=str(tmp_path / "w8"), **one_sampler)), workers=8
        )
        assert built == [2] and pooled["files"] == serial["files"]
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "c1"), chains=1, **one_sampler))
        run_experiment(cfg, workers=8)
        assert built == [2]

    def test_manifest_hashes_match_files(self, tmp_path):
        import hashlib

        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out"), chains=1))
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1.5, True, 0, -1])
    def test_bad_workers_fail_before_output(self, tmp_path, workers):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out")))
        with pytest.raises(ValueError, match="workers"):
            run_experiment(cfg, workers=workers)
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_three_sampler_rows(self, tmp_path):
        cfg = ExperimentConfig(
            **base_config(
                samplers=[
                    {"name": "mala", "eps": 0.05},
                    {"name": "adaptive", "eps": 0.05},
                    {"name": "hmc", "eps_leap": 0.05, "n_leap": 3},
                ],
                chains=1,
                outputs=str(tmp_path / "out"),
            )
        )
        path = compare_samplers(cfg)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sampler,mean_time_s,acceptance_rate,min_ess,tv_distance,mode_coverage"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["adaptive", "hmc", "mala"]
        for row in lines[1:]:
            fields = row.split(",")
            assert float(fields[1]) > 0.0  # wall time strictly positive
            assert fields[4] != "" and fields[5] != ""
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "comparison.csv" in manifest["reports"]

    def test_requires_two_samplers(self, tmp_path):
        cfg = ExperimentConfig(
            **base_config(samplers=[{"name": "mala", "eps": 0.05}], outputs=str(tmp_path / "o"))
        )
        with pytest.raises(ValueError):
            compare_samplers(cfg)


class TestGrid:
    """The analytic target_grid.csv that every box run writes."""

    @staticmethod
    def grid_of_run(tmp_path, **overrides):
        cfg = ExperimentConfig(**base_config(outputs=str(tmp_path / "out"), chains=1, n=20, **overrides))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "target_grid.csv").read_text().strip().split("\n")
        return [[float(v) for v in line.split(",")] for line in lines]

    def test_shape_and_normalization(self, tmp_path):
        rows = self.grid_of_run(tmp_path, grid_res=32)
        assert len(rows) == 32 and all(len(r) == 32 for r in rows)
        assert abs(sum(map(sum, rows)) - 1.0) < 1e-9

    def test_ground_state_res2(self, tmp_path):
        box11 = {"name": "particle_box", "Lx": 1.0, "Ly": 1.0, "nx": 1, "ny": 1}
        rows = self.grid_of_run(tmp_path, target=box11, grid_res=2)
        np.testing.assert_allclose(rows, [[0.25, 0.25], [0.25, 0.25]], atol=1e-12)


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg_path), "--workers", "2"]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "ignored"))
        assert main(["run", "--config", str(cfg_path), "--seed", "77", "--out", str(tmp_path / "o2")]) == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_unknown_sampler_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, samplers=[{"name": "nuts"}])
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_workers_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg_path), "--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("init", [[0.3], [0.5, 0.25]])
    def test_bad_init_exits_before_output(self, tmp_path, capsys, init):
        # wrong dimension, and a point on the box's nodal line x = 0.5
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"), init=init)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: init") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"n": 2.5}, "n"),
            ({"chains": 2.0}, "chains"),
            ({"target": {**BOX_TARGET, "gmx": 10.0}}, "gmx"),
            ({"target": BOX_WITHOUT_NY}, "ny"),
            ({"samplers": [{"name": "hmc", "eps_leap": 0.05, "n_leap": 2.5}]}, "n_leap"),
            ({"samplers": [{"name": "mala", "eps": NAN}]}, "eps"),
            ({"samplers": [{"name": "hmc", "eps_leap": NAN, "n_leap": 3}]}, "eps_leap"),
            ({"target": {**BOX_TARGET, "gmax": NAN}}, "gmax"),
            ({"target": {**BOX_TARGET, "nx": True}}, "nx"),
            ({"target": {**BOX_TARGET, "Lx": INF}}, "Lx"),
            ({"samplers": ["mala"]}, "sampler block"),
            ({"target": "particle_box"}, "target block"),
            ({"n": 1}, "n"),
            ({"samplers": [{"name": "adaptive", "eps": 0.1, "xi": "0.5"}]}, "xi"),
            ({"target": MIX_TARGET, "init": ["0.3", "0.4"]}, "init element"),
            ({"samplers": [{"name": ["mala"], "eps": 0.1}]}, "unknown sampler:"),
            ({"samplers": [{"name": {"a": 1}, "eps": 0.1}]}, "unknown sampler:"),
            # a zero-dimensional mixture used to sample and write chain files first
            ({"target": {"name": "gauss_mix", "components": [{"weight": 1.0, "mean": [], "variance": []}]}},
             "component 0 mean"),
            ({"target": mixture(mean=[], variance=[]), "init": [0.0, 0.0]}, "component 1 mean"),
            ({"target": mixture(mean=[0.0, 0.0, 0.0]), "init": [0.0, 0.0]}, "component 1 mean"),
            ({"target": mixture(variance=[1.0]), "init": [0.0, 0.0]}, "component 1 variance"),
        ],
    )
    def test_bad_field_exits_before_output(self, tmp_path, capsys, overrides, field):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"), **overrides)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(field) in err or err.startswith(f"error: {field} ")
        assert not (tmp_path / "out").exists()

    def test_chain_that_never_moves_completes(self, tmp_path):
        # every proposal at eps 500 leaves the box, so the chain stays at its start
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"), samplers=[{"name": "mala", "eps": 500.0}])
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        chain_files = {f"mala_chain{k}{suffix}" for k in range(2) for suffix in (".csv", "_acf.csv", "_hist.csv")}
        assert {p.name for p in out.iterdir()} == chain_files | {
            "target_grid.csv",
            "mala_chain0_diag.json",
            "mala_chain1_diag.json",
            "comparison.csv",
            "manifest.json",
        }
        for k in range(2):
            assert json.loads((out / f"mala_chain{k}_diag.json").read_text())["acceptance_rate"] == 0.0

    def test_module_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"), chains=1, n=20)
        proc = subprocess.run(
            [sys.executable, "-m", "amala.cli", "run", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        proc = subprocess.run(
            [sys.executable, "-m", "amala.cli", "run", "--config", "/nonexistent.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["benchmark.json", "quick.json"])
    def test_configs_parse(self, name):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "configs" / name
        cfg = load_config(path)
        assert cfg.n >= 1
