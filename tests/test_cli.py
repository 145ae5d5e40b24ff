import csv
import hashlib
import json
import math
from pathlib import Path

import pytest
import yaml

from pwmperc import cli, perceptron, transient
from pwmperc.cli import ExperimentSpec, run


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Every reference config with its experiment kind.
CONFIG_KINDS = {
    "dynamic_vdd": "dynamic-vdd",
    "fit_behavioral": "fit",
    "fit_transient": "fit",
    "response_curve": "response-curve",
    "sweep_freq_large": "sweep-freq",
    "sweep_freq_small": "sweep-freq",
    "sweep_vdd": "sweep-vdd",
    "train_fp_784_10": "train",
    "train_int_784_10": "train",
    "train_sweep_fp_depths": "train-sweep",
}
NON_MNIST_CONFIGS = sorted(name for name, kind in CONFIG_KINDS.items()
                           if not kind.startswith("train"))


def load_config(name):
    return yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())


def make_spec(kind, params, tmp_path, seed=0, jobs=1, data_dir=None,
              sub="out"):
    return ExperimentSpec(kind=kind, parameters=params,
                          output_dir=tmp_path / sub, seed=seed, jobs=jobs,
                          data_dir=data_dir)


def read_rows(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestVacTable:
    def test_reference_rows_reproduced(self, tmp_path):
        spec = make_spec("vac-table", {}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "vac_table.csv")
        assert header[-3:] == ["v_theory_V", "v_sim_V", "rel_diff_pct"]
        assert len(rows) == 6
        theory = [float(r[-3]) for r in rows]
        expected = [0.5, 2.0833333333333335, 1.2857142857142858,
                    0.49404761904761907, 2.154761904761905, 1.523809523809524]
        for got, want in zip(theory, expected):
            assert got == pytest.approx(want, abs=1e-9)
        for r in rows:
            assert float(r[-1]) <= 10.0  # sim within 10% of theory

    def test_unknown_key_rejected(self, tmp_path):
        spec = make_spec("vac-table", {"bogus": 1}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "ConfigError"
        assert "bogus" in manifest["error"]["message"]


class TestFixedPoints:
    def test_default_model_csv(self, tmp_path):
        spec = make_spec("fixed-points", {}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        _, rows = read_rows(spec.output_dir / "fixed_points.csv")
        points = {round(float(x), 3): stab for x, stab in rows}
        assert points.get(0.25) == "stable"
        assert points.get(0.841) == "unstable"

    def test_identity_model_degenerate(self, tmp_path):
        spec = make_spec("fixed-points", {"converter": "identity"}, tmp_path)
        run(spec)
        _, rows = read_rows(spec.output_dir / "fixed_points.csv")
        assert rows[0][1] == "degenerate-interval-start"
        assert rows[1][1] == "degenerate-interval-end"


class TestSweeps:
    def test_sweep_vdd_ratio_column(self, tmp_path):
        spec = make_spec("sweep-vdd", {"grid": [1.0, 2.0, 3.0]}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "sweep_vdd.csv")
        assert "ratio_v_over_vdd" in header
        ratios = [float(r[header.index("ratio_v_over_vdd")]) for r in rows]
        assert max(ratios) - min(ratios) < 0.005

    def test_missing_grid_reported(self, tmp_path):
        spec = make_spec("sweep-vdd", {}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert "grid" in manifest["error"]["message"]

    def test_all_points_failed_is_an_error(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"frequency": -1.0, "grid": [1.0, 2.0]}))
        out = tmp_path / "o"
        assert cli.main(["sweep-vdd", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "SweepFailedError"
        assert manifest["artifacts"] == ["sweep_vdd.csv"]
        header, rows = read_rows(out / "sweep_vdd.csv")
        assert len(rows) == 2 and all(r[header.index("error")] for r in rows)
        # the message holds a comma; quoting keeps it in the error column
        assert len(header) == 7 and all(len(r) == 7 for r in rows)
        assert rows[0][-1] == "ValueError: frequency must be > 0, got -1.0"
        # one good point keeps the run ok
        assert run(make_spec("sweep-vdd", {"grid": [-1.0, 1.0]},
                             tmp_path))["status"] == "ok"

    def test_jobs_do_not_change_bytes(self, tmp_path):
        params = {"grid": [1.0, 1.5, 2.5]}
        spec1 = make_spec("sweep-vdd", params, tmp_path, jobs=1, sub="a")
        spec2 = make_spec("sweep-vdd", params, tmp_path, jobs=3, sub="b")
        run(spec1)
        run(spec2)
        a = (spec1.output_dir / "sweep_vdd.csv").read_bytes()
        b = (spec2.output_dir / "sweep_vdd.csv").read_bytes()
        assert a == b

    def test_rerun_byte_identical(self, tmp_path):
        params = {"grid": [1e6, 1e7]}
        spec1 = make_spec("sweep-freq", params, tmp_path, sub="a")
        spec2 = make_spec("sweep-freq", params, tmp_path, sub="b")
        run(spec1)
        run(spec2)
        assert (spec1.output_dir / "sweep_freq.csv").read_bytes() == \
            (spec2.output_dir / "sweep_freq.csv").read_bytes()
        # manifests identical after normalizing wall time
        ma = json.loads((spec1.output_dir / cli.MANIFEST_NAME).read_text())
        mb = json.loads((spec2.output_dir / cli.MANIFEST_NAME).read_text())
        ma["wall_time_s"] = mb["wall_time_s"] = None
        assert ma == mb


class TestOtherKinds:
    def test_response_curve_artifacts(self, tmp_path):
        spec = make_spec("response-curve", {"grid_points": 5, "depths": [1, 2]},
                         tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "response_curve.csv")
        assert header == ["dc_in", "dc_out", "depth"]
        assert len(rows) == 10
        _, dev = read_rows(spec.output_dir / "response_deviation.csv")
        assert float(dev[1][1]) > float(dev[0][1])

    def test_raw_response_curve_golden(self, tmp_path):
        # pins the raw chain's no-oscillation cells and its deviation sums;
        # the hashes were taken from the scalar per-point implementation
        spec = make_spec("response-curve", {"converter": "raw", "grid_points": 41,
                                            "depths": [1, 2, 3, 4]}, tmp_path)
        assert run(spec)["status"] == "ok"
        curve = (spec.output_dir / "response_curve.csv").read_bytes()
        assert b"no-oscillation" in curve
        assert hashlib.sha256(curve).hexdigest() == \
            "91accf0b8942b3bd2060cb4af36808a44ded8d157677a0a1e60106fce9e497c3"
        deviation = (spec.output_dir / "response_deviation.csv").read_bytes()
        assert hashlib.sha256(deviation).hexdigest() == \
            "2762face52ce0305a7a00baef8e64891931bf37d7e9b9b5bee19e6816488b877"

    def test_fit_exact_source(self, tmp_path):
        spec = make_spec("fit", {"source": "exact", "points": 50,
                                 "grid_hi": 1.0}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "fit.csv")
        assert header == ["c3", "c2", "c1", "c0", "r2"]
        c3, c2, c1, c0, r2 = (float(v) for v in rows[0])
        assert c3 == pytest.approx(1.0727, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_dynamic_vdd_artifacts(self, tmp_path):
        spec = make_spec("dynamic-vdd", {"horizon": 20e-6}, tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "ok"
        for name in manifest["artifacts"]:
            assert (spec.output_dir / name).exists()
        header, _ = read_rows(spec.output_dir / "dynamic_trace_region_a.csv")
        assert header == ["time_s", "v_cap_V", "vdd_V"]
        for name in manifest["artifacts"]:
            _, rows = read_rows(spec.output_dir / name)
            for cell in (c for r in rows for c in r if c):
                float(cell)  # plain numbers, no numpy reprs

    def test_dynamic_vdd_simulates_each_region_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, real=transient.simulate_vac, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        for module in (cli, perceptron):
            monkeypatch.setattr(module, "simulate_vac", counting)
        spec = make_spec("dynamic-vdd", {"horizon": 5e-6}, tmp_path)
        assert run(spec)["status"] == "ok"
        assert len(calls) == 2

    def test_report_collates_manifests(self, tmp_path):
        run(make_spec("fixed-points", {}, tmp_path, sub="runs/fp"))
        run(make_spec("vac-table", {"bogus": True}, tmp_path, sub="runs/bad"))
        spec = make_spec("report", {"search_dir": str(tmp_path / "runs")},
                         tmp_path, sub="runs/report")
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "report.csv")
        kinds = {r[header.index("kind")]: r[header.index("status")] for r in rows}
        assert kinds["fixed-points"] == "ok"
        assert kinds["vac-table"] == "error"


class TestTrainKind:
    def test_missing_dataset_is_distinct_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PWMPERC_DATA_DIR", raising=False)
        monkeypatch.setattr("pwmperc.mnist._DEFAULT_DATA_DIRS", ())
        spec = make_spec("train", {"topology": "784/10", "activation": "relu",
                                   "epochs": 1}, tmp_path,
                         data_dir=str(tmp_path / "nowhere"))
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "MissingDatasetError"

    def test_small_subsampled_run(self, tmp_path, mnist_dir):
        spec = make_spec("train", {"topology": "784/10", "activation": "cap_relu",
                                   "learning_rate": 0.008, "epochs": 1,
                                   "subsample": 2000}, tmp_path,
                         data_dir=str(mnist_dir))
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "train.csv")
        row = dict(zip(header, rows[0]))
        assert row["topology"] == "784/10"
        assert 0.0 <= float(row["test_error"]) <= 100.0

    def test_train_sweep_parallel_deterministic(self, tmp_path, mnist_dir):
        configs = [
            {"topology": "784/10", "activation": "relu",
             "learning_rate": 0.01, "epochs": 1},
            {"topology": "784/10", "activation": "cap_relu",
             "learning_rate": 0.008, "epochs": 1},
        ]
        params = {"configs": configs, "subsample": 1000}
        spec1 = make_spec("train-sweep", params, tmp_path, jobs=1, sub="a",
                          data_dir=str(mnist_dir))
        spec2 = make_spec("train-sweep", params, tmp_path, jobs=2, sub="b",
                          data_dir=str(mnist_dir))
        assert run(spec1)["status"] == "ok"
        assert run(spec2)["status"] == "ok"
        assert (spec1.output_dir / "train_sweep.csv").read_bytes() == \
            (spec2.output_dir / "train_sweep.csv").read_bytes()


class TestMainEntry:
    def test_main_ok_and_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "fp.yaml"
        cfg.write_text("converter: compensated\n")
        code = cli.main(["fixed-points", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "fixed_points.csv").exists()

    def test_main_config_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("nonsense_key: 1\n")
        code = cli.main(["vac-table", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        cfg.write_text("- 1\n- 2\n")  # not a mapping
        code = cli.main(["vac-table", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_main_missing_config_file(self, tmp_path):
        code = cli.main(["vac-table", "--config", str(tmp_path / "none.yaml"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, mnist_dir):
        cfg = tmp_path / "train.yaml"
        cfg.write_text(yaml.safe_dump({
            "topology": "784/10", "activation": "relu", "epochs": 1,
            "subsample": 60000,
        }))
        code = cli.main(["train", "--config", str(cfg), "--subsample", "500",
                         "--out", str(tmp_path / "o"),
                         "--data-dir", str(mnist_dir)])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / cli.MANIFEST_NAME).read_text())
        assert manifest["parameters"]["subsample"] == 500


class TestParameters:
    def test_every_config_has_a_kind(self):
        assert {p.stem for p in CONFIG_DIR.glob("*.yaml")} == set(CONFIG_KINDS)

    @pytest.mark.parametrize("name", sorted(CONFIG_KINDS))
    def test_config_resolves_to_a_fixed_point(self, name, tmp_path):
        kind = CONFIG_KINDS[name]
        resolved = cli.resolve(make_spec(kind, load_config(name), tmp_path))
        assert cli.resolve(make_spec(kind, resolved, tmp_path)) == resolved

    @pytest.mark.parametrize("name", NON_MNIST_CONFIGS)
    def test_manifest_parameters_rerun_identically(self, name, tmp_path):
        kind = CONFIG_KINDS[name]
        first = run(make_spec(kind, load_config(name), tmp_path, sub="a"))
        assert first["status"] == "ok"
        recorded = json.loads((tmp_path / "a" / cli.MANIFEST_NAME).read_text())
        cfg = tmp_path / "resolved.yaml"
        cfg.write_text(yaml.safe_dump(recorded["parameters"]))
        assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        again = json.loads((tmp_path / "b" / cli.MANIFEST_NAME).read_text())
        assert again["parameters"] == recorded["parameters"]
        assert again["spec_hash"] == first["spec_hash"]
        for artifact in first["artifacts"]:
            assert (tmp_path / "a" / artifact).read_bytes() == \
                (tmp_path / "b" / artifact).read_bytes()

    @pytest.mark.parametrize("kind, explicit", [
        ("vac-table", {"vdd": 2.5, "preset": "small"}),
        ("fixed-points", {"converter": "compensated"}),
        ("response-curve", {"grid_points": 21, "depths": [1, 2, 3], "n": 3}),
    ])
    def test_defaults_hash_like_explicit_values(self, kind, explicit, tmp_path):
        implicit = run(make_spec(kind, {}, tmp_path, sub="a"))
        given = run(make_spec(kind, explicit, tmp_path, sub="b"))
        assert implicit["status"] == given["status"] == "ok"
        assert implicit["parameters"] == given["parameters"]
        assert implicit["spec_hash"] == given["spec_hash"]

    def test_train_sweep_configs_take_the_sweep_defaults(self, tmp_path):
        params = {"subsample": 500, "configs": [
            {"topology": "784/10", "activation": "relu"},
            {"topology": [784, 10], "activation": "relu", "subsample": 100,
             "seed": 9}]}
        resolved = cli.resolve(make_spec("train-sweep", params, tmp_path, seed=4))
        assert [(c["topology"], c["subsample"], c["seed"])
                for c in resolved["configs"]] == [([784, 10], 500, 4),
                                                  ([784, 10], 100, 9)]

    @pytest.mark.parametrize("kind, params, key", [
        ("response-curve", {"path": "transient"}, "path"),
        ("vac-table", {"r_unit": 1e5}, "r_unit"),
        ("sweep-freq", {"grid": [1e6], "c_out": 1e-10}, "c_out"),
        ("sweep-vdd", {"grid": [1.0], "vdd": 3.0}, "vdd"),
        ("vac-table", {"preset": "custom", "r_unit": 1e5}, "c_out"),
        ("fit", {"source": "exact", "frequency": 1e8}, "frequency"),
        ("train", {"topology": "784/10", "activation": "relu",
                   "max_weight": 63}, "max_weight"),
        ("train", {"topology": "784/10", "activation": "relu",
                   "mode": "integer"}, "max_weight"),
        ("train-sweep", {"configs": [{"topology": "784/10", "activation": "tanh"}]},
         "activation"),
    ])
    def test_unread_or_missing_key_named(self, kind, params, key, tmp_path):
        manifest = run(make_spec(kind, params, tmp_path))
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "ConfigError"
        assert key in manifest["error"]["message"]

    @pytest.mark.parametrize("kind, params, key", [
        ("sweep-vdd", {"frequency": math.nan, "grid": [1.0, 2.0]}, "frequency"),
        ("sweep-vdd", {"grid": [1.0, math.inf]}, "grid"),
        ("vac-table", {"vdd": -math.inf}, "vdd"),
        ("response-curve", {"grid_points": math.nan}, "grid_points"),
        ("response-curve", {"n": math.inf}, "n"),
        ("train", {"topology": "784/10", "activation": "relu",
                   "epochs": math.nan}, "epochs"),
    ])
    def test_non_finite_rejected_by_name(self, kind, params, key, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(params))  # as .nan / .inf
        assert cli.main([kind, "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        manifest = json.loads((tmp_path / "o" / cli.MANIFEST_NAME).read_text())
        assert manifest["error"]["class"] == "ConfigError"
        assert key in manifest["error"]["message"]
