import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pwmperc import (PwmSignal, SinusoidSupply, WeightVector, cli, perceptron,
                     transient)
from pwmperc.cli import ExperimentSpec, run

from conftest import write_synthetic_mnist
from snapshot_artifacts import config_kind


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Every reference config with the experiment kind it is named after.
CONFIG_KINDS = {p.stem: config_kind(p.stem) for p in CONFIG_DIR.glob("*.yaml")}
NON_MNIST_CONFIGS = sorted(name for name, kind in CONFIG_KINDS.items()
                           if not kind.startswith("train"))


def load_config(name):
    return yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())


def make_spec(kind, params, tmp_path, seed=0, jobs=1, data_dir=None,
              sub="out"):
    return ExperimentSpec(kind=kind, parameters=params,
                          output_dir=tmp_path / sub, seed=seed, jobs=jobs,
                          data_dir=data_dir)


@pytest.fixture
def small_mnist(tmp_path):
    """write_synthetic_mnist's 96 training and 32 test images."""
    data = tmp_path / "mnist"
    data.mkdir()
    write_synthetic_mnist(data)
    return data


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

    @pytest.mark.parametrize("v_th, want", [(0.4, ["0.0", "0.4", ""]),
                                            (0.0, ["0.0", "0.0", "0.0"])])
    def test_no_relative_difference_from_zero_theory(self, tmp_path, v_th, want):
        # all inputs high pull the bank to 0 V; the clamp holds it at 0.4 V,
        # which is no agreement with 0 V, so its relative difference is empty
        rows = [{"duties": [1.0, 1.0, 1.0], "weights": [7, 7, 7]}]
        spec = make_spec("vac-table", {"compensation_threshold": v_th, "rows": rows},
                         tmp_path)
        assert run(spec)["status"] == "ok"
        _, (row,) = read_rows(spec.output_dir / "vac_table.csv")
        assert row[-3:] == want

    def test_rows_skip_the_charge_time_search(self, tmp_path, monkeypatch):
        # the table writes average_v alone, so no row needs a charge time
        def no_search(*args, **kwargs):
            raise AssertionError("charge-time search run")
        monkeypatch.setattr(transient, "_charge_times", no_search)
        assert run(make_spec("vac-table", {}, tmp_path))["status"] == "ok"

    @pytest.mark.parametrize("bad, error", [
        # row 1 floats (all weights 0, clamp off); row 2's duty is out of range
        ([[0.5, 0.5, 0.5], [0, 0, 0]], ("FloatingNodeError", "the capacitor node floats")),
        # the other way round: row 1's duty fails vac_equilibrium's check
        ([[0.5, 1.5, 0.5], [7, 7, 7]], ("ValueError",
                                        "duty of input 1 must be in [0, 1], got 1.5")),
    ], ids=["floating-row-first", "bad-duty-row-first"])
    def test_first_failing_row_raises_its_own_error(self, tmp_path, bad, error):
        rows = [{"duties": [0.2, 0.6, 0.8], "weights": [5, 6, 7]},
                {"duties": bad[0], "weights": bad[1]},
                {"duties": [0.5, 0.5, -0.5], "weights": [1, 2, 4]},
                {"duties": [0.5, 0.5, 0.5], "weights": [0, 0, 0]}]
        manifest = run(make_spec("vac-table", {"rows": rows}, tmp_path))
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == error[0]
        assert error[1] in manifest["error"]["message"]

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
        for key in ("wall_time_s", "artifact_seconds"):
            ma[key] = mb[key] = None
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
        # pins the raw chain's no-oscillation cells and its deviation sums.
        # The hash of which points stall was taken from the two-segment map,
        # which the np.interp form keeps; the whole files' hashes are the
        # np.interp form's, whose duties differ in the last bits
        spec = make_spec("response-curve", {"converter": "raw", "grid_points": 41,
                                            "depths": [1, 2, 3, 4]}, tmp_path)
        assert run(spec)["status"] == "ok"
        curve = (spec.output_dir / "response_curve.csv").read_bytes()
        stalls = "".join(f"{r['dc_in']},{r['depth']},{r['dc_out'] == 'no-oscillation'}\n"
                         for r in csv.DictReader(curve.decode().splitlines()))
        assert stalls.count("True") == 81
        assert hashlib.sha256(stalls.encode()).hexdigest() == \
            "7a6eded1e88312306cdad0aba94466e66cb850ffe4202e2f7fffeafa33f2a7a3"
        assert hashlib.sha256(curve).hexdigest() == \
            "b267803e04347f84768f071671a45100559c8c522afd0ea8d4011346b22a9b44"
        deviation = (spec.output_dir / "response_deviation.csv").read_bytes()
        assert hashlib.sha256(deviation).hexdigest() == \
            "c21dabb8d5e4a10fcda2ae6e961204819e1085de7dc14710fd33a9303a88c7de"

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

    @pytest.mark.parametrize("weights_a, weights_b, b_inside_a", [
        ([7, 7, 7], [2, 2, 2], True),
        ([2, 2, 2], [7, 7, 7], False),   # B's clamp splits are times A lacks
    ])
    def test_dynamic_vdd_regions_share_cells_byte_for_byte(
            self, tmp_path, weights_a, weights_b, b_inside_a):
        spec = make_spec("dynamic-vdd", {
            "compensation_threshold": 0.4, "duties": [0.9, 0.8, 0.95],
            "weights_a": weights_a, "weights_b": weights_b, "horizon": 20e-6}, tmp_path)
        assert run(spec)["status"] == "ok"
        p = cli.resolve(spec)
        supply = SinusoidSupply(mean=p["supply_mean"], amplitude=p["supply_amplitude"],
                                period=p["supply_period"])
        sigs = [PwmSignal(p["frequency"], d) for d in p["duties"]]
        times = {}
        for tag in ("a", "b"):
            trace = transient.simulate_vac(
                cli._vac_config(p), sigs, WeightVector(tuple(p[f"weights_{tag}"]), 3),
                supply, p["horizon"])
            trace.write_csv(tmp_path / "alone.csv")
            assert (spec.output_dir / f"dynamic_trace_region_{tag}.csv").read_bytes() == \
                (tmp_path / "alone.csv").read_bytes()
            times[tag] = trace.times
        assert np.isin(times["b"], times["a"]).all() == b_inside_a

    def test_failed_run_lists_the_files_it_wrote(self, tmp_path):
        # region B floats (all weights 0, clamp off) after region A is written
        spec = make_spec("dynamic-vdd", {"weights_b": [0, 0, 0], "horizon": 5e-6},
                         tmp_path)
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "FloatingNodeError"
        assert manifest["artifacts"] == ["dynamic_trace_region_a.csv",
                                         "dynamic_duty_region_a.csv"]
        assert sorted(p.name for p in spec.output_dir.glob("*.csv")) == \
            sorted(manifest["artifacts"])

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

    def test_report_skips_a_manifest_that_is_no_object(self, tmp_path):
        run(make_spec("fixed-points", {}, tmp_path, sub="runs/fp"))
        (tmp_path / "runs" / "list").mkdir()
        (tmp_path / "runs" / "list" / cli.MANIFEST_NAME).write_text("[]\n")
        spec = make_spec("report", {"search_dir": str(tmp_path / "runs")},
                         tmp_path, sub="report")
        assert run(spec)["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "report.csv")
        assert [r[header.index("kind")] for r in rows] == ["fixed-points"]

    @pytest.mark.parametrize("content", [
        '{"kind": "caf\u00e9"}'.encode("latin-1"),
        b'{"kind": "fixed-points", "error": "boom"}',
        b'{"kind": "fixed-points", "artifacts": [1, 2]}',
    ], ids=["not-utf-8", "error-no-object", "artifacts-no-names"])
    def test_report_skips_a_malformed_manifest(self, tmp_path, content):
        run(make_spec("fixed-points", {}, tmp_path, sub="runs/fp"))
        (tmp_path / "runs" / "bad").mkdir()
        (tmp_path / "runs" / "bad" / cli.MANIFEST_NAME).write_bytes(content)
        spec = make_spec("report", {"search_dir": str(tmp_path / "runs")},
                         tmp_path, sub="report")
        assert run(spec)["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "report.csv")
        assert [r[header.index("run_dir")] for r in rows] == [str(tmp_path / "runs" / "fp")]


class TestManifest:
    def test_wall_time_ignores_a_wall_clock_step(self, tmp_path, monkeypatch):
        clock = itertools.count(2e9, -3600.0)   # an hour back at each reading
        monkeypatch.setattr(cli.time, "time", lambda: next(clock))
        manifest = run(make_spec("fixed-points", {}, tmp_path))
        assert manifest["status"] == "ok"
        assert 0.0 <= manifest["wall_time_s"] < 60.0

    @pytest.mark.parametrize("weights_b, status", [([2, 2, 2], "ok"), ([0, 0, 0], "error")])
    def test_each_artifact_has_its_seconds(self, tmp_path, weights_b, status):
        # weights 0 with the clamp off fail region B after region A's files
        spec = make_spec("dynamic-vdd", {"weights_b": weights_b, "horizon": 5e-6},
                         tmp_path)
        manifest = run(spec)
        assert manifest["status"] == status
        seconds = manifest["artifact_seconds"]
        assert len(seconds) == len(manifest["artifacts"]) == {"ok": 4, "error": 2}[status]
        assert all(s >= 0.0 for s in seconds)
        assert sum(seconds) <= manifest["wall_time_s"]
        assert json.loads((spec.output_dir / cli.MANIFEST_NAME).read_text()) == manifest


class TestTrainKind:
    def test_per_epoch_csv(self, tmp_path, small_mnist):
        spec = make_spec("train", {"topology": "784/10", "activation": "cap_relu",
                                   "learning_rate": 0.05, "epochs": 3},
                         tmp_path, data_dir=str(small_mnist))
        manifest = run(spec)
        assert manifest["status"] == "ok"
        assert "train_epochs.csv" in manifest["artifacts"]
        header, rows = read_rows(spec.output_dir / "train_epochs.csv")
        assert header == ["epoch", "train_error", "test_error", "seconds"]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        for _, train_err, test_err, seconds in rows:
            assert 0.0 <= float(train_err) <= 100.0
            assert 0.0 <= float(test_err) <= 100.0
            assert float(seconds) > 0.0
        # the last epoch's errors are the run's result
        header, final = read_rows(spec.output_dir / "train.csv")
        result = dict(zip(header, final[0]))
        assert rows[-1][1:3] == [result["train_error"], result["test_error"]]

    def test_missing_dataset_is_distinct_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PWMPERC_DATA_DIR", raising=False)
        monkeypatch.setattr("pwmperc.mnist._DEFAULT_DATA_DIRS", ())
        spec = make_spec("train", {"topology": "784/10", "activation": "relu",
                                   "epochs": 1}, tmp_path,
                         data_dir=str(tmp_path / "nowhere"))
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert manifest["error"]["class"] == "MissingDatasetError"

    def test_network_config_checked_before_the_dataset(self, tmp_path, monkeypatch):
        # no IDX files: the config's own fault is reported, not the missing data
        monkeypatch.delenv("PWMPERC_DATA_DIR", raising=False)
        monkeypatch.setattr("pwmperc.mnist._DEFAULT_DATA_DIRS", ())
        spec = make_spec("train", {"topology": "784/10", "activation": "relu",
                                   "batch": 0}, tmp_path,
                         data_dir=str(tmp_path / "nowhere"))
        manifest = run(spec)
        assert manifest["error"] == {"class": "ValueError",
                                     "message": "batch must be >= 1, got 0"}
        assert manifest["artifacts"] == []

    def test_train_sweep_checks_every_config_before_any_trains(
            self, tmp_path, small_mnist, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.nn, "train", lambda *args: calls.append("train"))
        monkeypatch.setattr(cli.mnist, "load_mnist", lambda *args: calls.append("load"))
        config = {"topology": "784/10", "activation": "relu", "epochs": 1}
        spec = make_spec("train-sweep", {"configs": [config, {**config, "batch": 0}]},
                         tmp_path, data_dir=str(small_mnist))
        manifest = run(spec)
        assert manifest["error"] == {
            "class": "ValueError",
            "message": "train-sweep.configs[1]: batch must be >= 1, got 0"}
        assert calls == [] and manifest["artifacts"] == []

    def test_small_subsampled_run(self, tmp_path, train_dir):
        spec = make_spec("train", {"topology": "784/10", "activation": "cap_relu",
                                   "learning_rate": 0.008, "epochs": 1,
                                   "subsample": 2000}, tmp_path,
                         data_dir=str(train_dir))
        manifest = run(spec)
        assert manifest["status"] == "ok"
        header, rows = read_rows(spec.output_dir / "train.csv")
        row = dict(zip(header, rows[0]))
        assert row["topology"] == "784/10"
        assert 0.0 <= float(row["test_error"]) <= 100.0

    def test_untrained_run_evaluates_no_weight_above_the_bound(self, tmp_path,
                                                               small_mnist):
        # with no epoch, nothing would catch initial weights above max_weight
        spec = make_spec("train", {"topology": "784/10", "activation": "cap_relu",
                                   "epochs": 0, "mode": "integer", "max_weight": 7,
                                   "initial_weight": 50}, tmp_path,
                         data_dir=str(small_mnist))
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert "initial_weight" in manifest["error"]["message"]
        assert manifest["artifacts"] == []

    @pytest.mark.parametrize("value", [-0.5, float("inf"), float("nan")])
    def test_ill_posed_fp_initial_weight_named(self, tmp_path, small_mnist, value):
        spec = make_spec("train", {"topology": "784/10", "activation": "cap_relu",
                                   "epochs": 1, "initial_weight": value}, tmp_path,
                         data_dir=str(small_mnist))
        manifest = run(spec)
        assert manifest["status"] == "error"
        assert "initial_weight must be finite" in manifest["error"]["message"]
        assert manifest["artifacts"] == []

    @pytest.mark.parametrize("flag", [False, True])
    def test_zero_subsample_rejected(self, flag, tmp_path, small_mnist):
        cfg = tmp_path / "train.yaml"
        params = {"topology": "784/10", "activation": "relu", "epochs": 1}
        cfg.write_text(yaml.safe_dump(params if flag else {**params, "subsample": 0}))
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--data-dir", str(small_mnist)] + (["--subsample", "0"] if flag else [])
        assert cli.main(argv) == 1
        manifest = json.loads((tmp_path / "o" / cli.MANIFEST_NAME).read_text())
        assert manifest["parameters"]["subsample"] == 0
        assert manifest["error"]["message"] == "subsample size 0 outside [1, 96]"
        assert manifest["artifacts"] == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, jobs, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump({"configs": [
            {"topology": "784/10", "activation": "relu", "epochs": 1}]}))
        assert cli.main(["train-sweep", "--config", str(cfg), "--jobs", jobs,
                         "--out", str(tmp_path / "o")]) == 2
        manifest = json.loads((tmp_path / "o" / cli.MANIFEST_NAME).read_text())
        assert manifest["error"] == {"class": "ConfigError",
                                     "message": f"jobs must be >= 1, got {jobs}"}

    # jobs and data_dir are spec fields, not keys: a kind that does not read
    # one rejects it by name rather than ignoring it
    @pytest.mark.parametrize("kind, field, value", [
        ("sweep-vdd", "jobs", 3), ("vac-table", "jobs", 0), ("train", "jobs", 2),
        ("fixed-points", "data_dir", "x"), ("dynamic-vdd", "data_dir", "x")])
    def test_unread_spec_field_rejected_by_name(self, kind, field, value, tmp_path):
        spec = make_spec(kind, {}, tmp_path, **{field: value})
        manifest = cli.run(spec)
        assert manifest["error"]["class"] == "ConfigError"
        assert manifest["error"]["message"].startswith(f"{field} is read by")
        assert manifest["artifacts"] == []
        with pytest.raises(cli.ConfigError, match=f"^{field} is read by"):
            cli.resolve(spec)

    @pytest.mark.parametrize("kind, params, field, value", [
        ("train", {"topology": "784/10", "activation": "relu"}, "data_dir", "x"),
        ("train-sweep", {"configs": [{"topology": "784/10", "activation": "relu"}]},
         "data_dir", "x"),
        ("train-sweep", {"configs": [{"topology": "784/10", "activation": "relu"}]},
         "jobs", 2)])
    def test_read_spec_field_accepted(self, kind, params, field, value, tmp_path):
        cli.resolve(make_spec(kind, params, tmp_path, **{field: value}))

    def test_train_sweep_starts_a_worker_per_config_at_most(
            self, tmp_path, small_mnist, monkeypatch):
        # a forking pool starts all its workers at once, used or not
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        config = {"topology": "784/10", "activation": "relu", "epochs": 1}
        for n_configs, sub in ((2, "two"), (1, "one")):
            spec = make_spec("train-sweep", {"configs": [config] * n_configs},
                             tmp_path, jobs=8, sub=sub, data_dir=str(small_mnist))
            assert run(spec)["status"] == "ok"
        assert sizes == [2]

    def test_train_sweep_parallel_deterministic(self, tmp_path, train_dir):
        configs = [
            {"topology": "784/10", "activation": "relu",
             "learning_rate": 0.01, "epochs": 1},
            {"topology": "784/10", "activation": "cap_relu",
             "learning_rate": 0.008, "epochs": 1},
        ]
        params = {"configs": configs, "subsample": 1000}
        spec1 = make_spec("train-sweep", params, tmp_path, jobs=1, sub="a",
                          data_dir=str(train_dir))
        spec2 = make_spec("train-sweep", params, tmp_path, jobs=2, sub="b",
                          data_dir=str(train_dir))
        assert run(spec1)["status"] == "ok"
        assert run(spec2)["status"] == "ok"
        assert (spec1.output_dir / "train_sweep.csv").read_bytes() == \
            (spec2.output_dir / "train_sweep.csv").read_bytes()


class TestMainEntry:
    def test_importing_cli_loads_no_yaml(self):
        # only main reads YAML, so an import of the module does without it
        code = "import sys, pwmperc.cli; sys.exit('yaml' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

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

    # a subcommand takes only the flags it reads
    @pytest.mark.parametrize("argv", [["sweep-vdd", "--jobs", "3"],
                                      ["fixed-points", "--data-dir", "x"]],
                             ids=["sweep-vdd-jobs", "fixed-points-data-dir"])
    def test_unread_flag_exits_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        cfg = tmp_path / "train.yaml"
        cfg.write_text("topology: 784/10\nactivation: relu\n")
        code = cli.main(["train", "--config", str(cfg), "--seed", "-1",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "train.seed must be >= 0, got -1" in capsys.readouterr().err

    def test_main_missing_config_file(self, tmp_path):
        code = cli.main(["vac-table", "--config", str(tmp_path / "none.yaml"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, train_dir):
        cfg = tmp_path / "train.yaml"
        cfg.write_text(yaml.safe_dump({
            "topology": "784/10", "activation": "relu", "epochs": 1,
            "subsample": 60000,
        }))
        code = cli.main(["train", "--config", str(cfg), "--subsample", "500",
                         "--out", str(tmp_path / "o"),
                         "--data-dir", str(train_dir)])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / cli.MANIFEST_NAME).read_text())
        assert manifest["parameters"]["subsample"] == 500


class TestParameters:
    def test_every_config_has_a_kind(self):
        assert CONFIG_KINDS and set(CONFIG_KINDS.values()) <= set(cli.KINDS)

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

    @pytest.mark.parametrize("kind, params, message", [
        ("response-curve", {"grid_points": -1}, "response-curve.grid_points must be >= 1"),
        ("response-curve", {"grid_points": 0}, "response-curve.grid_points must be >= 1"),
        ("fit", {"points": -3}, "fit.points must be >= 4"),
        ("fit", {"points": 2}, "fit.points must be >= 4"),
        # every list key needs an entry
        ("response-curve", {"depths": []}, "response-curve.depths must not be empty"),
        ("vac-table", {"rows": []}, "vac-table.rows must not be empty"),
        ("train-sweep", {"configs": []}, "train-sweep.configs must not be empty"),
        ("sweep-vdd", {"grid": []}, "sweep-vdd.grid must not be empty"),
        ("sweep-freq", {"grid": []}, "sweep-freq.grid must not be empty"),
    ])
    def test_too_few_points_rejected_by_name(self, kind, params, message, tmp_path):
        manifest = run(make_spec(kind, params, tmp_path))
        assert manifest["error"]["class"] == "ConfigError"
        assert manifest["error"]["message"].startswith(message)
        assert manifest["artifacts"] == []

    # fit's grid holds input duties from 0 to grid_hi
    @pytest.mark.parametrize("kind, params, message", [
        ("fit", {"grid_hi": 0}, "fit.grid_hi must be in (0, 1]"),
        ("fit", {"grid_hi": -0.5}, "fit.grid_hi must be in (0, 1]"),
        ("fit", {"grid_hi": 1.5}, "fit.grid_hi must be in (0, 1]"),
        ("response-curve", {"depths": [2, 0]}, "response-curve.depths[1] must be >= 1"),
        # a bool is no number, though Python counts it an int
        ("vac-table", {"vdd": True}, "vac-table.vdd must be a number, got True"),
        ("train", {"topology": "784/10", "activation": "relu", "epochs": True},
         "train.epochs must be a number, got True"),
        ("response-curve", {"depths": [1, False]},
         "response-curve.depths[1] must be a number, got False"),
        # numpy would fail on a negative seed in Network.from_config
        ("train", {"topology": "784/10", "activation": "relu", "seed": -1},
         "train.seed must be >= 0, got -1"),
    ])
    def test_out_of_range_key_rejected_by_name(self, kind, params, message, tmp_path):
        manifest = run(make_spec(kind, params, tmp_path))
        assert manifest["error"]["class"] == "ConfigError"
        assert manifest["error"]["message"].startswith(message)
        assert manifest["artifacts"] == []

    @pytest.mark.parametrize("kind, params", [
        ("response-curve", {"grid_points": 1, "depths": [1]}), ("fit", {"points": 4}),
        ("fit", {"grid_hi": 1.0})])
    def test_fewest_points_accepted(self, kind, params, tmp_path):
        assert run(make_spec(kind, params, tmp_path))["status"] == "ok"

    # an int key keeps an integer exact past 2^53, where a float rounds it
    @pytest.mark.parametrize("kind, params, key, want", [
        ("train", {"topology": "784/10", "activation": "relu", "seed": 2 ** 60 + 1},
         "seed", 2 ** 60 + 1),
        # the default weights, 2^70 - 1, are the largest that k = 70 bits hold
        ("sweep-vdd", {"k": 70, "grid": [2.5]}, "weights", [2 ** 70 - 1] * 3),
    ])
    def test_integers_resolve_exactly(self, kind, params, key, want, tmp_path):
        assert cli.resolve(make_spec(kind, params, tmp_path))[key] == want

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
