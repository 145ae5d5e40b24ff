"""tools/snapshot_artifacts.py: the reference runs it covers and the tree it
writes."""

import csv
import json
from pathlib import Path

from pwmperc import cli
from pwmperc.analytic import WeightVector, vac_equilibrium

import snapshot_artifacts

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_reference_runs_cover_every_config():
    runs = list(snapshot_artifacts.reference_runs())
    names = [name for name, _, _ in runs]
    assert len(names) == len(set(names))
    configs = {p.stem for p in CONFIG_DIR.glob("*.yaml")}
    assert configs and configs <= set(names)
    assert {kind for _, kind, _ in runs} >= {"train", "train-sweep"}


def test_training_runs_are_short():
    epochs = snapshot_artifacts.TRAIN_EPOCHS
    for _, kind, params in snapshot_artifacts.reference_runs():
        if kind == "train":
            assert params["epochs"] == epochs
        elif kind == "train-sweep":
            assert params["subsample"] == snapshot_artifacts.SWEEP_SUBSAMPLE
            assert all(c["epochs"] == epochs for c in params["configs"])


def test_main_writes_a_clean_manifest_per_run(tmp_path, capsys):
    assert snapshot_artifacts.main([str(tmp_path)]) == 0
    names = [name for name, _, _ in snapshot_artifacts.reference_runs()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        manifest = json.loads((tmp_path / name / cli.MANIFEST_NAME).read_text())
        assert manifest["status"] == "ok", (name, manifest["error"])
        assert "wall_time_s" not in manifest and "artifact_seconds" not in manifest
        for artifact in manifest["artifacts"]:
            assert (tmp_path / name / artifact).is_file()
    # training curves keep their errors and lose the wall-clock column
    for curves in tmp_path.glob("*/train_epochs.csv"):
        header, *rows = curves.read_text().splitlines()
        assert header == "epoch,train_error,test_error"
        assert [row.split(",")[0] for row in rows] == \
            [str(e + 1) for e in range(snapshot_artifacts.TRAIN_EPOCHS)]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_clamped_runs_engage_the_clamp(tmp_path):
    # no config sets compensation_threshold: these two runs are what puts
    # the clamp paths of the trace and of the batch into the snapshot
    runs = {name: (kind, params) for name, kind, params
            in snapshot_artifacts.reference_runs()}
    v_th = snapshot_artifacts.CLAMP_V
    outputs = {}
    for name in ("dynamic_vdd_clamped", "sweep_vdd_clamped"):
        kind, params = runs[name]
        assert params["compensation_threshold"] == v_th
        spec = cli.ExperimentSpec(kind=kind, parameters=params,
                                  output_dir=tmp_path / name, seed=0)
        assert cli.run(spec)["status"] == "ok"
        outputs[name] = spec.parameters
    # the trace sits on the threshold for a share of its samples, and never
    # below it
    v = [float(r["v_cap_V"]) for r in read_rows(
        tmp_path / "dynamic_vdd_clamped" / "dynamic_trace_region_a.csv")]
    assert min(v) == v_th and sum(x == v_th for x in v) > len(v) // 10
    # the clamp lifts a steady-state average that would lie below it
    params = outputs["sweep_vdd_clamped"]
    w = WeightVector(tuple(params["weights"]), 3)
    lifted = [row for row in read_rows(tmp_path / "sweep_vdd_clamped" / "sweep_vdd.csv")
              if vac_equilibrium(params["duties"], w, float(row["vdd"])) < v_th
              <= float(row["average_v_V"])]
    assert lifted


def test_synthetic_set_is_seeded_and_loads(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        snapshot_artifacts.write_synthetic_mnist(tmp_path / sub)
    a, b = (sorted(p.read_bytes() for p in (tmp_path / sub).iterdir())
            for sub in ("a", "b"))
    assert a == b
    train = cli.mnist.load_mnist(tmp_path / "a", "train")
    assert train.images.shape == (snapshot_artifacts.SYNTHETIC_SIZES["train"], 784)
    assert set(train.labels.tolist()) == set(range(10))


def test_compare_reports_each_differing_column(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        (root / "run").mkdir(parents=True)
        (root / "same.csv").write_text("x,y\n1.0,2.0\n")
    (base / "run" / "sweep.csv").write_text(
        "vdd,average_v_V,error\n1.0,0.5,\n2.0,1.0000000000000002,\n3.0,1.5,\n")
    (head / "run" / "sweep.csv").write_text(
        "vdd,average_v_V,error\n1.0,0.5000000000000001,\n2.0,1.0,\n3.0,1.5,boom\n")
    # ulps of the base cell: 3 at 0.1, 1 at 0.0 (the least subnormal, relative 1),
    # half of one at a power of two (below it floats lie twice as close)
    (base / "run" / "ulps.csv").write_text("a,b,c\n0.1,0.0,2.0\n0.25,1.0,1.0\n")
    (head / "run" / "ulps.csv").write_text(
        "a,b,c\n0.10000000000000005,5e-324,1.9999999999999998\n0.25,1.0,1.0\n")
    (base / "run" / "shape.csv").write_text("a\n1\n")
    (head / "run" / "shape.csv").write_text("a\n1\n2\n")
    (head / "new.csv").write_text("a\n1\n")
    assert snapshot_artifacts.main(["--compare", str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "new.csv: only in head",
        "run/shape.csv: header or shape differs",
        "run/sweep.csv average_v_V: 2 cells, max abs 2.22e-16, max rel 2.22e-16, max 1 ulp",
        "run/sweep.csv error: 1 cells, not numeric",
        "run/ulps.csv a: 1 cells, max abs 4.16e-17, max rel 4.16e-16, max 3 ulp",
        "run/ulps.csv b: 1 cells, max abs 4.94e-324, max rel 1, max 1 ulp",
        "run/ulps.csv c: 1 cells, max abs 2.22e-16, max rel 1.11e-16, max 0.5 ulp",
    ]


def test_compare_of_equal_trees(tmp_path, capsys):
    for root in ("base", "head"):
        (tmp_path / root).mkdir()
        (tmp_path / root / "a.csv").write_text("x\n-0.0\n")
    assert snapshot_artifacts.main(["--compare", str(tmp_path / "base"),
                                    str(tmp_path / "head")]) == 0
    assert capsys.readouterr().out == "No CSV differs.\n"


def test_raw_chain_run_stalls_at_every_depth(tmp_path):
    # no config runs the raw converter's chain: this run puts it into the
    # snapshot, with stalled and oscillating points at each of depths 1-8
    runs = {name: (kind, params) for name, kind, params
            in snapshot_artifacts.reference_runs()}
    kind, params = runs["response_curve_raw"]
    spec = cli.ExperimentSpec(kind=kind, parameters=params, output_dir=tmp_path, seed=0)
    assert cli.run(spec)["status"] == "ok"
    assert spec.parameters["converter"] == "raw"
    rows = read_rows(tmp_path / "response_curve.csv")
    for depth in range(1, 9):
        cells = [row["dc_out"] for row in rows if row["depth"] == str(depth)]
        assert len(cells) == 101
        assert 0 < cells.count("no-oscillation") < len(cells)


def test_width_runs_depart_from_theory_where_clamped(tmp_path):
    # no config runs a wide bank: these runs put the 784-input timeline into
    # the snapshot, clamp off and at 0.4 V
    runs = {name: (kind, params) for name, kind, params
            in snapshot_artifacts.reference_runs()}
    shares = [sum(d > 0 for d in row["duties"]) / snapshot_artifacts.WIDTH_N
              for row in snapshot_artifacts.width_rows()]
    assert shares == sorted(shares)
    assert abs(shares[0] - 0.2) < 0.01 and abs(shares[-1] - 0.9) < 0.01
    for name, v_th in snapshot_artifacts.WIDTH_RUNS:
        kind, params = runs[name]
        assert (params["n"], params["k"], params["vdd"]) == (784, 6, 1.5)
        spec = cli.ExperimentSpec(kind=kind, parameters=params,
                                  output_dir=tmp_path / name, seed=0)
        assert cli.run(spec)["status"] == "ok"
        rows = read_rows(tmp_path / name / "vac_table.csv")
        assert len(rows) == 8
        lifts = [float(r["v_sim_V"]) - float(r["v_theory_V"]) for r in rows]
        if v_th:
            # the densest row pulls below the threshold, which lifts its
            # average above the closed form
            assert max(lifts) > 1e-3 * 1.5
        else:
            assert max(map(abs, lifts)) <= 1e-14 * 1.5
