"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import pwmperc  # noqa: E402
import run  # noqa: E402
import synth_mnist  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name, tmp_path, seed=3):
    w = workloads.WORKLOADS[name](ROOT, tmp_path, seed, scale=0.05)
    w.setup()
    return w


def one_pass(w, tracer=None):
    with w.hooks():
        if tracer is None:
            return w.run_pass(workloads.Parts())
        with tracer.instrument():
            return w.run_pass(workloads.Parts())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = set(tracing.Tracer().layer_metrics(0.0)) | {"trace.overhead_s"}
    assert set(per_layer) == traced | set(run.OUTPUT_METRICS)
    assert all(per_layer[k] == u for k, u in run.OUTPUT_METRICS.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_pass_is_correct_and_quick(name, tmp_path):
    start = time.perf_counter()
    w = small(name, tmp_path)
    tracer = tracing.Tracer()
    o = w.check(one_pass(w, tracer))
    assert o.problems == []
    assert o.attempted > 0 and o.failed == 0
    m = tracer.layer_metrics(1.0)
    assert m["cli.run.s"] > 0 or m["perceptron.response_curve.s"] > 0
    assert time.perf_counter() - start < 60


def test_same_seed_same_outputs(tmp_path):
    a = small("stage-chain", tmp_path / "a", seed=5)
    b = small("stage-chain", tmp_path / "b", seed=5)
    assert a.models["seeded"] == b.models["seeded"]
    assert small("stage-chain", tmp_path / "c", seed=6).models["seeded"] != a.models["seeded"]


def test_perturbed_csv_value_trips_checks(tmp_path):
    w = small("ref-configs", tmp_path)
    one_pass(w)
    assert w.check(None).problems == []
    path = tmp_path / "response_curve" / "response_curve.csv"
    lines = path.read_text().splitlines()
    x, y, depth = lines[5].split(",")
    lines[5] = f"{x},{float(y) + 1e-6!r},{depth}"
    path.write_text("\n".join(lines) + "\n")
    assert any("response_curve" in p for p in w.check(None).problems)


def test_failed_sweep_point_raises_failed_count(tmp_path):
    w = small("ref-configs", tmp_path)
    w.runs = [("sweep_vdd", "sweep-vdd",
               {"duties": [0.5] * 3, "weights": [7] * 3, "grid": [-1.0, 1.0]})]
    one_pass(w)
    o = w.check(None)
    assert (o.attempted, o.failed) == (3, 1)


def test_failed_run_is_counted(tmp_path):
    w = small("ref-configs", tmp_path)
    w.runs = [("bad", "vac-table", {"no_such_key": 1})]
    one_pass(w)
    o = w.check(None)
    assert (o.attempted, o.failed) == (1, 1) and o.problems


def test_fixed_point_off_the_map_trips_checks(tmp_path):
    path = tmp_path / "fixed_points.csv"
    path.write_text("x,stability\n0.5,stable\n")
    o = workloads.Outcome()
    workloads.check_fixed_points(path, workloads.PAPER_CUBIC, "fp", o)
    assert o.problems


def test_clamp_violation_trips_checks():
    cfg = pwmperc.VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=workloads.CLAMP_V)
    trace = pwmperc.simulate_vac(cfg, [pwmperc.PwmSignal(1e8, d) for d in
                                       workloads.CLAMP_DUTIES],
                                 pwmperc.WeightVector((7, 7, 7), 3),
                                 pwmperc.ConstantSupply(2.5), 2e-6)
    o = workloads.Outcome()
    workloads.check_clamped_trace(trace, 2.5, o)
    assert o.problems == []
    trace.seg_v1[trace.seg_clamped.nonzero()[0][0]] = workloads.CLAMP_V - 1e-3
    workloads.check_clamped_trace(trace, 2.5, o)
    assert o.problems


def test_integer_weight_out_of_bounds_trips_checks():
    cfg = pwmperc.NetworkConfig((784, 10), pwmperc.ActivationKind.CAP_RELU, 0.04,
                                mode="integer", max_weight=63, initial_weight=3)
    net = pwmperc.Network.from_config(cfg)
    images, labels = np.zeros((4, 784)), np.arange(4)
    o = workloads.Outcome()
    workloads.check_network(net, images, labels, o)
    assert o.problems == []
    net.layers[0].weights[0, 0] = 64.0
    workloads.check_network(net, images, labels, o)
    assert o.problems


def test_numpy_repr_cells_are_counted():
    o = workloads.Outcome()
    assert workloads.cell_value("np.float64(0.25)", o) == 0.25
    assert workloads.cell_value("0.5", o) == 0.5
    assert o.malformed == 1


def test_derived_supply_calls_match_real_calls():
    cfg = pwmperc.VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=workloads.CLAMP_V)
    sigs = [pwmperc.PwmSignal(1e8, d, p) for d, p in
            zip(workloads.CLAMP_DUTIES, (0.0, 3e-9, 7e-9))]
    w = pwmperc.WeightVector((7, 7, 7), 3)
    for supply in (pwmperc.SinusoidSupply(2.5, 0.7, 1e-6),
                   pwmperc.PiecewiseLinearSupply(((0.0, 2.0), (2e-6, 3.0), (4e-6, 1.9)))):
        calls = [0]
        real = type(supply).value_at

        def counting(self, t, real=real):
            calls[0] += 1
            return real(self, t)
        tracer = tracing.Tracer()
        with tracing.patched(type(supply), "value_at", lambda f: counting), \
                tracer.instrument():
            trace = pwmperc.simulate_vac(cfg, sigs, w, supply, 4e-6)
        assert trace.seg_clamped.any()
        assert tracer.counts["signals.supply_value_at.calls"] == calls[0]


def test_layer_self_times_add_up_to_the_pass(tmp_path):
    w = small("supply-clamp", tmp_path)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    one_pass(w, tracer)
    wall = time.perf_counter() - t0
    m = tracer.layer_metrics(wall)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["bench.self_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert m["transient.clamped_share"] > 0


def test_host_speed_sampler_and_charge():
    before = signal.getsignal(signal.SIGALRM)
    s = hostspeed.Sampler()
    with s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    spent, mean = s.window(t0, t1)
    assert len(s.took) > 5 and 0.0 < spent < t1 - t0 and mean >= min(s.took)
    # a window without a probe borrows its neighbours' mean
    assert s.window(t1 + 1.0, t1 + 2.0) == (0.0, s.took[-1])
    ref = hostspeed.REFERENCE_PROBE
    assert hostspeed.charge(1.0, 0.1, 2 * ref) == pytest.approx(0.45)
    r = run.import_record()
    assert r["seconds"] > r["probe_seconds"] >= 0.0 and r["mean_probe"] > 0.0


def test_synthetic_mnist_is_valid_idx_and_seeded(tmp_path):
    synth_mnist.generate(tmp_path / "a", 7, n_train=300, n_test=100)
    synth_mnist.generate(tmp_path / "b", 7, n_train=300, n_test=100)
    train = pwmperc.load_mnist(tmp_path / "a", "train")
    test = pwmperc.load_mnist(tmp_path / "a", "test")
    assert train.images.shape == (300, 784) and test.images.shape == (100, 784)
    assert set(np.unique(train.labels)) <= set(range(10))
    for name in synth_mnist.TRAIN_FILES + synth_mnist.TEST_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synthetic_mnist_is_learnable(tmp_path):
    synth_mnist.generate(tmp_path, 4, n_train=6000, n_test=1000)
    train = pwmperc.load_mnist(tmp_path, "train")
    test = pwmperc.load_mnist(tmp_path, "test")
    _, params, max_err = workloads.TRAIN_CONFIGS[1]
    cfg = pwmperc.NetworkConfig((784, 10), pwmperc.ActivationKind.CAP_RELU,
                                params["learning_rate"], epochs=1, mode="integer",
                                max_weight=63, initial_weight=3)
    report = pwmperc.train(pwmperc.Network.from_config(cfg), train, test, cfg)
    assert report.test_error < max_err


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                          "stage-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
