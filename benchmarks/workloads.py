"""The benchmark's workloads: inputs made from a seed, one timed pass that
calls the package only through ``cli.run`` or its public functions, and output
checks that do not depend on timing.

Each workload has the same shape:

* ``setup()`` makes the inputs; it is timed several times for ``setup_s``;
* ``run_pass(part)`` is the timed pass and returns what the checks need;
  it wraps each call into the package in ``with part(name):``, so that
  each part is timed on its own;
* ``hooks()`` is a context open during each pass, for checks that need an
  object the pass does not return (the trained network);
* ``check(out)`` returns an ``Outcome``: attempted and failed operations,
  problems found, and the workload size.

The checks use oracles of their own (the closed-form VAC equilibrium and the
paper's stage cubic), not the package functions they check.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import pwmperc
import pwmperc.cli

import synth_mnist
import tracing

# The compensated stage cubic fitted in the paper: percent out vs x in [0, 1].
PAPER_CUBIC = (107.27, -53.25, 52.92, 13.44)
PAPER_CAP = 98.0
FIXED_POINT_TOL = 1e-5
V_EPS = 1e-12


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    size: dict[str, int] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    malformed: int = 0     # numeric CSV cells not written as plain numbers

    def problem(self, where: str, what: str) -> None:
        self.problems.append(f"{where}: {what}")

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(p for p in other.problems if p not in self.problems)
        self.size = other.size
        self.quality = other.quality
        self.malformed = other.malformed


class Parts:
    """Start and end (host seconds) of each named part of one pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter()))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def vac_theory(duties, weights, vdd: float, k: int = 3) -> float:
    """Averaged VAC equilibrium: vdd * (1 - sum(d_i W_i) / (n (2^k - 1)))."""
    acc = sum(float(d) * int(w) for d, w in zip(duties, weights))
    return vdd * (1.0 - acc / (len(weights) * (2 ** k - 1)))


def stage(x, coeffs=PAPER_CUBIC, cap: float = PAPER_CAP):
    """One compensated stage: min(cubic(x), cap) / 100, floored at 0."""
    c3, c2, c1, c0 = coeffs
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(np.minimum(((c3 * x + c2) * x + c1) * x + c0, cap), 0.0) / 100.0


# ---------------------------------------------------------------------------
# run directories: manifests and CSV files
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(path: Path, name: str) -> np.ndarray:
    """One numeric column of a CSV file, as float64."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(name),
                      ndmin=1)


def floats(values) -> np.ndarray:
    return np.array([float(v) for v in values], dtype=np.float64)


_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def cell_value(cell: str, o: Outcome) -> float:
    """A numeric CSV cell.

    The CSV writer formats numpy scalars with their repr, as in
    ``np.float64(0.5)``. That known defect is counted in ``o.malformed`` and
    reported, not failed, so that every run does not fail until it is fixed;
    the cell is then read as its number.
    """
    m = _NUMPY_REPR.match(cell)
    if m:
        o.malformed += 1
        cell = m.group(1)
    return float(cell)


def account_run(out_dir: Path, tag: str, outcome: Outcome) -> list[str]:
    """Count one cli run and the points of its CSV files with an ``error``
    column; a point fails when its error cell is not empty.

    Returns the artifact names of a run that succeeded, else [].
    """
    outcome.attempted += 1
    manifest = json.loads((out_dir / pwmperc.cli.MANIFEST_NAME).read_text())
    if manifest["status"] != "ok":
        outcome.failed += 1
        outcome.problem(tag, f"run failed: {manifest['error']}")
        return []
    for name in manifest["artifacts"]:
        header, rows = read_csv(out_dir / name)
        if "error" not in header:
            continue
        col = header.index("error")
        outcome.attempted += len(rows)
        bad = [r for r in rows if r[col]]
        outcome.failed += len(bad)
        for r in bad[:3]:
            outcome.problem(f"{tag}/{name}", f"point failed: {r[col]}")
    return manifest["artifacts"]


def run_cli(kind: str, params: dict, out_dir: Path, seed: int, **extra) -> None:
    spec = pwmperc.cli.ExperimentSpec(kind=kind, parameters=params,
                                      output_dir=out_dir, seed=seed, jobs=1, **extra)
    pwmperc.cli.run(spec)


def check_trace_csv(path: Path, tag: str, v_max: float, v_th: float,
                    outcome: Outcome) -> int:
    """Capacitor samples lie in [v_th, v_max]; returns the sample count."""
    v = column(path, "v_cap_V")
    if not np.all(np.isfinite(v)):
        outcome.problem(tag, "non-finite v_cap")
    lo, hi = float(v.min()), float(v.max())
    if lo < v_th - V_EPS or hi > v_max + V_EPS:
        outcome.problem(tag, f"v_cap range [{lo}, {hi}] outside [{v_th}, {v_max}]")
    return len(v)


def check_duty_csv(path: Path, tag: str, outcome: Outcome) -> None:
    """Times are finite and increasing, duty_out is empty (stalled
    oscillator) or in [0, 1]."""
    _, rows = read_csv(path)
    ts = np.array([cell_value(r[0], outcome) for r in rows])
    duty = np.array([cell_value(r[1], outcome) for r in rows if r[1]])
    ratio = np.array([cell_value(r[2], outcome) for r in rows])
    if not (np.all(np.diff(ts) > 0) and np.all(np.isfinite(ratio))):
        outcome.problem(tag, "times not increasing or ratio not finite")
    if len(duty) and (duty.min() < 0.0 or duty.max() > 1.0):
        outcome.problem(tag, "duty_out outside [0, 1]")


# ---------------------------------------------------------------------------
# ref-configs
# ---------------------------------------------------------------------------

# Every reference config that needs no MNIST files, with its experiment kind.
REF_CONFIGS = {
    "dynamic_vdd": "dynamic-vdd",
    "fit_behavioral": "fit",
    "fit_transient": "fit",
    "response_curve": "response-curve",
    "sweep_freq_large": "sweep-freq",
    "sweep_freq_small": "sweep-freq",
    "sweep_vdd": "sweep-vdd",
}
# The weighted-adder table at both presets, and the stage-map fixed points.
EXTRA_RUNS = (
    ("vac_table", "vac-table", {}),
    ("vac_table_large", "vac-table", {"preset": "large"}),
    ("fixed_points", "fixed-points", {}),
)


class RefConfigs:
    """cli.run on every non-MNIST reference config, the vac-table at both
    presets, and the fixed points: the behaviour contract of the package."""

    name = "ref-configs"

    def __init__(self, root: Path, work: Path, seed: int, scale: float = 1.0):
        self.root, self.work, self.seed, self.scale = root, work, seed, scale
        self.runs: list[tuple[str, str, dict]] = []

    def setup(self) -> None:
        runs = []
        for tag, kind in REF_CONFIGS.items():
            params = yaml.safe_load((self.root / "configs" / f"{tag}.yaml").read_text())
            if self.scale < 1.0 and "grid" in params:
                params["grid"] = params["grid"][:max(1, int(len(params["grid"]) * self.scale))]
            if self.scale < 1.0 and tag == "dynamic_vdd":
                params["horizon"] = params["horizon"] * self.scale
            runs.append((tag, kind, params))
        runs.extend(EXTRA_RUNS)
        self.runs = runs

    def hooks(self):
        return contextlib.nullcontext()

    def run_pass(self, part):
        for tag, kind, params in self.runs:
            with part(tag):
                run_cli(kind, dict(params), self.work / tag, self.seed)
        return None

    def check(self, _out) -> Outcome:
        o = Outcome()
        errors = []
        size = {"runs": len(self.runs), "table_rows": 0, "sweep_points": 0,
                "trace_samples": 0, "curve_points": 0}
        for tag, kind, params in self.runs:
            out_dir = self.work / tag
            artifacts = account_run(out_dir, tag, o)
            if not artifacts:
                continue
            if kind == "vac-table":
                table = self._check_table(out_dir / "vac_table.csv", params, tag, o)
                errors += table
                size["table_rows"] += len(table)
            elif kind in ("sweep-vdd", "sweep-freq"):
                name = artifacts[0]
                errors += self._check_sweep(out_dir / name, kind, params, tag, o)
                size["sweep_points"] += len(read_csv(out_dir / name)[1])
            elif kind == "dynamic-vdd":
                v_max = params["supply_mean"] + abs(params["supply_amplitude"])
                for name in artifacts:
                    if name.startswith("dynamic_trace"):
                        size["trace_samples"] += check_trace_csv(
                            out_dir / name, f"{tag}/{name}", v_max, 0.0, o)
                    else:
                        check_duty_csv(out_dir / name, f"{tag}/{name}", o)
            elif kind == "fit":
                self._check_fit(out_dir, params, tag, o)
            elif kind == "response-curve":
                size["curve_points"] += self._check_response(out_dir, tag, o)
            elif kind == "fixed-points":
                check_fixed_points(out_dir / "fixed_points.csv", PAPER_CUBIC, tag, o)
        o.size = size
        # the table rows and sweep points with a constant supply and no clamp
        o.quality = {"equilibrium_err_max_pct": max(errors) if errors else 0.0}
        return o

    @staticmethod
    def _check_table(path, params, tag, o) -> list[float]:
        vdd = float(params.get("vdd", 2.5))
        _, rows = read_csv(path)
        errs = []
        for r in rows:
            duties, weights = r[0:6:2], r[1:6:2]
            v_sim = float(r[7])
            if not 0.0 <= v_sim <= vdd:
                o.problem(tag, f"v_sim {v_sim} outside [0, {vdd}]")
            v_th = vac_theory(duties, weights, vdd)
            errs.append(abs(v_sim - v_th) / v_th * 100.0)
        return errs

    @staticmethod
    def _check_sweep(path, kind, params, tag, o) -> list[float]:
        _, rows = read_csv(path)
        errs = []
        duties, weights = params["duties"], params["weights"]
        for r in rows:
            if r[6]:
                continue
            axis, avg, ratio, swing, _, power = floats(r[:6])
            vdd = axis if kind == "sweep-vdd" else float(params.get("vdd", 2.5))
            if not (0.0 <= avg <= vdd and 0.0 <= swing <= vdd and power > 0.0):
                o.problem(tag, f"row {r[:6]} outside physical range")
            if not math.isclose(ratio, avg / vdd, rel_tol=1e-12):
                o.problem(tag, f"ratio {ratio} != average / vdd")
            v_th = vac_theory(duties, weights, vdd)
            errs.append(abs(avg - v_th) / v_th * 100.0)
        return errs

    @staticmethod
    def _check_fit(out_dir, params, tag, o) -> None:
        _, rows = read_csv(out_dir / "fit.csv")
        c3, c2, c1, c0, r2 = floats(rows[0])
        if not (np.all(np.isfinite([c3, c2, c1, c0])) and 0.0 <= r2 <= 1.0):
            o.problem(tag, f"fit {rows[0]} not finite or r2 outside [0, 1]")
        if params.get("source") == "behavioral" and params.get("grid_hi", 0.9) <= 0.9:
            # below the cap the behavioural stage is the cubic itself
            want = np.array(PAPER_CUBIC) / 100.0
            if np.max(np.abs(np.array([c3, c2, c1, c0]) - want)) > 1e-9:
                o.problem(tag, f"fit {rows[0]} does not recover the stage cubic")

    @staticmethod
    def _check_response(out_dir, tag, o) -> int:
        _, rows = read_csv(out_dir / "response_curve.csv")
        for x, y, depth in rows:
            want = float(x)
            for _ in range(int(depth)):
                want = float(stage(want))
            if abs(float(y) - want) > 1e-9:
                o.problem(tag, f"depth {depth} at {x}: {y} != {want}")
                break
        return len(rows)


def check_fixed_points(path: Path, coeffs, tag: str, o: Outcome) -> None:
    _, rows = read_csv(path)
    if not rows:
        o.problem(tag, "no fixed point")
    for x, stability in rows:
        resid = abs(float(stage(float(x), coeffs)) - float(x))
        if resid > FIXED_POINT_TOL:
            o.problem(tag, f"|stage(x) - x| = {resid} at x = {x} ({stability})")


# ---------------------------------------------------------------------------
# supply-clamp
# ---------------------------------------------------------------------------

CLAMP_V = 0.4
CLAMP_DUTIES = [0.9, 0.8, 0.95]
PWL_VOLTS = (2.5, 3.1, 2.2, 1.9, 2.8, 3.2, 2.0, 2.4, 2.6)


class SupplyClamp:
    """The dynamic-vdd kind with a sinusoid supply and the clamp engaged,
    plus a seeded piecewise-linear supply through simulate_vac and
    trace_metrics: a time-varying supply with the clamp, where a periodic
    steady state does not exist."""

    name = "supply-clamp"

    def __init__(self, root: Path, work: Path, seed: int, scale: float = 1.0):
        self.root, self.work, self.seed, self.scale = root, work, seed, scale

    def setup(self) -> None:
        horizon = 100e-6 * self.scale
        self.params = {
            "preset": "custom", "r_unit": 1e5, "c_out": 1e-10,
            "compensation_threshold": CLAMP_V, "duties": CLAMP_DUTIES,
            "weights_a": [7, 7, 7], "frequency": 1e8,
            "supply_mean": 2.5, "supply_amplitude": 0.7, "supply_period": 1e-5,
            "horizon": horizon,
        }
        rng = np.random.default_rng(self.seed)
        self.pwl_horizon = 100e-6 * self.scale
        # a fixed supply profile with seeded jitter and in-phase inputs, so
        # that the clamped share, and with it the work, changes little from
        # seed to seed (random input phases move it by a factor of two)
        knots = np.linspace(0.0, self.pwl_horizon, len(PWL_VOLTS))
        volts = np.array(PWL_VOLTS) + rng.uniform(-0.05, 0.05, size=len(knots))
        self.pwl = pwmperc.PiecewiseLinearSupply(tuple(zip(knots, volts)))
        self.cfg = pwmperc.VacConfig(n=3, k=3, r_unit=1e5, c_out=1e-10,
                                     compensation_threshold=CLAMP_V)
        self.w = pwmperc.WeightVector((7, 7, 7), 3)
        self.signals = [pwmperc.PwmSignal(1e8, d) for d in CLAMP_DUTIES]

    def hooks(self):
        return contextlib.nullcontext()

    def run_pass(self, part):
        with part("dynamic-vdd"):
            run_cli("dynamic-vdd", dict(self.params), self.work / "dynamic_vdd",
                    self.seed)
        with part("pwl"):
            trace = pwmperc.simulate_vac(self.cfg, self.signals, self.w, self.pwl,
                                         self.pwl_horizon, v0=0.0)
            metrics = pwmperc.trace_metrics(trace, self.cfg, self.pwl,
                                            cycle_period=1e-8)
        return trace, metrics

    def check(self, out) -> Outcome:
        o = Outcome()
        out_dir = self.work / "dynamic_vdd"
        samples = 0
        v_max = self.params["supply_mean"] + self.params["supply_amplitude"]
        for name in account_run(out_dir, "dynamic-vdd", o):
            if name.startswith("dynamic_trace"):
                samples += check_trace_csv(out_dir / name, name, v_max, CLAMP_V, o)
            else:
                check_duty_csv(out_dir / name, name, o)
        trace, metrics = out
        o.attempted += 1
        check_clamped_trace(trace, self.pwl.max_value(), o)
        if not (CLAMP_V <= metrics.average_v <= self.pwl.max_value()
                and metrics.avg_power > 0.0):
            o.problem("pwl", f"metrics {metrics} outside physical range")
        o.size = {"trace_samples": samples, "pwl_segments": len(trace.seg_t0)}
        return o


def check_clamped_trace(trace, v_max: float, o: Outcome) -> None:
    """Segments are contiguous and continuous, stay in [threshold, v_max],
    and clamped ones sit exactly at the threshold."""
    v0, v1, c = trace.seg_v0, trace.seg_v1, trace.seg_clamped
    if not np.array_equal(trace.seg_t1[:-1], trace.seg_t0[1:]):
        o.problem("pwl", "segments are not contiguous")
    if np.max(np.abs(v0[1:] - v1[:-1])) > V_EPS:
        o.problem("pwl", "voltage jumps between segments")
    lo, hi = min(v0.min(), v1.min()), max(v0.max(), v1.max())
    if lo < CLAMP_V - V_EPS or hi > v_max + V_EPS:
        o.problem("pwl", f"v_cap range [{lo}, {hi}] outside [{CLAMP_V}, {v_max}]")
    if not np.any(c):
        o.problem("pwl", "the clamp never engaged")
    if np.any(v0[c] != CLAMP_V) or np.any(v1[c] != CLAMP_V):
        o.problem("pwl", "a clamped segment leaves the threshold")


# ---------------------------------------------------------------------------
# train-synth
# ---------------------------------------------------------------------------

# (output tag, cli parameters, highest test error that still shows learning).
# The set is built so that the linear integer network learns it within one
# epoch; the stage-cubic activation learns slowly, so that bound is chance.
TRAIN_CONFIGS = (
    ("train_fp_784_300_10", {"topology": "784/300/10", "activation": "pwm_percept",
                             "mode": "fp", "learning_rate": 0.2, "epochs": 1,
                             "batch": 32}, 90.0),
    ("train_int_784_10", {"topology": "784/10", "activation": "cap_relu",
                          "mode": "integer", "max_weight": 63, "initial_weight": 3,
                          "learning_rate": 0.04, "epochs": 1, "batch": 32}, 50.0),
)
LOSS_CHECK_IMAGES = 1000


class TrainSynth:
    """cli.run train for one epoch of two configs on a seeded synthetic
    MNIST-shaped set written as IDX files during setup."""

    name = "train-synth"

    def __init__(self, root: Path, work: Path, seed: int, scale: float = 1.0):
        self.root, self.work, self.seed, self.scale = root, work, seed, scale
        self.data_dir = work / "mnist"
        self.trained: list = []

    def setup(self) -> None:
        n_train = max(100, int(60_000 * self.scale))
        n_test = max(100, int(10_000 * self.scale))
        synth_mnist.generate(self.data_dir, self.seed, n_train, n_test)
        train = pwmperc.mnist.load_mnist(self.data_dir, "train")
        test = pwmperc.mnist.load_mnist(self.data_dir, "test")
        self.label_counts = np.bincount(train.labels, minlength=10)
        self.n_train, self.n_test = len(train), len(test)
        self.loss_images = test.images[:LOSS_CHECK_IMAGES].copy()
        self.loss_labels = test.labels[:LOSS_CHECK_IMAGES].copy()

    @contextlib.contextmanager
    def hooks(self):
        """Keep the network and report of every nn.train call for the checks."""
        def make(train):
            def capture(net, *args, **kwargs):
                report = train(net, *args, **kwargs)
                self.trained.append((net, report))
                return report
            return capture
        self.trained = []
        with tracing.patched(pwmperc.nn, "train", make):
            yield

    def run_pass(self, part):
        for tag, params, _ in TRAIN_CONFIGS:
            with part(tag):
                run_cli("train", dict(params), self.work / tag, self.seed,
                        data_dir=str(self.data_dir))
        return list(self.trained)

    def check(self, trained) -> Outcome:
        o = Outcome()
        errors = []
        for tag, _, max_err in TRAIN_CONFIGS:
            out_dir = self.work / tag
            if not account_run(out_dir, tag, o):
                continue
            header, rows = read_csv(out_dir / "train.csv")
            test_err = float(rows[0][header.index("test_error")])
            train_err = float(rows[0][header.index("train_error")])
            if not (0.0 <= train_err <= 100.0 and 0.0 <= test_err < max_err):
                o.problem(tag, f"errors train {train_err} test {test_err}")
            errors.append(test_err)
            _, counts = read_csv(out_dir / "train_label_counts.csv")
            if [int(n) for _, n in counts] != self.label_counts.tolist():
                o.problem(tag, "label counts differ from the generated set")
        if len(trained) != len(TRAIN_CONFIGS):
            o.problem("nn.train", f"{len(trained)} trained networks, "
                      f"expected {len(TRAIN_CONFIGS)}")
        for net, _ in trained:
            check_network(net, self.loss_images, self.loss_labels, o)
        o.size = {"train_images": self.n_train * len(TRAIN_CONFIGS),
                  "eval_images": (self.n_train + self.n_test) * len(TRAIN_CONFIGS)}
        o.quality = {"test_error_pct": float(np.mean(errors)) if errors else 100.0}
        return o


def check_network(net, images, labels, o: Outcome) -> None:
    """Weights are finite, integer ones integral and within +-max_weight, and
    the loss on a holdout batch is finite."""
    cfg = net.cfg
    tag = f"{cfg.topology()} {cfg.mode}"
    for i, layer in enumerate(net.layers):
        w = layer.weights
        if not np.all(np.isfinite(w)):
            o.problem(tag, f"layer {i} has non-finite weights")
        elif cfg.mode == "integer" and (np.any(w != np.round(w))
                                        or np.max(np.abs(w)) > cfg.max_weight):
            o.problem(tag, f"layer {i} weights not integers within "
                           f"+-{cfg.max_weight}")
    targets = np.eye(cfg.layer_sizes[-1])[labels]
    loss, _ = pwmperc.nn.loss_and_grads(net, images, targets)
    if not math.isfinite(loss):
        o.problem(tag, f"loss {loss} is not finite")


# ---------------------------------------------------------------------------
# stage-chain
# ---------------------------------------------------------------------------

CHAIN_DEPTHS = range(1, 9)
CHAIN_GRID_POINTS = 2001


class StageChain:
    """Chained-stage response curves at depths 1-8, fixed points of three
    cubics and a cubic fit: the converter and perceptron layers, which are a
    tiny share of the reference configs."""

    name = "stage-chain"

    def __init__(self, root: Path, work: Path, seed: int, scale: float = 1.0):
        self.root, self.work, self.seed, self.scale = root, work, seed, scale

    def setup(self) -> None:
        n = max(11, int(CHAIN_GRID_POINTS * self.scale))
        self.grid = [float(x) for x in np.linspace(0.0, 1.0, n)]
        conv = pwmperc.ConverterModel
        self.chains = {"compensated": pwmperc.PerceptronConfig.behavioral(
                           converter=conv.compensated()),
                       "raw": pwmperc.PerceptronConfig.behavioral(converter=conv.raw())}
        rng = np.random.default_rng(self.seed)
        # a stage cubic near the paper's, so every scan finds a fixed point
        seeded = tuple(float(c) for c in
                       np.array(PAPER_CUBIC) * rng.uniform(0.9, 1.1, size=4))
        self.models = {"compensated": conv.compensated(), "identity": conv.identity(),
                       "seeded": conv(mode="compensated", coefficients=seeded,
                                      output_cap=PAPER_CAP)}

    def hooks(self):
        return contextlib.nullcontext()

    def run_pass(self, part):
        curves, scans = {}, {}
        for name, cfg in self.chains.items():
            for d in CHAIN_DEPTHS:
                with part(f"{name}-{d}"):
                    curves[(name, d)] = pwmperc.response_curve(cfg, self.grid, d)
        for name, model in self.models.items():
            with part(f"fixed-points-{name}"):
                scans[name] = pwmperc.find_fixed_points(model)
        xs = [x for x in self.grid if x <= 0.9]
        with part("fit"):
            fit = pwmperc.fit_cubic(xs, curves[("compensated", 1)].dc_out[:len(xs)])
        return curves, scans, fit

    def check(self, out) -> Outcome:
        curves, scans, fit = out
        o = Outcome()
        grid = np.array(self.grid)
        want = grid
        for d in CHAIN_DEPTHS:
            want = stage(want)
            got = np.array(curves[("compensated", d)].dc_out, dtype=np.float64)
            if np.max(np.abs(got - want)) > 1e-9:
                o.problem(f"compensated depth {d}", "differs from the iterated cubic")
            dev = float(np.sum(np.abs(got - grid)))
            if not math.isclose(curves[("compensated", d)].deviation, dev, rel_tol=1e-9):
                o.problem(f"compensated depth {d}", "deviation is not sum |out - in|")
            raw = [y for y in curves[("raw", d)].dc_out
                   if not pwmperc.is_no_oscillation(y)]
            if raw and not 0.0 <= min(raw) <= max(raw) <= 1.0:
                o.problem(f"raw depth {d}", "duty outside [0, 1]")
        for name, scan in scans.items():
            model = self.models[name]
            if name == "identity":
                if scan.degenerate_interval != (0.0, 1.0):
                    o.problem(name, f"degenerate interval {scan.degenerate_interval}")
                continue
            if not scan.points:
                o.problem(name, "no fixed point")
            for p in scan.points:
                resid = abs(float(stage(p.x, model.coefficients, model.output_cap)) - p.x)
                if resid > FIXED_POINT_TOL:
                    o.problem(name, f"|stage(x) - x| = {resid} at x = {p.x}")
        if np.max(np.abs(np.array(fit.coefficients) - np.array(PAPER_CUBIC) / 100.0)) > 1e-9:
            o.problem("fit", f"{fit.coefficients} does not recover the stage cubic")
        o.attempted = len(curves) * len(self.grid) + len(scans) + 1
        o.size = {"grid_points": len(curves) * len(self.grid)}
        return o


WORKLOADS = {w.name: w for w in (RefConfigs, SupplyClamp, TrainSynth, StageChain)}
