"""Batch experiment runner.

Each subcommand materializes one experiment kind from a YAML config file
(flags override config), runs it, and writes CSV artifacts plus a JSON run
manifest (spec hash, seed, wall time, artifact list, error record). Runs are
reproducible: identical spec + seed produce byte-identical CSVs. Only
train-sweep runs in parallel, its configs over ``--jobs`` worker processes,
and its CSV is byte-identical whatever ``--jobs`` is.

Each kind declares every key it reads once, with its type and default. A run
first resolves the given parameters: unread keys are rejected, and missing
required keys and non-finite numbers are reported by name. The manifest's
``parameters`` holds the resolved values, defaults included, and
``spec_hash`` covers them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import converter as conv
from . import mnist, nn
from .analytic import WeightVector, vac_equilibrium
from .perceptron import (PerceptronConfig, duty_samples, perceptron_eval,
                         response_curve)
from .signals import PwmSignal, SinusoidSupply
from .transient import (VacConfig, VacStimulus, simulate_vac, steady_state,
                        sweep)

__all__ = ["ExperimentSpec", "ConfigError", "MissingDatasetError",
           "SweepFailedError", "resolve", "run", "main"]

MANIFEST_NAME = "run_manifest.json"

class ConfigError(ValueError):
    pass


class MissingDatasetError(FileNotFoundError):
    pass


class SweepFailedError(RuntimeError):
    """Every point of a sweep failed; its CSV, error rows only, is written."""


@dataclass
class ExperimentSpec:
    kind: str
    parameters: dict
    output_dir: Path
    seed: int
    jobs: int = 1                 # read by train-sweep only
    data_dir: str | None = None   # read by train and train-sweep only

    def spec_hash(self) -> str:
        canon = json.dumps(
            {"kind": self.kind, "seed": self.seed, "parameters": self.parameters},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------

REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One config key: its kind (see _coerce), its default, and the choice it
    hangs on. `default` is a value, REQUIRED, or a function of (the values
    resolved so far, the context); `when=(key, values)` makes the key read
    only while that earlier key holds one of `values` - otherwise it resolves
    to None and may not be given."""

    kind: object
    default: object = REQUIRED
    when: tuple | None = None


def _coerce(kind, value, name: str, ctx: dict):
    """`value` as `kind`: float, int (both finite), str, a tuple of allowed
    values, [kind] for a list, a table for a mapping, or a function
    (value, name) -> value."""
    if isinstance(kind, dict):
        return _resolve(kind, value, name, ctx)
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_coerce(kind[0], v, f"{name}[{i}]", {**ctx, "index": i})
                for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name} must be one of {list(kind)}, got {value!r}")
        return value
    if kind is str:
        return str(value)
    if kind not in (float, int):
        return kind(value, name)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind is int and number != int(number):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(number)


def _resolve(table: dict, given, where: str, ctx: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"{where}: parameters must be a mapping, got {given!r}")
    unknown = set(given) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown parameter key(s): {sorted(unknown)}")
    p = {}
    for key, prm in table.items():
        name = f"{where}.{key}"
        if prm.when is not None and p[prm.when[0]] not in prm.when[1]:
            if given.get(key) is not None:
                raise ConfigError(f"{name} is read only when {prm.when[0]} is "
                                  f"one of {list(prm.when[1])}")
            p[key] = None
            continue
        default = prm.default(p, ctx) if callable(prm.default) else prm.default
        value = given[key] if key in given else default
        if value is REQUIRED:
            raise ConfigError(f"{where}: missing required parameter key {key!r}")
        p[key] = (None if value is None and default is None
                  else _coerce(prm.kind, value, name, {**ctx, **p}))
    return p


VDD = Param(float, 2.5)
FREQUENCY = Param(float, 100e6)
N_K = {"n": Param(int, 3), "k": Param(int, 3)}
DUTIES = Param([float], lambda p, ctx: [0.5] * p["n"])
MAX_WEIGHTS = Param([int], lambda p, ctx: [2 ** p["k"] - 1] * p["n"])

CONVERTERS = {"compensated": conv.ConverterModel.compensated,
              "raw": conv.ConverterModel.raw,
              "identity": conv.ConverterModel.identity}
CONVERTER = Param(tuple(CONVERTERS), "compensated")


def _vac_params(preset: str = "small", r_unit=REQUIRED, c_out=REQUIRED) -> dict:
    """The VAC preset keys; only the custom preset reads r_unit and c_out."""
    custom = ("preset", ("custom",))
    return {"preset": Param(("small", "large", "custom"), preset), **N_K,
            "compensation_threshold": Param(float, 0.0),
            "r_unit": Param(float, r_unit, when=custom),
            "c_out": Param(float, c_out, when=custom)}


def _vac_config(p: dict) -> VacConfig:
    if p["preset"] == "custom":
        return VacConfig(p["n"], p["k"], p["r_unit"], p["c_out"],
                         p["compensation_threshold"])
    return getattr(VacConfig, p["preset"])(p["n"], p["k"], p["compensation_threshold"])


# One training run; train-sweep resolves each of its configs against it, with
# the sweep's subsample as default and the run's seed plus the config's index.
TRAIN_PARAMS = {
    # "784/300/10" or [784, 300, 10]
    "topology": Param(lambda value, name: _coerce(
        [int], value.split("/") if isinstance(value, str) else value, name, {})),
    "activation": Param(tuple(a.value for a in nn.ActivationKind)),
    "mode": Param(("fp", "integer"), "fp"),
    "learning_rate": Param(float, 0.01),
    "epochs": Param(int, 30),
    "batch": Param(int, 32),
    "max_weight": Param(int, when=("mode", ("integer",))),
    "initial_weight": Param(float, None),
    "subsample": Param(int, lambda p, ctx: ctx.get("subsample")),
    "seed": Param(int, lambda p, ctx: ctx["seed"] + ctx["index"]),
}

# kind -> (parameter table, runner); a runner yields the name of each
# artifact once it is written
KINDS = {}


def _kind(name: str, params: dict, **bound):
    def register(runner):
        KINDS[name] = (params, functools.partial(runner, **bound))
        return runner
    return register


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


@_kind("vac-table", {
    **_vac_params(),
    "vdd": VDD,
    "frequency": FREQUENCY,
    # the six stimulus rows of the weighted-adder reference table
    "rows": Param([{"duties": Param([float]), "weights": Param([int])}], [
        {"duties": [0.70, 0.80, 0.90], "weights": [7, 7, 7]},
        {"duties": [0.50, 0.50, 0.50], "weights": [1, 2, 4]},
        {"duties": [0.20, 0.60, 0.80], "weights": [5, 6, 7]},
        {"duties": [0.95, 0.90, 0.80], "weights": [7, 6, 6]},
        {"duties": [0.30, 0.40, 0.50], "weights": [1, 4, 2]},
        {"duties": [0.80, 0.20, 0.50], "weights": [7, 3, 4]},
    ]),
})
def _run_vac_table(spec: ExperimentSpec):
    p = spec.parameters
    vdd, freq = p["vdd"], p["frequency"]
    cfg = _vac_config(p)

    out_rows = []
    for row in p["rows"]:
        duties = row["duties"]
        w = WeightVector(tuple(row["weights"]), cfg.k)
        v_theory = vac_equilibrium(duties, w, vdd)
        metrics = steady_state(cfg, VacStimulus(tuple(duties), freq, w, vdd=vdd))
        rel = abs(metrics.average_v - v_theory) / v_theory * 100.0 if v_theory else 0.0
        flat = []
        for d, wi in zip(duties, w.weights):
            flat.extend([d, wi])
        out_rows.append(flat + [v_theory, metrics.average_v, rel])

    header = []
    for i in range(1, cfg.n + 1):
        header.extend([f"duty{i}", f"weight{i}"])
    header += ["v_theory_V", "v_sim_V", "rel_diff_pct"]
    _write_csv(spec.output_dir / "vac_table.csv", header, out_rows)
    yield "vac_table.csv"


def _sweep_params(axis: str) -> dict:
    """The sweep keys; the swept axis is set by the grid, not by a key."""
    table = {**_vac_params(), "duties": DUTIES, "weights": MAX_WEIGHTS,
             "frequency": FREQUENCY, "vdd": VDD, "v0": Param(float, 0.0),
             "grid": Param([float])}
    del table[axis]
    return table


@_kind("sweep-freq", _sweep_params("frequency"), axis="frequency")
@_kind("sweep-vdd", _sweep_params("vdd"), axis="vdd")
def _run_sweep(spec: ExperimentSpec, axis: str):
    p = spec.parameters
    cfg = _vac_config(p)
    # the swept axis has no key; sweep() sets it per grid point
    fixed = {key: p[key] if key != axis else None for key in ("frequency", "vdd")}
    stim = VacStimulus(duties=tuple(p["duties"]),
                       w=WeightVector(tuple(p["weights"]), cfg.k),
                       v0=p["v0"], **fixed)
    points = sweep(cfg, stim, axis, p["grid"])
    rows = []
    for pt in points:
        if pt.metrics is None:
            rows.append([pt.axis_value, "", "", "", "", "", pt.error])
        else:
            m = pt.metrics
            rows.append([pt.axis_value, m.average_v, pt.ratio, m.swing,
                         m.charge_time, m.avg_power, ""])
    name = "sweep_vdd.csv" if axis == "vdd" else "sweep_freq.csv"
    _write_csv(spec.output_dir / name,
               [axis, "average_v_V", "ratio_v_over_vdd", "swing_V",
                "charge_time_s", "avg_power_W", "error"],
               rows)
    yield name
    if all(pt.metrics is None for pt in points):
        raise SweepFailedError(f"all {len(points)} sweep points failed; first: "
                               f"{points[0].error}")


# The reference dynamic run pairs the small-VAC resistors with the large
# capacitor.
@_kind("dynamic-vdd", {
    **_vac_params("custom", r_unit=100e3, c_out=100e-12),
    "duties": DUTIES,
    "weights_a": MAX_WEIGHTS,
    "weights_b": Param([int], lambda p, ctx: [2] * p["n"]),
    "frequency": FREQUENCY,
    "supply_mean": Param(float, 2.5),
    "supply_amplitude": Param(float, 0.7),
    "supply_period": Param(float, 10e-6),
    "horizon": Param(float, lambda p, ctx: 4 * p["supply_period"]),
    "converter": dataclasses.replace(CONVERTER, default="raw"),
})
def _run_dynamic_vdd(spec: ExperimentSpec):
    p = spec.parameters
    cfg = _vac_config(p)
    duties, freq, horizon = p["duties"], p["frequency"], p["horizon"]
    supply = SinusoidSupply(mean=p["supply_mean"], amplitude=p["supply_amplitude"],
                            period=p["supply_period"])
    pcfg = PerceptronConfig(vac=cfg, converter=CONVERTERS[p["converter"]](),
                            frequency=freq)

    for tag, weights in (("region_a", p["weights_a"]), ("region_b", p["weights_b"])):
        w = WeightVector(tuple(weights), cfg.k)
        sigs = [PwmSignal(freq, d) for d in duties]
        trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=0.0)
        name = f"dynamic_trace_{tag}.csv"
        trace.write_csv(spec.output_dir / name)
        yield name
        ts, out, ratio = duty_samples(pcfg, trace, supply)
        name = f"dynamic_duty_{tag}.csv"
        _write_csv(spec.output_dir / name,
                   ["time_s", "duty_out", "v_over_vdd"],
                   [[t, ("" if np.isnan(d) else d), r]
                    for t, d, r in zip(ts, out, ratio)])
        yield name


@_kind("response-curve", {
    **N_K,
    "converter": CONVERTER,
    "vdd": VDD,
    "depths": Param([int], [1, 2, 3]),
    "grid_points": Param(int, 21),
})
def _run_response_curve(spec: ExperimentSpec):
    p = spec.parameters
    cfg = PerceptronConfig.behavioral(n=p["n"], k=p["k"],
                                      converter=CONVERTERS[p["converter"]]())
    grid = np.linspace(0.0, 1.0, p["grid_points"])
    rows = []
    dev_rows = []
    for depth in p["depths"]:
        curve = response_curve(cfg, grid, depth, vdd=p["vdd"])
        for x, y in zip(curve.dc_in, curve.dc_out):
            rows.append([x, ("no-oscillation" if conv.is_no_oscillation(y) else y),
                         depth])
        dev_rows.append([depth, curve.deviation])
    _write_csv(spec.output_dir / "response_curve.csv",
               ["dc_in", "dc_out", "depth"], rows)
    yield "response_curve.csv"
    _write_csv(spec.output_dir / "response_deviation.csv",
               ["depth", "deviation_sum_abs"], dev_rows)
    yield "response_deviation.csv"


@_kind("fit", {
    "source": Param(("exact", "behavioral", "transient"), "behavioral"),
    "points": Param(int, 20),
    "grid_hi": Param(float, 0.9),
    "vdd": Param(float, 2.5, when=("source", ("behavioral", "transient"))),
    "frequency": Param(float, 100e6, when=("source", ("transient",))),
})
def _run_fit(spec: ExperimentSpec):
    p = spec.parameters
    xs = np.linspace(0.0, p["grid_hi"], p["points"])
    if p["source"] == "exact":
        ys = conv.ConverterModel.compensated().cubic_percent(xs) / 100.0
    else:
        pcfg = PerceptronConfig.behavioral()
        if p["source"] == "transient":
            pcfg = dataclasses.replace(pcfg, path="transient",
                                       frequency=p["frequency"])
        ys = perceptron_eval(pcfg, [xs] * pcfg.vac.n, pcfg.max_weights(), p["vdd"])
    result = conv.fit_cubic(xs, ys)
    _write_csv(spec.output_dir / "fit_data.csv", ["x", "y"],
               [[float(x), float(y)] for x, y in zip(xs, ys)])
    yield "fit_data.csv"
    c3, c2, c1, c0 = result.coefficients
    _write_csv(spec.output_dir / "fit.csv", ["c3", "c2", "c1", "c0", "r2"],
               [[c3, c2, c1, c0, result.r_squared]])
    yield "fit.csv"


@_kind("fixed-points", {"converter": CONVERTER})
def _run_fixed_points(spec: ExperimentSpec):
    scan = conv.find_fixed_points(CONVERTERS[spec.parameters["converter"]]())
    rows = [[pt.x, pt.stability] for pt in scan.points]
    if scan.degenerate:
        rows = [[scan.degenerate_interval[0], "degenerate-interval-start"],
                [scan.degenerate_interval[1], "degenerate-interval-end"]]
    _write_csv(spec.output_dir / "fixed_points.csv", ["x", "stability"], rows)
    yield "fixed_points.csv"


def _train_one(args):
    p, subsample_seed, data_dir = args
    found = mnist.find_data_dir(data_dir)
    if found is None:
        raise MissingDatasetError(
            "MNIST IDX files not found; pass --data-dir or set "
            f"${mnist.DATA_DIR_ENV}")
    train_ds = mnist.load_mnist(found, "train")
    test_ds = mnist.load_mnist(found, "test")
    if p["subsample"] is not None:
        train_ds = mnist.subsample(train_ds, p["subsample"], subsample_seed)
    # the other training keys are NetworkConfig fields
    fields = {k: v for k, v in p.items() if k not in ("topology", "activation", "subsample")}
    cfg = nn.NetworkConfig(layer_sizes=tuple(p["topology"]),
                           activation=nn.ActivationKind(p["activation"]), **fields)
    net = nn.Network.from_config(cfg)
    report = nn.train(net, train_ds, test_ds, cfg)
    return {**p, "topology": cfg.topology(), "train_error": report.train_error,
            "test_error": report.test_error,
            "label_counts": [int(n) for n in train_ds.label_counts()],
            "per_epoch": [[*errors, seconds] for errors, seconds
                          in zip(report.per_epoch, report.epoch_seconds)]}


TRAIN_HEADER = ["topology", "activation", "mode", "learning_rate",
                "initial_weight", "max_weight", "epochs", "batch", "seed",
                "train_error", "test_error"]


@_kind("train", TRAIN_PARAMS)
def _run_train(spec: ExperimentSpec):
    row = _train_one((spec.parameters, spec.seed, spec.data_dir))
    _write_csv(spec.output_dir / "train.csv", TRAIN_HEADER,
               [[row[k] for k in TRAIN_HEADER]])
    yield "train.csv"
    _write_csv(spec.output_dir / "train_label_counts.csv", ["class", "count"],
               [[c, n] for c, n in enumerate(row["label_counts"])])
    yield "train_label_counts.csv"
    _write_csv(spec.output_dir / "train_epochs.csv",
               ["epoch", "train_error", "test_error", "seconds"], row["per_epoch"])
    yield "train_epochs.csv"


@_kind("train-sweep", {"subsample": Param(int, None),
                       "configs": Param([TRAIN_PARAMS])})
def _run_train_sweep(spec: ExperimentSpec):
    if spec.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {spec.jobs}")
    tasks = [(cfg, spec.seed + i, spec.data_dir)
             for i, cfg in enumerate(spec.parameters["configs"])]
    workers = min(spec.jobs, len(tasks))  # a worker per config at most
    if workers > 1:
        # imported here: the pool loads multiprocessing, socket and pickle,
        # about 2 MB that a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_train_one, tasks))
    else:
        rows = [_train_one(t) for t in tasks]
    _write_csv(spec.output_dir / "train_sweep.csv", TRAIN_HEADER,
               [[r[k] for k in TRAIN_HEADER] for r in rows])
    yield "train_sweep.csv"


@_kind("report", {
    "search_dir": Param(str, lambda p, ctx: str(ctx["output_dir"].parent))})
def _run_report(spec: ExperimentSpec):
    rows = []
    for manifest_path in sorted(Path(spec.parameters["search_dir"]).glob(
            f"**/{MANIFEST_NAME}")):
        try:
            data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError:
            continue
        rows.append([
            str(manifest_path.parent),
            data.get("kind", ""),
            data.get("status", ""),
            data.get("seed", ""),
            data.get("spec_hash", ""),
            ";".join(data.get("artifacts", [])),
            (data.get("error") or {}).get("class", ""),
        ])
    _write_csv(spec.output_dir / "report.csv",
               ["run_dir", "kind", "status", "seed", "spec_hash", "artifacts",
                "error_class"],
               rows)
    yield "report.csv"


def resolve(spec: ExperimentSpec) -> dict:
    """The parameters of `spec` checked, coerced and completed with defaults;
    a ConfigError names the offending key."""
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    ctx = {"seed": spec.seed, "index": 0, "output_dir": spec.output_dir}
    return _resolve(KINDS[spec.kind][0], spec.parameters, spec.kind, ctx)


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment; always writes a manifest, raises nothing.

    Returns the manifest dict; status is "ok" or "error" with a distinct
    error class name. It records the resolved parameters, once they resolve,
    and every artifact written, a failed run's included.
    """
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "kind": spec.kind,
        "seed": spec.seed,
        "spec_hash": spec.spec_hash(),
        "parameters": spec.parameters,
        "artifacts": [],
        "status": "ok",
        "error": None,
        "wall_time_s": None,
    }
    try:
        spec = dataclasses.replace(spec, parameters=resolve(spec))
        manifest.update(spec_hash=spec.spec_hash(), parameters=spec.parameters)
        for name in KINDS[spec.kind][1](spec):
            manifest["artifacts"].append(name)
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = {"class": type(exc).__name__, "message": str(exc)}
    manifest["wall_time_s"] = time.time() - started
    (spec.output_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, default=str) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwmperc",
        description="PWM perceptron experiment runner (CSV artifacts + manifest)")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        k = sub.add_parser(kind, help=f"run the {kind} experiment")
        k.add_argument("--config", type=Path, default=None,
                       help="YAML parameter file")
        k.add_argument("--seed", type=int, default=0)
        k.add_argument("--out", type=Path, default=None,
                       help="output directory (default runs/<kind>)")
        if kind in ("train", "train-sweep"):
            k.add_argument("--data-dir", type=str, default=None,
                           help=f"MNIST directory (default ${mnist.DATA_DIR_ENV})")
            k.add_argument("--subsample", type=int, default=None,
                           help="train on a seeded subsample of this size")
        if kind == "train-sweep":
            k.add_argument("--jobs", type=int, default=1,
                           help="worker processes, one config each at a time")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = None
    if args.config is not None:
        try:
            params = yaml.safe_load(Path(args.config).read_text())
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}", file=sys.stderr)
            return 2
        except yaml.YAMLError as exc:
            print(f"error: cannot parse config: {exc}", file=sys.stderr)
            return 2
    params = {} if params is None else params  # no file, or an empty one
    # a config that is not a mapping fails to resolve, with exit code 2
    if getattr(args, "subsample", None) is not None and isinstance(params, dict):
        params["subsample"] = args.subsample

    spec = ExperimentSpec(
        kind=args.kind,
        parameters=params,
        output_dir=args.out if args.out is not None else Path("runs") / args.kind,
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
        data_dir=getattr(args, "data_dir", None),
    )
    manifest = run(spec)
    if manifest["status"] == "ok":
        print(f"{args.kind}: ok ({', '.join(manifest['artifacts'])}) "
              f"-> {spec.output_dir}")
        return 0
    err = manifest["error"]
    print(f"{args.kind}: {err['class']}: {err['message']}", file=sys.stderr)
    return 2 if err["class"] == "ConfigError" else 1


if __name__ == "__main__":
    sys.exit(main())
