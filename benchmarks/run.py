"""Benchmark of the pwmperc package.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload ref-configs --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` at the root names the workloads and metrics. One run sets
the workload up several times (``setup_s`` is the median), runs one untimed
pass, then repeats timed passes for ``--seconds``. Outputs are checked after
every pass. With ``--trace 1`` every second pass is traced and the run
reports the per-layer metrics instead. ``--workload all`` runs each workload
in its own process, one after another.

A pass is a fixed sequence of parts, each one call into the package
(``cli.run`` of one config, one response curve, ...). While passes and
set-ups run, ``hostspeed.Sampler`` times a short probe loop every 10 ms, and
each part is charged its time on a reference host of fixed speed, scaled by
how slowly the probes ran during it (see ``hostspeed``). ``wall_s`` is the
median charged pass of the run and ``setup_s`` the median charged set-up. On
a shared two-core host the speed of the same pure-Python loop drifts by up to
2.5x for seconds to minutes at a time, with CPU time equal to wall time and
no steal, so plain times measure the host's load as much as the program. The
plain pass times, less the probes, and the median probe are in the run
record. BLAS runs one thread, so that all the work of a pass runs where the
probes do.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the run
record: machine, versions, commit, seed, pass times and workload size. The
simulator's results do not depend on the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported, here and in the import probe
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Figures of the outputs, not of time. They depend on the workload, so the
# JSON carries them with the per-layer metrics; untraced runs print them.
OUTPUT_METRICS = {"failed_frac": "ratio", "equilibrium_err_max_pct": "%",
                  "test_error_pct": "%", "cli.malformed_cells": "count"}


def import_record() -> dict:
    """The package's import in a fresh interpreter, with probes running."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "hostspeed.py")],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run timed passes for ``seconds``, check every pass.

    In a traced run, passes alternate untraced and traced; the per-layer
    metrics come from the fastest traced pass. Probes run only in untraced
    passes and set-ups.
    """
    import hostspeed
    import tracing
    from workloads import Outcome, Parts

    sampler = hostspeed.Sampler()
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_record())
        with sampler:
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
        setups.append((t1 - t0, *sampler.window(t0, t1)))

    # one pass first, so that lazy set-up and first-touch memory are not timed
    with workload.hooks():
        out = workload.run_pass(Parts())
    outcome = Outcome()
    outcome.merge(workload.check(out))
    walls, traced_walls, layers, passes = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        tracer = tracing.Tracer() if traced else None
        parts = Parts()
        with workload.hooks():
            with tracer.instrument() if traced else sampler:
                t0 = time.perf_counter()
                out = workload.run_pass(parts)
                t1 = time.perf_counter()
        outcome.merge(workload.check(out))
        if traced:
            traced_walls.append(t1 - t0)
            layers.append((tracer.layer_metrics(t1 - t0), tracer))
        else:
            walls.append(t1 - t0 - sampler.window(t0, t1)[0])
            passes.append([(b - a, *sampler.window(a, b)) for _, a, b in parts.spans])
        done = len(walls) >= 1 and (not trace or len(traced_walls) >= 1)
        typical = statistics.median(walls + traced_walls)
        if done and time.perf_counter() - start + typical > seconds:
            break

    charged = [sum(hostspeed.charge(*part) for part in p) for p in passes]
    setup_charged = [hostspeed.charge(r["seconds"], r["probe_seconds"], r["mean_probe"])
                     + hostspeed.charge(*s) for r, s in zip(imports, setups)]
    result = {
        "outcome": outcome,
        "pass_walls": walls,
        "pass_charged": charged,
        "mean_probe": statistics.median(sampler.took),
        "wall_s": statistics.median(charged),
        "setup_s": statistics.median(setup_charged),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "cli.malformed_cells": outcome.malformed,
        **outcome.quality,
    }
    if trace:
        best = min(range(len(traced_walls)), key=traced_walls.__getitem__)
        per_layer = dict(layers[best][0])
        per_layer["trace.overhead_s"] = traced_walls[best] - min(walls)
        result["per_layer"] = per_layer
        WORK.mkdir(exist_ok=True)
        layers[best][1].write_csv(WORK / f"spans-{workload.name}.csv")
    return result


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_benchmark_spec()["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import pwmperc
    import pwmperc.cli  # noqa: F401  (cli is not imported by the package)

    if Path(pwmperc.__file__).resolve().parent != (SRC / "pwmperc").resolve():
        print(f"error: pwmperc imported from {pwmperc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = WORK / f"{name}-{os.getpid()}"
    try:
        workload = WORKLOADS[name](ROOT, work, seed)
        result = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = result["outcome"]

    if trace:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        # a workload without trained networks or equilibrium points reports 0
        for k in OUTPUT_METRICS:
            metrics[k] = {"value": result.get(k, 0), "unit": units[k]}
    else:
        metrics = {k: {"value": result[k], "unit": unit} for k, unit in UNITS.items()}

    for k, m in metrics.items():
        print(f"{name:13s} {k:36s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        for k, unit in OUTPUT_METRICS.items():
            if k in result:
                print(f"{name:13s} {k:36s} {result[k]:>16.6g} {unit}")
    for p in outcome.problems:
        print(f"{name:13s} CHECK FAILED {p}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "pass_walls": result["pass_walls"], "pass_charged": result["pass_charged"],
        "mean_probe": result["mean_probe"], "setup_repeats": SETUP_REPEATS,
        "size": outcome.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "pwmperc": pwmperc.__version__, "commit": git_commit(),
        "machine": platform.machine(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "pwmperc" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"error: not a pwmperc checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
