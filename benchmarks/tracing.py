"""Spans and counts around calls into each pwmperc layer.

The package is not changed: a span is recorded by wrapping a public function
from outside, in every ``pwmperc`` module namespace that refers to it, for
the duration of one pass. A span is (name, start, end, parent); its layer is
the first dotted part of its name, which is a module of the package.

Counts are read from the objects the wrapped calls return: segments and
clamped segments from each ``TransientTrace``, reliability from each
``TraceMetrics``, batch and dataset sizes from the nn arguments. Calls that
run once per grid point (``vac_equilibrium``, ``v_to_dc``) are only counted,
not timed, so their time stays in the caller's span. The supply's
``value_at`` runs once per segment, so wrapping it would cost about as much
as the call itself. Its call count is derived from the returned traces
instead, and its time from a calibration loop run after the pass.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import pwmperc
from pwmperc import signals

LAYERS = ("signals", "analytic", "transient", "converter", "perceptron", "nn",
          "mnist", "cli")


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` everywhere in the
    package while the context is open.

    Every loaded ``pwmperc`` module that holds the same object under the same
    name is patched, because modules import functions by name.
    """
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    holders = [m for name, m in list(sys.modules.items())
               if (name == "pwmperc" or name.startswith("pwmperc."))
               and getattr(m, attr, None) is original]
    if module not in holders:
        holders.append(module)
    for m in holders:
        setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, attr, original)


class Tracer:
    """Spans of one pass, kept in flat arrays, plus named counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.supplies: dict[int, list] = {}  # id -> [supply, calls, times]

    def wrap(self, name: str, observe=None):
        """Wrapper factory recording a span named ``name`` around each call.

        ``observe(args, kwargs, result)`` runs after the span has ended.
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    start[idx] = t0
                    stack.pop()
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            return wrapper
        return make

    def count(self, name: str):
        """Wrapper factory that only counts calls, for calls too short and
        too many to time one by one."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- observers: counts read from arguments and returned objects --------

    def _on_simulate(self, args, kwargs, trace):
        cfg = args[0]
        supply = args[3] if len(args) > 3 else kwargs["supply"]
        n_seg = len(trace.seg_t0)
        clamped = trace.seg_clamped
        self.counts["transient.segments"] += n_seg
        self.counts["transient.clamped_segments"] += int(np.count_nonzero(clamped))
        if isinstance(supply, signals.ConstantSupply):
            return
        # simulate_vac evaluates the supply once per segment before the clamp
        # splits any, and once per sample of the waveform. A split leaves an
        # unclamped piece ending exactly at the threshold before a clamped one.
        v_th = cfg.compensation_threshold
        splits = 0
        if v_th > 0.0:
            splits = int(np.count_nonzero(
                ~clamped[:-1] & clamped[1:] & (trace.seg_v1[:-1] == v_th)))
        self._supply_calls(supply, n_seg - splits + len(trace.times),
                           trace.seg_t0)

    def _supply_calls(self, supply, calls: int, times) -> None:
        entry = self.supplies.setdefault(id(supply), [supply, 0, times])
        entry[1] += calls
        self.counts["signals.supply_value_at.calls"] += calls

    def _on_duty_trace(self, args, kwargs, result):
        supply = args[3] if len(args) > 3 else kwargs["supply"]
        ts, _ = result
        if not isinstance(supply, signals.ConstantSupply):
            self._supply_calls(supply, len(ts), ts)

    def _on_metrics(self, args, kwargs, metrics):
        self.counts["transient.metrics"] += 1
        self.counts["transient.unreliable"] += 0 if metrics.reliable else 1

    def _on_edges(self, args, kwargs, edges):
        self.counts["signals.edges"] += len(edges)

    def _on_batch(self, args, kwargs, result):
        self.counts["nn.train_images"] += len(args[1])

    def _on_evaluate(self, args, kwargs, result):
        self.counts["nn.eval_images"] += len(args[1].labels)

    def _on_load(self, args, kwargs, ds):
        # IDX files hold one byte per pixel and label, after 16 + 8 header bytes
        self.counts["mnist.bytes"] += ds.images.size + ds.labels.size + 24

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every traced function of the package for one pass."""
        p = pwmperc
        targets = [
            (p.cli, "run", "cli.run", None),
            (p.transient, "sweep", "transient.sweep", None),
            (p.transient, "simulate_vac", "transient.simulate_vac", self._on_simulate),
            (p.transient, "trace_metrics", "transient.trace_metrics", self._on_metrics),
            (p.signals.PwmSignal, "edges_in", "signals.edges_in", self._on_edges),
            (p.converter, "find_fixed_points", "converter.find_fixed_points", None),
            (p.converter, "fit_cubic", "converter.fit_cubic", None),
            (p.perceptron, "response_curve", "perceptron.response_curve", None),
            (p.perceptron, "dynamic_duty_trace", "perceptron.dynamic_duty_trace",
             self._on_duty_trace),
            (p.nn, "train", "nn.train", None),
            (p.nn, "loss_and_grads", "nn.loss_and_grads", self._on_batch),
            (p.nn, "activation", "nn.activation", None),
            (p.nn, "activation_deriv", "nn.activation_deriv", None),
            (p.nn, "evaluate", "nn.evaluate", self._on_evaluate),
            (p.mnist, "load_mnist", "mnist.load_mnist", self._on_load),
        ]
        counted = [(p.analytic, "vac_equilibrium", "analytic.vac_equilibrium.calls"),
                   (p.converter, "v_to_dc", "converter.v_to_dc.calls")]
        with contextlib.ExitStack() as stack:
            for module, attr, name, observe in targets:
                stack.enter_context(patched(module, attr, self.wrap(name, observe)))
            for module, attr, name in counted:
                stack.enter_context(patched(module, attr, self.count(name)))
            yield

    # -- aggregation --------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - \
            np.frombuffer(self.start, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        names = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        return dur, parent, names

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds); plus the
        inclusive seconds of top-level spans."""
        dur, parent, names = self._arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = (int(np.count_nonzero(sel)), float(dur[sel].sum()),
                         float(self_t[sel].sum()))
        return out, float(dur[~nested].sum())

    def _child_seconds(self, child: str, parent_name: str) -> float:
        """Seconds of ``child`` spans called directly under ``parent_name``."""
        dur, parent, names = self._arrays()
        sel = (names == self._name_ids[child]) & (parent >= 0)
        sel[sel] = names[parent[sel]] == self._name_ids[parent_name]
        return float(dur[sel].sum())

    def supply_seconds(self, sample: int = 20_000) -> float:
        """Estimated time in supply ``value_at``: calls times the per-call
        cost of the same list comprehension simulate_vac runs."""
        total = 0.0
        for supply, calls, times in self.supplies.values():
            ts = np.asarray(times)[:sample]
            t0 = time.perf_counter()
            np.array([supply.value_at(float(t)) for t in ts])
            total += calls * (time.perf_counter() - t0) / max(len(ts), 1)
        return total

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass of ``wall`` seconds."""
        totals, top = self.totals()
        get = lambda name, i: totals.get(name, (0, 0.0, 0.0))[i]
        c = self.counts
        segs = c["transient.segments"]
        sim_s = get("transient.simulate_vac", 1)
        train_s = get("nn.train", 1)
        eval_in_train = self._child_seconds("nn.evaluate", "nn.train") if train_s else 0.0
        m = {
            "transient.simulate_vac.s": sim_s,
            "transient.segments": segs,
            "transient.us_per_segment": 1e6 * sim_s / segs if segs else 0.0,
            "transient.clamped_segments": c["transient.clamped_segments"],
            "transient.clamped_share": (c["transient.clamped_segments"] / segs
                                        if segs else 0.0),
            "transient.trace_metrics.s": get("transient.trace_metrics", 1),
            "transient.unreliable_frac": (c["transient.unreliable"] / c["transient.metrics"]
                                          if c["transient.metrics"] else 0.0),
            "signals.edges_in.s": get("signals.edges_in", 1),
            "signals.edges": c["signals.edges"],
            "signals.supply_value_at.calls": c["signals.supply_value_at.calls"],
            "signals.supply_value_at.s": self.supply_seconds(),
            "analytic.vac_equilibrium.calls": c["analytic.vac_equilibrium.calls"],
            "converter.v_to_dc.calls": c["converter.v_to_dc.calls"],
            "converter.find_fixed_points.s": get("converter.find_fixed_points", 1),
            "converter.fit_cubic.s": get("converter.fit_cubic", 1),
            "perceptron.response_curve.s": get("perceptron.response_curve", 1),
            "perceptron.dynamic_duty_trace.s": get("perceptron.dynamic_duty_trace", 1),
            "nn.loss_and_grads.s": get("nn.loss_and_grads", 1),
            "nn.activation.s": get("nn.activation", 1),
            "nn.activation_deriv.s": get("nn.activation_deriv", 1),
            "nn.steps": get("nn.loss_and_grads", 0),
            "nn.train.self_s": get("nn.train", 2),
            "nn.evaluate.s": get("nn.evaluate", 1),
            "train_images_per_s": (c["nn.train_images"] / (train_s - eval_in_train)
                                   if train_s else 0.0),
            "eval_images_per_s": (c["nn.eval_images"] / get("nn.evaluate", 1)
                                  if c["nn.eval_images"] else 0.0),
            "mnist.load_mnist.s": get("mnist.load_mnist", 1),
            "mnist.bytes": c["mnist.bytes"],
            "cli.run.s": get("cli.run", 1),
            "cli.run.self_s": get("cli.run", 2),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v[2] for k, v in totals.items()
                                       if k.split(".", 1)[0] == layer)
        m["bench.self_s"] = wall - top
        return m

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            base = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - base!r},{self.end[i] - base!r},"
                         f"{self.parent[i]}\n")
