"""Event-driven piecewise-exponential RC solver for the weighted VAC.

Between input edges the cell bank is a fixed resistive network: every unit
cell is a resistor to the supply (input low, or cell disabled) or to ground
(input high), so the capacitor follows the exact exponential toward the
instantaneous divider equilibrium. Segments are solved analytically - there is
no global timestep and no integration error for constant supplies. A
time-varying supply is zero-order-held and re-sampled only where it varies,
at the times its SupplyProfile.cuts gives: every 1/200 of a sinusoid's period,
and a piecewise-linear profile's knots plus every 1/200 of its span between
its first and last knot.

The optional compensation clamp floors the capacitor voltage at the PMOS
threshold: a segment maps v to max(veq + (v - veq)*e^(-dt/tau), floor), the
floor being the threshold where veq lies below it. That is a max-affine map
v -> max(a*v + b, c), and two such maps compose into one of the same form,
so a prefix scan over the segments gives every segment's composition from
the start in O(log n) array passes, with no loop over segments: the voltage
at each boundary is max(A*v0 + B, C). The composition over one period of a
constant supply is its period map F(v) = max(A*v + B, C), closed-form in
fixed point and iterates.

Two entry points share that scan and one timeline builder, which cuts rows
of windows [0, w] at their input edges (the edge rule of signals.py) and
counts each segment's pull-down cells by a sweep line over those edges:

* StimulusBatch.solve - a constant supply and inputs of one common
  frequency per row. The periodic steady state is solved exactly over one
  input period (the period map's fixed point), with no long run and no drift
  check, for a batch of stimuli at once: a row per stimulus, its window the
  period, padded to one segment count. steady_states gives its rows as
  TraceMetrics. The sweeps, the vac-table and the perceptron transient path
  each solve one batch.
* simulate_vac + trace_metrics - any supply, including time-varying ones:
  one row over the horizon, cut at the supply's cuts too, and closed-form
  integrals over the pieces of its last quarter. A trace keeps its VacConfig
  and supply, and takes its samples (times, v_cap, vdd) on first read, so a
  trace read only through its pieces never calls the supply at a sample time.

Every unit cell conducts to one rail or the other, so the total conductance,
and with it tau, is constant whatever the inputs and the supply do. Each
segment map therefore contracts distances by at least e^(-dt/tau), and two
runs from start voltages in [0, max supply] differ by at most
max supply * e^(-t/tau) at time t, for any supply (contraction analysis:
Lohmiller & Slotine, Automatica 34(6), 1998). That bound is trace_metrics'
settle error.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import WeightVector, _whole
from .signals import (PwmSignal, SupplyProfile, _check_one, _faults, _pwm_checks,
                      _supply_checks, pwm_edges)

__all__ = [
    "VacConfig",
    "TransientTrace",
    "TraceCells",
    "TraceMetrics",
    "VacStimulus",
    "StimulusBatch",
    "FloatingNodeError",
    "simulate_vac",
    "trace_metrics",
    "steady_state",
    "steady_states",
    "sweep",
]


DRIFT_LIMIT = 1e-3       # relative settle error above which metrics are unreliable
N_UNIFORM_SAMPLES = 512  # uniform samples a trace adds to its boundaries
CSV_CHUNK = 256          # trace CSV rows formatted at a time


class FloatingNodeError(ValueError):
    """All cells disabled with the clamp off: the output node floats."""


@dataclass(frozen=True)
class VacConfig:
    """Circuit parameters of one weighted-addition voltage accumulator."""

    n: int                              # input count
    k: int                              # weight bits per input
    r_unit: float                       # ohms, output resistor of a x1 cell
    c_out: float                        # farads
    compensation_threshold: float = 0.0  # volts; 0 disables the clamp

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n} k={self.k}")
        for name in ("r_unit", "c_out", "compensation_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.r_unit <= 0 or self.c_out <= 0:
            raise ValueError("r_unit and c_out must be > 0")
        if self.compensation_threshold < 0:
            raise ValueError("compensation_threshold must be >= 0")

    @classmethod
    def small(cls, n: int = 3, k: int = 3, compensation_threshold: float = 0.0) -> "VacConfig":
        return cls(n=n, k=k, r_unit=100e3, c_out=10e-12,
                   compensation_threshold=compensation_threshold)

    @classmethod
    def large(cls, n: int = 3, k: int = 3, compensation_threshold: float = 0.0) -> "VacConfig":
        return cls(n=n, k=k, r_unit=1e6, c_out=100e-12,
                   compensation_threshold=compensation_threshold)

    @property
    def total_units(self) -> int:
        return self.n * (2 ** self.k - 1)

    @property
    def tau(self) -> float:
        """RC time constant of the full bank (all unit cells conducting)."""
        return self.c_out * self.r_unit / self.total_units


@dataclass(eq=False)
class TransientTrace:
    """A simulate_vac run's exact solution, kept with its circuit and supply.

    seg_* arrays describe half-open segments [t0, t1) on which the capacitor
    voltage is either the exponential from seg_v0 toward seg_veq with the
    config's tau, or (seg_clamped) the constant threshold voltage.

    The samples - times, v_cap and vdd - are derived from the segments and
    the supply on the first read of any of them, which calls the supply at
    every sample time, in order.
    """

    cfg: VacConfig
    seg_t0: np.ndarray
    seg_t1: np.ndarray
    seg_v0: np.ndarray
    seg_v1: np.ndarray
    seg_veq: np.ndarray
    seg_vdd: np.ndarray
    seg_up: np.ndarray         # unit cells pulling up; the rest pull down
    seg_clamped: np.ndarray    # bool
    supply: SupplyProfile

    @property
    def horizon(self) -> float:
        return float(self.seg_t1[-1])

    def sample(self, ts) -> np.ndarray:
        """Exact capacitor voltage at each time of `ts`, all inside the
        horizon."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and not (0.0 <= ts.min() and ts.max() <= self.horizon):
            raise ValueError(f"times [{ts.min()}, {ts.max()}] outside [0, {self.horizon}]")
        i = np.searchsorted(self.seg_t0, ts, side="right") - 1     # seg_t0[0] = 0
        v0, veq = self.seg_v0[i], self.seg_veq[i]
        v = veq + (v0 - veq) * np.exp(-(ts - self.seg_t0[i]) / self.cfg.tau)
        return np.where(self.seg_clamped[i], v0, v)

    @functools.cached_property
    def _waveform(self) -> tuple[np.ndarray, np.ndarray]:
        """The sample times - every segment boundary, densified with
        N_UNIFORM_SAMPLES uniform times - and the capacitor voltage there.
        The supply is not called."""
        boundary_ts = np.append(self.seg_t0, self.horizon)
        boundary_vs = np.append(self.seg_v0, self.seg_v1[-1])
        uniform_ts = np.linspace(0.0, self.horizon, N_UNIFORM_SAMPLES)
        extra_ts = uniform_ts[~np.isin(uniform_ts, boundary_ts)]
        order = np.argsort(np.concatenate([boundary_ts, extra_ts]), kind="stable")
        return (np.concatenate([boundary_ts, extra_ts])[order],
                np.concatenate([boundary_vs, self.sample(extra_ts)])[order])

    @functools.cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The waveform and the supply at each of its times."""
        times, v_cap = self._waveform
        return times, v_cap, self.supply.values(times)

    times = property(lambda self: self._samples[0])  # boundaries plus uniform samples
    v_cap = property(lambda self: self._samples[1])
    vdd = property(lambda self: self._samples[2])    # supply value at `times`

    def write_csv(self, path, cells: TraceCells | None = None) -> None:
        """Write a time_s, v_cap_V, vdd_V row per sample, each float as its
        repr, CSV_CHUNK rows at a time. Each column formats each of its
        distinct floats once (_reprs). The time and supply cells come from
        `cells` (a fresh TraceCells if None), which calls the supply only at
        rows whose cells it does not hold."""
        time_cells, vdd_cells = (cells or TraceCells()).cells(self)
        v_cells = _reprs(self._waveform[1])
        with open(path, "w", newline="") as fh:
            fh.write("time_s,v_cap_V,vdd_V\n")
            for lo in range(0, len(v_cells), CSV_CHUNK):
                rows = slice(lo, lo + CSV_CHUNK)
                chunk = ["", ",", "", ",", "", "\n"] * len(v_cells[rows])   # cells between marks
                chunk[0::6], chunk[2::6], chunk[4::6] = (
                    x[rows].tolist() for x in (time_cells, v_cells, vdd_cells))
                fh.write("".join(chunk))


def _reprs(x: np.ndarray) -> np.ndarray:
    """The repr of each float of `x`, as an object array that holds one
    shared str per distinct bit pattern (so 0.0 and -0.0 stay apart), each
    formatted once."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse]


class TraceCells:
    """The time and supply cells of a trace CSV written with it, kept with
    that trace's times and supply until a trace under another supply
    replaces them.

    A later trace under the kept supply takes the cells of each row whose
    time equals a kept row's bit for bit (so 0.0 and -0.0 stay apart): a
    supply is a function of time, so its value there is the kept one. It
    calls its supply at its other rows only, in order, and formats them.
    Traces of one supply over one horizon share most of their times, and so
    most of these cells.
    """

    def __init__(self):
        self._times = self._supply = None  # the kept trace's
        self._kept = None                  # its time and supply cells

    def cells(self, trace: TransientTrace) -> tuple[np.ndarray, np.ndarray]:
        """The time and supply cells of every row of `trace`, as _reprs
        gives them."""
        times, _ = trace._waveform
        if self._times is None or trace.supply != self._supply:
            self._times, self._supply = times, trace.supply
            self._kept = _reprs(times), _reprs(trace.vdd)
            return self._kept
        i = np.minimum(np.searchsorted(self._times, times), len(self._times) - 1)
        new = self._times[i].view(np.int64) != times.view(np.int64)
        time_cells, vdd_cells = (kept[i] for kept in self._kept)
        time_cells[new] = _reprs(times[new])
        vdd_cells[new] = _reprs(trace.supply.values(times[new]))
        return time_cells, vdd_cells


@dataclass(frozen=True)
class TraceMetrics:
    """Steady-state cycle metrics of a transient run or of the exact
    periodic steady state."""

    average_v: float
    swing: float               # steady-state max - min
    charge_time: float | None  # first crossing of average_v from v0; None if never
    avg_power: float           # mean supply-delivered power over the window
    drift: float               # relative settle error; see the entry points

    @property
    def reliable(self) -> bool:
        return self.drift < DRIFT_LIMIT


def _shape_checks(cfg: VacConfig, inputs, n_weights, k) -> list:
    """signals._faults checks of rows of input and weight counts and bits k."""
    return [
        (inputs != cfg.n, lambda i: f"config expects {cfg.n} inputs, got {inputs[i]}"),
        ((n_weights != cfg.n) | (k != cfg.k), lambda i: f"weight vector ({n_weights[i]} "
         f"inputs, k={k[i]}) does not match config (n={cfg.n}, k={cfg.k})")]


def _run_checks(cfg: VacConfig, inputs, n_weights, k, idle, v0, v_max, v_min) -> list:
    """The checks of a run for signals._faults: _shape_checks, then over
    rows of whether all weights are zero, start voltages (None: none to
    check) and the supply's extremes."""
    v_th = cfg.compensation_threshold
    return [
        *_shape_checks(cfg, inputs, n_weights, k),
        *([] if v0 is None else [
            (~np.isfinite(v0), lambda i: f"v0 must be finite, got {v0[i]}"),
            (~((0.0 <= v0) & (v0 <= v_max)),
             lambda i: f"v0={v0[i]} outside [0, {v_max[i]}]")]),
        (v_th >= v_min, lambda i: f"compensation threshold {v_th} V must stay below the "
                                  f"supply (min {v_min[i]} V)"),
        (idle & (v_th == 0.0), lambda i: FloatingNodeError(
            "all weights are zero and the compensation clamp is off; "
            "the capacitor node floats"))]


def _period_checks(cfg: VacConfig, frequency, vdd) -> list:
    """The check for signals._faults of each row's period against the longest
    whose solve stays within the floats. The input edges (within 5 periods of
    the start), the period in units of tau and the period's integrals of v
    and of the supply power are each at most the period times
    max(5, 1/tau, total_units * max(vdd, 1)^2 * max(1, 1/r_unit))."""
    with np.errstate(divide="ignore", over="ignore"):
        period = 1.0 / frequency
        longest = np.finfo(np.float64).max / np.maximum(
            max(5.0, 1.0 / cfg.tau),
            cfg.total_units * np.maximum(vdd, 1.0) ** 2 * max(1.0, 1.0 / cfg.r_unit))
    return [(~(period <= longest), lambda i: f"frequency must have a period of at most "
                                             f"{longest[i]:.6g} s, got {frequency[i]}")]


def _across(ufunc, x):
    """ufunc reduced over the last axis of x by elementwise passes over its
    columns, which numpy does faster than a reduction over a short axis."""
    return ufunc.reduce(np.ascontiguousarray(x.T)).T


def _timeline(cfg: VacConfig, window, period, duty, phase, weight, supply):
    """The timeline builder: rows of segments, row i over [0, window[i]],
    with each input's period, duty, phase and weight in arrays of rows
    (inputs on the last axis). `supply` is a SupplyProfile for one row, or
    an array of one constant supply per row.

    A row is cut at 0, at its end, at the edges of the pulses that reach
    [0, end) (pwm_edges) and at the supply's cuts, repeats dropped by exact
    equality; shorter rows end in zero-length segments at their end. A sweep
    line over the sorted cuts counts each segment's pull-down cells, exact in
    any order: the inputs of duty 1 step the count up at 0, and each edge
    before the end (at 0 if before it) by its input's weight, up at a rise
    and down at a fall, so a dead pulse nets 0 on the cut at 0 or the end.
    Returns the per-segment start, end, divider equilibrium, supply (held
    from the start) and pull-up count, each (rows x segments), and each
    row's segment count.
    """
    end = np.asarray(window, dtype=np.float64)[:, None]
    edges = pwm_edges(period, duty, phase, 0.0, end)
    cuts = [np.zeros_like(end), edges.reshape(len(end), -1), end]
    timed = isinstance(supply, SupplyProfile)
    if timed:
        cuts.append(supply.cuts(float(end[0, 0]))[None])
    cuts = np.concatenate(cuts, axis=1).clip(0.0, end)  # edges outside, onto the ends
    steps = np.zeros(cuts.shape, dtype=weight.dtype)  # 0 at the end and the supply's
    steps[:, 0] = np.where(duty == 1.0, weight, 0).sum(axis=1)
    step = np.where(edges < end[..., None, None], weight[..., None, None] * [1, -1], 0)
    steps[:, 1:1 + edges[0].size] = step.reshape(len(end), -1)  # rise, fall, ...
    order = cuts.argsort(axis=1)
    cuts = np.take_along_axis(cuts, order, axis=1)
    down = np.take_along_axis(steps, order, axis=1).cumsum(axis=1)
    last = np.ones(cuts.shape, dtype=bool)  # the last cut of each time
    last[:, :-1] = cuts[:, :-1] != cuts[:, 1:]
    n_seg = last.sum(axis=1) - 1
    # each time's last cut, then the row's last again: its end
    at = np.full((len(end), n_seg.max() + 1), cuts.shape[1] - 1)
    at[np.arange(at.shape[1]) <= n_seg[:, None]] = np.nonzero(last)[1]
    bounds, held = (np.take_along_axis(x, at, axis=1) for x in (cuts, down))
    t0s, t1s = bounds[:, :-1], bounds[:, 1:]
    up = cfg.total_units - held[:, :-1]
    vdd = supply.values(t0s[0])[None] if timed else supply[:, None]
    return (t0s, t1s, vdd * (up / cfg.total_units), vdd, up), n_seg


def _prefix(cfg: VacConfig, segments):
    """Prefix compositions (A, B, C) of the segment maps v -> max(a*v + b, c),
    by a Hillis-Steele scan along the last axis: segments 0..k of a row take a
    start voltage v >= 0 to max(A[k]*v + B[k], C[k]). The rows, if there are
    several, are independent timelines scanned together.

    A segment has a = e^(-dt/tau) and b = veq*(1 - a); c is the threshold
    where veq lies below it and b elsewhere. For v >= 0 the map
    max(a*v + b, b) is a*v + b, so c = b stands for "no floor" without an
    infinity, and a prefix product that underflows to 0 never meets one.
    Applying (a1, b1, c1) and then (a2, b2, c2) gives
    (a2*a1, a2*b1 + b2, max(a2*c1 + b2, c2)), which keeps C >= B.
    """
    t0s, t1s, veq = segments[:3]
    # 1 - a from expm1 keeps b accurate where a is near 1
    d = -np.expm1((t0s - t1s) / cfg.tau)
    a = 1.0 - d
    b = veq * d
    v_th = cfg.compensation_threshold
    c = np.where(veq < v_th, v_th, b)
    shift = 1
    while shift < a.shape[-1]:
        # element k composes with element k - shift, in every row; the
        # right-hand sides read the old values, as numpy copies overlapping
        # operands
        t = a[..., shift:] * c[..., :-shift]
        t += b[..., shift:]
        np.maximum(c[..., shift:], t, out=c[..., shift:])
        b[..., shift:] += a[..., shift:] * b[..., :-shift]
        a[..., shift:] *= a[..., :-shift]
        shift *= 2
    return a, b, c


def _boundaries(prefix, v):
    """Voltage at every segment boundary, the start first, from start
    voltages v >= 0: one start per row of the prefix arrays, or, for one
    timeline, an array of starts, one row per start."""
    a, b, c = prefix
    v = np.asarray(v, dtype=np.float64)
    ends = v[..., None] * a
    ends += b
    np.maximum(ends, c, out=ends)
    return np.concatenate((v[..., None], ends), axis=-1)


def _clamp(cfg: VacConfig, segments, p: np.ndarray):
    """Free time of each segment, from the boundary voltages p: the whole
    segment, or the time the voltage takes to fall to the threshold in the
    segments the floor stops. Those are marked clamped, and their ends in p
    are put exactly on the threshold.

    A segment that starts on the threshold and pulls below it is clamped
    throughout (free time 0).
    """
    t0s, t1s, veq = segments[:3]
    dt = t1s - t0s
    v_th = cfg.compensation_threshold
    clampable = np.nonzero(veq < v_th)
    q = veq[clampable]
    ratio = np.maximum((p[..., :-1][clampable] - q) / (v_th - q), 1.0)
    t_free = cfg.tau * np.log(ratio)
    hit = t_free < dt[clampable]
    stopped = tuple(index[hit] for index in clampable)
    clamped = np.zeros(dt.shape, dtype=bool)
    clamped[stopped] = True
    dt[stopped] = t_free[hit]
    p[..., 1:][stopped] = v_th
    return dt, clamped


def _walk(cfg: VacConfig, segments, v0: float, supply: SupplyProfile) -> TransientTrace:
    """Solve `segments` from v0 (raised to the clamp threshold) by the
    segment rule v -> max(veq + (v - veq)*e^(-dt/tau), floor), read off the
    prefix compositions. A segment that reaches the floor is cut into a free
    part up to the crossing (none if it starts on the floor) and a clamped
    rest. The trace samples itself under `supply` when first read."""
    t0s, t1s, veqs, vdds, ups = segments
    v_th = cfg.compensation_threshold
    p = _boundaries(_prefix(cfg, segments), max(float(v0), v_th))
    t_free, clamped = _clamp(cfg, segments, p)
    split = clamped & (t_free > 0.0)
    seg = np.repeat(np.arange(len(t0s)), 1 + split)
    t0, t1, v0s, v1s = t0s[seg], t1s[seg], p[seg], p[seg + 1]
    piece_clamped = clamped[seg]
    # the free head of a split segment ends at the crossing, where its
    # clamped rest starts
    head = np.flatnonzero(split) + np.arange(np.count_nonzero(split))
    t1[head] = t0[head] + t_free[split]
    t0[head + 1] = t1[head]
    piece_clamped[head] = False
    v0s[piece_clamped] = v_th
    return TransientTrace(
        cfg=cfg, seg_t0=t0, seg_t1=t1, seg_v0=v0s, seg_v1=v1s,
        seg_veq=veqs.take(seg), seg_vdd=vdds.take(seg), seg_up=ups.take(seg),
        seg_clamped=piece_clamped, supply=supply,
    )


def simulate_vac(cfg: VacConfig,
                 inputs: list[PwmSignal],
                 w: WeightVector,
                 supply: SupplyProfile,
                 horizon: float,
                 v0: float = 0.0) -> TransientTrace:
    """Solve the capacitor voltage over [0, horizon].

    Fails fast on a floating node (all weights zero, clamp off) and on an
    input-count mismatch. v0 must sit inside [0, max supply].
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    _check_one(_run_checks(cfg, *(np.array([x]) for x in (
        len(inputs), w.n, w.k, not any(w.weights), v0, supply.max_value(),
        supply.min_value()))))
    # equal inputs have equal edges and states: cut and count each one once
    weights: dict[PwmSignal, int] = {}
    for sig, wi in zip(inputs, w.weights):
        weights[sig] = weights.get(sig, 0) + wi
    period, duty, phase = np.array([(s.period, s.duty, s.phase) for s in weights]).T[:, None]
    segments, _ = _timeline(cfg, [horizon], period, duty, phase,
                            np.array([list(weights.values())]), supply)
    return _walk(cfg, tuple(x[0] for x in segments), v0, supply)


def _integrals(cfg: VacConfig, t_free, dt, v0, veq, vdd, up):
    """Per piece of length dt: the integrals of v and of the supply power,
    the voltage following the exponential from v0 toward veq for t_free and
    sitting on the threshold for the rest. `up` cells pull up; the other
    cells of the bank pull down."""
    tau = cfg.tau
    dv = tau * (v0 - veq) * -np.expm1(-t_free / tau)       # tau*(v0 - v(t_free))
    v_int = veq * t_free + dv
    # supply current flows through the pull-up cells: up * g * (vdd - v)
    p_int = up * ((vdd - veq) * t_free - dv)
    v_th = cfg.compensation_threshold
    t_clamped = dt - t_free
    v_int += v_th * t_clamped
    # clamp + pull-up current together equal the pull-down current
    p_int += (cfg.total_units - up) * v_th * t_clamped
    return v_int, vdd * p_int / cfg.r_unit


def _window_integrals(trace: TransientTrace, w_lo: float, w_hi: float):
    """Exact integrals of v and of supply power over the window
    [w_lo, w_hi] inside the horizon, and the extremes of v over it.

    The pieces are cut at the window edges; each part is integrated in closed
    form from its start voltage, and the parts are summed.
    """
    lo = int(np.searchsorted(trace.seg_t1, w_lo, side="right"))
    hi = int(np.searchsorted(trace.seg_t0, w_hi, side="left"))
    cuts = np.concatenate(([w_lo], trace.seg_t0[lo + 1:hi], [w_hi]))
    starts, lengths = cuts[:-1], np.diff(cuts)
    va = trace.sample(starts)
    j = np.searchsorted(trace.seg_t0, starts, side="right") - 1
    v_int, p_int = _integrals(trace.cfg, np.where(trace.seg_clamped[j], 0.0, lengths),
                              lengths, va, trace.seg_veq[j], trace.seg_vdd[j],
                              trace.seg_up[j])
    # the exponentials are monotone: extremes lie on part or window ends
    ends = np.append(va, trace.sample(cuts[-1:]))
    return float(v_int.sum()), float(p_int.sum()), float(ends.min()), float(ends.max())


def trace_metrics(trace: TransientTrace, cfg: VacConfig | None = None,
                  supply: SupplyProfile | None = None,
                  cycle_period: float | None = None) -> TraceMetrics:
    """Average, ripple swing, charge time and supply power over the last
    quarter of the horizon, under the trace's own circuit and supply.

    `drift` is the exact settle error: the window starts at w_lo = 0.75 *
    horizon, where runs from any two start voltages in [0, max supply]
    differ by at most max supply * e^(-w_lo/tau) (see the module docstring),
    and later times differ by less. So the voltage anywhere in the window,
    and with it the average and the extremes, can still move with v0 by at
    most drift * |average|. The metrics are unreliable when drift exceeds
    DRIFT_LIMIT. `cfg` and `supply` must be the trace's own, or None;
    `cycle_period` is ignored: all three are kept for older callers.
    """
    for name, given, own in (("cfg", cfg, trace.cfg), ("supply", supply, trace.supply)):
        if given is not None and given != own:
            raise ValueError(f"{name} {given} is not the trace's own {own}")
    cfg, supply = trace.cfg, trace.supply
    horizon = trace.horizon
    w_lo = 0.75 * horizon
    window = horizon - w_lo
    v_int, p_int, vmin, vmax = _window_integrals(trace, w_lo, horizon)
    average_v = v_int / window
    drift = supply.max_value() * math.exp(-w_lo / cfg.tau) / max(abs(average_v), 1e-30)
    charge_time = float(_first_crossing(
        cfg.tau, trace.seg_t0[None], trace.seg_t1[None],
        np.append(trace.seg_v0, trace.seg_v1[-1])[None], trace.seg_veq[None],
        np.array([average_v]))[0])
    return TraceMetrics(average_v=average_v, swing=max(vmax - vmin, 0.0),
                        charge_time=None if math.isnan(charge_time) else charge_time,
                        avg_power=p_int / window,
                        drift=drift)


def _first_crossing(tau: float, t0, t1, b, veq, level) -> np.ndarray:
    """First time the voltage reaches `level` from b[:, 0], in each row of
    segments [t0[i], t1[i]) on which it goes from b[i] to b[i+1] along the
    exponential toward veq[i], or sits on the threshold; NaN where it never
    does. `level` holds one level per row."""
    lev = level[:, None]
    reached = np.where(b[:, :1] > lev, b <= lev, b >= lev)
    rows = np.arange(len(b))
    j = reached.argmax(axis=1)
    i = np.maximum(j - 1, 0)
    veq_i = veq[rows, i]
    gap = level - veq_i
    ratio = (b[rows, i] - veq_i) / np.where(gap == 0.0, np.inf, gap)
    # ratio < 1: the level is veq itself, or past it by rounding, and the
    # exponential only gets there where its rounded end does
    t = np.where(ratio < 1.0, t1[rows, i],
                 t0[rows, i] + tau * np.log(np.maximum(ratio, 1.0)))
    t = np.where(j == 0, t0[:, 0], t)
    return np.where(reached[rows, j], t, np.nan)


@dataclass(frozen=True, eq=False)
class StimulusBatch:
    """Stimuli under constant supplies as arrays, a row each, inputs on the
    last axis: the array form of a list of VacStimulus (see of). A row may
    hold fewer inputs than its arrays have columns, as a list's stimuli need
    not agree; `sizes` gives its counts of duties, phases and weights and
    its weight bits k (one row for all), and its other columns hold zeros.
    v0 None asks for no charge time."""

    frequency: np.ndarray           # Hz, per row
    vdd: np.ndarray                 # volts, per row
    v0: np.ndarray | None           # volts, per row
    duties: np.ndarray              # per row and input
    phases: np.ndarray              # seconds, per row and input
    weights: np.ndarray             # unit cells, per row and input
    sizes: np.ndarray               # per row: duty, phase and weight counts, k

    @classmethod
    def of(cls, stimuli: list[VacStimulus]) -> StimulusBatch:
        """The rows of `stimuli`, converted in one pass."""
        rows = [(s.frequency, s.vdd, s.v0, tuple(s.duties), (0.0,) * len(s.duties)
                 if s.phases is None else tuple(s.phases), s.w.weights, s.w.k)
                for s in stimuli]
        frequency, vdd, v0, *lists, k = zip(*rows) if rows else ((),) * 7
        # one column at least: an empty batch's first bad input is column 0
        width = max((len(x) for xs in lists for x in xs), default=1)
        return cls(*(np.array(x, dtype=np.float64) for x in (frequency, vdd, v0)),
                   *(np.array([x + (0,) * (width - len(x)) for x in xs], dtype=np.float64)
                     .reshape(len(rows), width) for xs in lists),
                   np.array([*(list(map(len, xs)) for xs in lists), k]).T)

    def solve(self, cfg: VacConfig):
        """Each failing row's error, by row, from the first check it fails
        (its supply's, its phase count's, its inputs' as PwmSignal's, then
        the run's), and the exact periodic steady state of the other rows, in
        row order: average_v, swing, charge time (NaN for none, and for all
        without v0), avg_power and drift, an array each.

        A row's period map (see the module docstring) has the periodic start
        voltage v* = max(B/(1-A), C) (C only where a segment clamps). Average,
        swing and power are the closed-form integrals over that one period;
        the charge time is the first crossing of the average from v0. `drift`
        is the relative fixed-point residual |F(v*) - v*| / average. Rows
        share no value, so a row gets the same result in any batch.
        """
        n_rows = len(self.frequency)
        n_duties, n_phases, n_weights, k = np.broadcast_to(self.sizes, (n_rows, 4)).T
        idle = ~_across(np.logical_or, self.weights != 0)
        errors = _faults([
            *_supply_checks(self.vdd),
            (n_phases != n_duties,
             lambda i: f"phases has {n_phases[i]} entries for {n_duties[i]} duties"),
            *_pwm_checks(self.frequency, self.duties, self.phases, n_duties > 0),
            *_run_checks(cfg, n_duties, n_weights, k, idle, self.v0, self.vdd, self.vdd),
            *_period_checks(cfg, self.frequency, self.vdd)],
            n_rows)
        ok = np.ones(n_rows, dtype=bool)
        ok[list(errors)] = False
        if not ok.any():
            return errors, (np.empty(0),) * 5
        kept = slice(None) if ok.all() else ok      # a slice takes views, not copies
        frequency, *columns = (x[kept] for x in (self.frequency, self.duties[:, :cfg.n],
                                                 self.phases[:, :cfg.n],
                                                 self.weights[:, :cfg.n], self.vdd))
        # one input period per row: at most 2n + 1 segments (n + 1 with all
        # phases 0)
        period = 1.0 / frequency
        segments, n_seg = _timeline(cfg, period, period[:, None], *columns)
        t0s, t1s, veq, vdd_seg, up = segments
        v_th = cfg.compensation_threshold
        rows = np.arange(len(period))
        real = np.arange(t0s.shape[1]) < n_seg[:, None]
        # a row's padding composes its segments in another order than its last
        # segment does: the columns after the last segment take its composition
        prefix = tuple(np.where(real, x, x[rows, n_seg - 1, None])
                       for x in _prefix(cfg, segments))
        # the one-period map F(v) = max(A*v + B, C) as v_aff = B/(1-A) and its
        # floor C (-inf where no segment pulls below the threshold). 1 - A is
        # taken as -expm1(-period/tau), as _prefix takes each segment's: with A
        # near 1 (inputs much faster than tau), 1 minus the rounded product
        # would lose digits
        v_aff = prefix[1][:, -1] / -np.expm1(-period / cfg.tau)
        floor = np.where(_across(np.logical_or, real & (veq < v_th)), prefix[2][:, -1],
                         -np.inf)
        pss = _boundaries(prefix, np.maximum(v_aff, floor))
        t_free, _ = _clamp(cfg, segments, pss)
        # cumsum adds in order, so the zeros that pad a row leave its sums alone
        average_v, avg_power = (x.cumsum(axis=1)[:, -1] / period for x in _integrals(
            cfg, t_free, t1s - t0s, pss[:, :-1], veq, vdd_seg, up))
        drift = np.abs(pss[:, -1] - pss[:, 0]) / np.maximum(np.abs(average_v), 1e-30)
        swing = np.maximum(_across(np.maximum, pss) - _across(np.minimum, pss), 0.0)
        charge_time = np.full(len(period), np.nan) if self.v0 is None else _charge_times(
            cfg, segments, prefix, pss, v_aff, floor, average_v,
            np.maximum(self.v0[kept], v_th))
        return errors, (average_v, swing, charge_time, avg_power, drift)


def steady_states(cfg: VacConfig, stimuli: list[VacStimulus] | StimulusBatch
                  ) -> list[TraceMetrics | Exception]:
    """Exact periodic steady state of each stimulus (a constant supply and
    inputs of one common frequency) by StimulusBatch.solve, as one batch; a
    stimulus that fails its checks gets its error in its place."""
    batch = stimuli if isinstance(stimuli, StimulusBatch) else StimulusBatch.of(stimuli)
    errors, columns = batch.solve(cfg)
    results = iter([TraceMetrics(a, s, None if math.isnan(c) else c, p, d)
                    for a, s, c, p, d in zip(*(column.tolist() for column in columns))])
    return [errors.get(k) or next(results) for k in range(len(batch.frequency))]


def steady_state(cfg: VacConfig, stimulus: VacStimulus) -> TraceMetrics:
    """steady_states of one stimulus; raises its error if it fails."""
    (result,) = steady_states(cfg, [stimulus])
    if isinstance(result, Exception):
        raise result
    return result


def _charge_times(cfg: VacConfig, segments, prefix, pss: np.ndarray, v_aff,
                  floor, level, v) -> np.ndarray:
    """First time the voltage of each row reaches `level` from v (v0 raised
    to the clamp threshold, as _walk does), given the boundary voltages
    `pss` of the steady-state period and the period map F(v) = max(G(v), c),
    G(v) = v_aff + (v - v_aff)*A, with c the row's floor; NaN where the
    level lies out of reach.

    Period m >= 1 starts at F^m(v) = max(G^m(v), c, G^(m-1)(c)). The starts,
    and the boundaries with them, move monotonically from v toward the
    steady state, which reaches its own average: so once a period reaches
    that level every later one does, and a bisection on the period index
    finds the first. Deviations from the steady state decay
    at least as fast as e^(-t/tau), so by period m_hi the voltage has crossed
    wherever the steady state goes past the level by more than what is left:
    the search runs over [0, m_hi], and where period m_hi does not reach,
    none does. Past 2^53 periods the floats cannot split a bracket down to
    one period, and the search stops at the bracket's end.
    """
    t0s, t1s, veq = segments[:3]
    period = t1s[:, -1]
    falling = v > level
    delta = v - pss[:, 0]
    rate = -period / cfg.tau
    # how far the steady state goes past the level, on the far side from v
    gap = np.maximum(_across(np.maximum, np.where(falling[:, None], level[:, None] - pss,
                                                  pss - level[:, None])),
                     4.0 * np.spacing(np.maximum(np.abs(level), np.abs(delta))))
    with np.errstate(divide="ignore"):          # log(0) where v is the periodic start
        # + 0.0: ceil gives -0.0 on (-1, 0), which np.maximum keeps
        m_hi = np.maximum(0.0, np.ceil(np.log(np.abs(delta) / gap) * cfg.tau / period)) + 0.0
    capped = np.isfinite(floor)
    c = np.where(capped, floor, v_aff)

    def boundaries(m):
        """Each row's period m, and whether it reaches the level."""
        s = v_aff + (v - v_aff) * np.exp(m * rate)
        prev = v_aff + (c - v_aff) * np.exp(np.maximum(m - 1, 0) * rate)
        s = np.where(capped, np.maximum(s, np.maximum(prev, floor)), s)
        p = _boundaries(prefix, np.where(m == 0, v, s))
        return p, np.where(falling, _across(np.minimum, p) <= level,
                           _across(np.maximum, p) >= level)
    # period hi reaches, its boundaries in p; period lo does not (-1: none)
    p, reached = boundaries(m_hi)
    lo, hi = np.where(reached, -1.0, m_hi), m_hi
    while True:
        mid = np.floor((lo + hi) / 2)
        split = (lo < mid) & (mid < hi)
        if not split.any():
            break
        # a closed row evaluates its hi again, which changes nothing
        mid = np.where(split, mid, hi)
        q, hit = boundaries(mid)
        lo, hi, p = np.where(hit, lo, mid), np.where(hit, mid, hi), np.where(hit[:, None], q, p)
    start = hi * period
    # the period starts on the level, or past it by rounding
    on = np.where(falling, p[:, 0] <= level, p[:, 0] >= level)
    out = np.where(on, start, start + _first_crossing(cfg.tau, t0s, t1s, p, veq, level))
    return np.where(reached, out, np.nan)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacStimulus:
    """One VAC stimulus under a constant supply, a StimulusBatch row: duties
    and phases (None: all 0) of inputs sharing one frequency, weights, supply
    and initial voltage."""

    duties: tuple[float, ...]
    frequency: float
    w: WeightVector
    vdd: float = 2.5
    v0: float = 0.0
    phases: tuple[float, ...] | None = None


def sweep(cfg: VacConfig, stimulus: VacStimulus, axis: str,
          grid: list[float]) -> list[TraceMetrics | Exception]:
    """steady_states of ``stimulus`` with ``axis`` ("vdd" or "frequency") set
    to each grid value, solved as one batch: a row per grid point, in grid
    order, a failing point's error in its place."""
    if axis not in ("vdd", "frequency"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be ascending")
    return steady_states(cfg, [dataclasses.replace(stimulus, **{axis: float(v)})
                               for v in grid])
