"""Event-driven piecewise-exponential RC solver for the weighted VAC.

Between input edges the cell bank is a fixed resistive network: every unit
cell is a resistor to the supply (input low, or cell disabled) or to ground
(input high), so the capacitor follows the exact exponential toward the
instantaneous divider equilibrium. Segments are solved analytically - there is
no global timestep and no integration error for constant supplies. A
time-varying supply is zero-order-held over sub-steps of at most 1/200 of its
period.

The optional compensation clamp floors the capacitor voltage at the PMOS
threshold: a segment maps v to max(veq + (v - veq)*e^(-dt/tau), floor), the
floor being the threshold where veq lies below it. That is a max-affine map
v -> max(a*v + b, c), and two such maps compose into one of the same form,
so a prefix scan over the segments gives every segment's composition from
the start in O(log n) array passes, with no loop over segments: the voltage
at each boundary is max(A*v0 + B, C). The composition over one period of a
constant supply is its period map F(v) = max(A*v + B, C), closed-form in
fixed point and iterates.

Two entry points share the timeline and that scan:

* steady_state - a constant supply and inputs of one common frequency. The
  periodic steady state is solved exactly over one input period (the period
  map's fixed point), with no long run and no drift check. The sweeps, the
  vac-table and the perceptron transient path use it.
* simulate_vac + trace_metrics - any supply, including time-varying ones:
  the trace over a given horizon, and closed-form integrals over the pieces
  of its last quarter.

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
import math
from dataclasses import dataclass

import numpy as np

from .analytic import WeightVector
from .signals import ConstantSupply, PwmSignal, SupplyProfile

__all__ = [
    "VacConfig",
    "TransientTrace",
    "TraceMetrics",
    "VacStimulus",
    "SweepPoint",
    "FloatingNodeError",
    "simulate_vac",
    "trace_metrics",
    "steady_state",
    "sweep",
]


DRIFT_LIMIT = 1e-3       # relative settle error above which metrics are unreliable
N_UNIFORM_SAMPLES = 512  # uniform samples simulate_vac adds to the boundaries


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


@dataclass
class TransientTrace:
    """Per-segment exact solution plus sampled waveform.

    seg_* arrays describe half-open segments [t0, t1) on which the capacitor
    voltage is either the exponential from seg_v0 toward seg_veq with the
    config's tau, or (seg_clamped) the constant threshold voltage.
    """

    times: np.ndarray          # event boundaries plus uniform samples
    v_cap: np.ndarray
    vdd: np.ndarray            # supply value at `times`
    tau: float
    g_unit: float              # conductance of one unit cell, 1/r_unit
    seg_t0: np.ndarray
    seg_t1: np.ndarray
    seg_v0: np.ndarray
    seg_v1: np.ndarray
    seg_veq: np.ndarray
    seg_vdd: np.ndarray
    seg_up: np.ndarray         # unit cells pulling up
    seg_dn: np.ndarray         # unit cells pulling down
    seg_clamped: np.ndarray    # bool

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
        v = veq + (v0 - veq) * np.exp(-(ts - self.seg_t0[i]) / self.tau)
        return np.where(self.seg_clamped[i], v0, v)

    def value_at(self, t: float) -> float:
        """Exact capacitor voltage at one time inside the horizon."""
        return float(self.sample([t])[0])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_s,v_cap_V,vdd_V\n")
            fh.writelines(f"{t!r},{v!r},{s!r}\n" for t, v, s in zip(
                self.times.tolist(), self.v_cap.tolist(), self.vdd.tolist()))


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


def _check_run(cfg: VacConfig, inputs: list[PwmSignal], w: WeightVector,
               supply: SupplyProfile, v0: float) -> None:
    """The input checks shared by simulate_vac and steady_state."""
    if len(inputs) != cfg.n:
        raise ValueError(f"config expects {cfg.n} inputs, got {len(inputs)}")
    if w.n != cfg.n or w.k != cfg.k:
        raise ValueError(f"weight vector ({w.n} inputs, k={w.k}) does not match "
                         f"config (n={cfg.n}, k={cfg.k})")
    if not math.isfinite(v0):
        raise ValueError(f"v0 must be finite, got {v0}")
    if not 0.0 <= v0 <= supply.max_value():
        raise ValueError(f"v0={v0} outside [0, {supply.max_value()}]")
    if cfg.compensation_threshold >= supply.min_value():
        raise ValueError(
            f"compensation threshold {cfg.compensation_threshold} V must stay "
            f"below the supply (min {supply.min_value()} V)")
    if all(wi == 0 for wi in w.weights) and cfg.compensation_threshold == 0.0:
        raise FloatingNodeError(
            "all weights are zero and the compensation clamp is off; "
            "the capacitor node floats")


def _segments(cfg: VacConfig, inputs: list[PwmSignal], w: WeightVector,
              supply: SupplyProfile, horizon: float):
    """Timeline of [0, horizon]: input edges plus supply sub-steps and
    breakpoints. Returns per-segment start, end, divider equilibrium, supply,
    pull-up and pull-down unit counts."""
    n_units = cfg.total_units
    # equal inputs have equal edges and states: cut and count each one once
    weights: dict[PwmSignal, int] = {}
    for sig, wi in zip(inputs, w.weights):
        weights[sig] = weights.get(sig, 0) + wi
    parts = [np.array([0.0, horizon])]
    parts += [sig.edges_in(0.0, horizon) for sig in weights]
    step = supply.substep()
    if step is not None:
        steps = np.arange(0.0, horizon, step)
        parts.append(steps[steps <= horizon])    # a float step can overshoot
        parts.append(supply.breakpoints_in(0.0, horizon))
    boundaries = np.concatenate(parts)
    boundaries.sort()
    boundaries = boundaries[np.concatenate(([True], boundaries[1:] != boundaries[:-1]))]

    # per-segment pull-down unit counts, from input states at segment midpoints
    t0s = boundaries[:-1]
    t1s = boundaries[1:]
    mids = 0.5 * (t0s + t1s)
    dn_units = np.zeros(len(mids), dtype=np.int64)
    for sig, wi in weights.items():
        if wi == 0:
            continue
        if sig.duty == 1.0:
            dn_units += wi
        elif sig.duty > 0.0:
            period = sig.period
            local = np.mod(mids - sig.phase, period)
            dn_units += wi * (local < sig.duty * period)
    up_units = n_units - dn_units

    vdd_seg = supply.values(t0s)

    veq_seg = vdd_seg * (up_units / n_units)
    return t0s, t1s, veq_seg, vdd_seg, up_units, dn_units


def _prefix(cfg: VacConfig, segments):
    """Prefix compositions (A, B, C) of the segment maps v -> max(a*v + b, c),
    by a Hillis-Steele scan: segments 0..k take a start voltage v >= 0 to
    max(A[k]*v + B[k], C[k]). C is None when no segment pulls below the
    threshold.

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
    c = None
    if v_th > 0.0:
        clampable = veq < v_th
        if clampable.any():
            c = np.where(clampable, v_th, b)
    shift = 1
    while shift < len(a):
        # element k composes with element k - shift; the right-hand sides
        # read the old values, as numpy copies overlapping operands
        if c is not None:
            t = a[shift:] * c[:-shift]
            t += b[shift:]
            np.maximum(c[shift:], t, out=c[shift:])
        b[shift:] += a[shift:] * b[:-shift]
        a[shift:] *= a[:-shift]
        shift *= 2
    return a, b, c


def _boundaries(prefix, v):
    """Voltage at every segment boundary, the start first, from the start
    voltage v >= 0; from an array of starts, one row per start."""
    a, b, c = prefix
    v = np.asarray(v, dtype=np.float64)
    ends = np.multiply.outer(v, a)
    ends += b
    if c is not None:
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
    clamped = np.zeros(len(dt), dtype=bool)
    v_th = cfg.compensation_threshold
    if v_th == 0.0:
        return dt, clamped
    clampable = np.flatnonzero(veq < v_th)
    q = veq[clampable]
    ratio = np.maximum((p[clampable] - q) / (v_th - q), 1.0)
    t_free = cfg.tau * np.log(ratio)
    hit = t_free < dt[clampable]
    stopped = clampable[hit]
    clamped[stopped] = True
    dt[stopped] = t_free[hit]
    p[stopped + 1] = v_th
    return dt, clamped


def _walk(cfg: VacConfig, segments, v0: float) -> TransientTrace:
    """Solve `segments` from v0 (raised to the clamp threshold) by the
    segment rule v -> max(veq + (v - veq)*e^(-dt/tau), floor), read off the
    prefix compositions. A segment that reaches the floor is cut into a free
    part up to the crossing (none if it starts on the floor) and a clamped
    rest. The trace holds no samples."""
    t0s, t1s, veqs, vdds, ups, dns = segments
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
        times=np.empty(0), v_cap=np.empty(0), vdd=np.empty(0),
        tau=cfg.tau, g_unit=1.0 / cfg.r_unit,
        seg_t0=t0, seg_t1=t1, seg_v0=v0s, seg_v1=v1s,
        seg_veq=veqs.take(seg), seg_vdd=vdds.take(seg),
        seg_up=ups.take(seg), seg_dn=dns.take(seg),
        seg_clamped=piece_clamped,
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
    _check_run(cfg, inputs, w, supply, v0)
    trace = _walk(cfg, _segments(cfg, inputs, w, supply, horizon), v0)
    seg_t0, seg_v0, seg_v1 = trace.seg_t0, trace.seg_v0, trace.seg_v1

    # sampled waveform: all segment boundaries, densified with uniform samples
    boundary_ts = np.append(seg_t0, horizon)
    boundary_vs = np.append(seg_v0, seg_v1[-1])
    uniform_ts = np.linspace(0.0, horizon, N_UNIFORM_SAMPLES)
    extra_ts = uniform_ts[~np.isin(uniform_ts, boundary_ts)]
    order = np.argsort(np.concatenate([boundary_ts, extra_ts]), kind="stable")
    trace.times = np.concatenate([boundary_ts, extra_ts])[order]
    trace.v_cap = np.concatenate([boundary_vs, trace.sample(extra_ts)])[order]
    trace.vdd = supply.values(trace.times)
    return trace


def _integrals(cfg: VacConfig, t_free, dt, v0, veq, vdd, up, dn):
    """Per piece of length dt: the integrals of v and of the supply power,
    the voltage following the exponential from v0 toward veq for t_free and
    sitting on the threshold for the rest."""
    tau = cfg.tau
    dv = tau * (v0 - veq) * -np.expm1(-t_free / tau)       # tau*(v0 - v(t_free))
    v_int = veq * t_free + dv
    # supply current flows through the pull-up cells: up * g * (vdd - v)
    p_int = up * ((vdd - veq) * t_free - dv)
    v_th = cfg.compensation_threshold
    if v_th > 0.0:
        t_clamped = dt - t_free
        v_int += v_th * t_clamped
        # clamp + pull-up current together equal the pull-down current
        p_int += dn * v_th * t_clamped
    return v_int, vdd * p_int / cfg.r_unit


def _window_integrals(trace: TransientTrace, cfg: VacConfig, w_lo: float, w_hi: float):
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
    v_int, p_int = _integrals(cfg, np.where(trace.seg_clamped[j], 0.0, lengths),
                              lengths, va, trace.seg_veq[j], trace.seg_vdd[j],
                              trace.seg_up[j], trace.seg_dn[j])
    # the exponentials are monotone: extremes lie on part or window ends
    ends = np.append(va, trace.sample(cuts[-1:]))
    return float(v_int.sum()), float(p_int.sum()), float(ends.min()), float(ends.max())


def trace_metrics(trace: TransientTrace, cfg: VacConfig,
                  supply: SupplyProfile,
                  cycle_period: float | None = None) -> TraceMetrics:
    """Average, ripple swing, charge time and supply power over the last
    quarter of the horizon.

    `drift` is the exact settle error: the window starts at w_lo = 0.75 *
    horizon, where runs from any two start voltages in [0, max supply]
    differ by at most max supply * e^(-w_lo/tau) (see the module docstring),
    and later times differ by less. So the voltage anywhere in the window,
    and with it the average and the extremes, can still move with v0 by at
    most drift * |average|. The metrics are unreliable when drift exceeds
    DRIFT_LIMIT. `cycle_period` is ignored; it is kept for callers that
    still pass it.
    """
    horizon = trace.horizon
    w_lo = 0.75 * horizon
    window = horizon - w_lo
    v_int, p_int, vmin, vmax = _window_integrals(trace, cfg, w_lo, horizon)
    average_v = v_int / window
    drift = supply.max_value() * math.exp(-w_lo / cfg.tau) / max(abs(average_v), 1e-30)
    charge_time = _first_crossing(trace.tau, trace.seg_t0, trace.seg_t1,
                                  np.append(trace.seg_v0, trace.seg_v1[-1]),
                                  trace.seg_veq, average_v)
    return TraceMetrics(average_v=average_v, swing=max(vmax - vmin, 0.0),
                        charge_time=charge_time, avg_power=p_int / window,
                        drift=drift)


def _first_crossing(tau: float, t0, t1, b, veq, level: float) -> float | None:
    """First time the voltage reaches `level` from b[0], over segments
    [t0[i], t1[i]) on which it goes from b[i] to b[i+1] along the
    exponential toward veq[i], or sits on the threshold; None if it never
    does."""
    reached = (b <= level) if b[0] > level else (b >= level)
    j = int(np.argmax(reached))
    if not reached[j]:
        return None
    if j == 0:
        return float(t0[0])
    i = j - 1
    gap = level - veq[i]
    ratio = (b[i] - veq[i]) / gap if gap else 0.0
    if ratio < 1.0:
        # the level is veq itself, or past it by rounding: the exponential
        # only gets there where its rounded end does
        return float(t1[i])
    return float(t0[i] + tau * math.log(ratio))


def steady_state(cfg: VacConfig, stimulus: VacStimulus) -> TraceMetrics:
    """Exact periodic steady state of a constant supply and inputs of one
    common frequency.

    One input period is cut into the segments simulate_vac would use. On
    v >= threshold its period map is F(v) = max(A*v + B, C), the composition
    of the segment maps, so the periodic start voltage is
    v* = max(B/(1-A), C) (no C without the clamp). Average, swing and power
    are the closed-form integrals over that one period; the charge time is
    the first crossing of the average from v0. `drift` is the relative
    fixed-point residual |F(v*) - v*| / average.
    """
    supply = ConstantSupply(stimulus.vdd)
    inputs = stimulus.signals()
    _check_run(cfg, inputs, stimulus.w, supply, stimulus.v0)
    period = 1.0 / stimulus.frequency
    segments = _segments(cfg, inputs, stimulus.w, supply, period)
    prefix = _prefix(cfg, segments)
    v_aff, c = _period_map(cfg, prefix, period)
    pss = _boundaries(prefix, v_aff if c is None else max(v_aff, c))
    t_free, _ = _clamp(cfg, segments, pss)
    t0s, t1s, veq, vdd, up, dn = segments
    v_int, p_int = _integrals(cfg, t_free, t1s - t0s, pss[:-1], veq, vdd, up, dn)
    average_v = float(v_int.sum()) / period
    drift = abs(float(pss[-1] - pss[0])) / max(abs(average_v), 1e-30)
    return TraceMetrics(
        average_v=average_v, swing=max(float(pss.max() - pss.min()), 0.0),
        charge_time=_charge_time(cfg, segments, prefix, pss, v_aff, c, average_v,
                                 stimulus.v0),
        avg_power=float(p_int.sum()) / period, drift=drift)


def _period_map(cfg: VacConfig, prefix, period: float):
    """The one-period map F(v) = max(A*v + B, C) of a constant supply, the
    composition of all its segments, as (B/(1-A), C); C None when no segment
    pulls below the threshold.

    1 - A is taken as -expm1(-period/tau): with A near 1 (inputs much faster
    than tau), 1 minus the rounded product would lose digits.
    """
    _, b, c = prefix
    v_aff = float(b[-1]) / -math.expm1(-period / cfg.tau)
    return v_aff, None if c is None else float(c[-1])


# periods whose crossing is tested in one array evaluation, per search round
_CROSSING_BATCH = 64


def _charge_time(cfg: VacConfig, segments, prefix, pss: np.ndarray,
                 v_aff: float, c: float | None, level: float,
                 v0: float) -> float | None:
    """First time the voltage reaches `level` from v0 (raised to the clamp
    threshold, as _walk does), given the boundary voltages `pss` of the
    steady-state period and the period map F(v) = max(G(v), c),
    G(v) = v_aff + (v - v_aff)*A.

    Period m >= 1 starts at F^m(v) = max(G^m(v), c, G^(m-1)(c)), as the
    iterates of c under G move monotonically toward v_aff. Every deviation
    from the steady state decays at least as fast as e^(-t/tau), so by
    period m_hi the voltage has crossed wherever the steady state goes past
    the level by more than the remaining deviation. Boundary voltages rise
    with the start voltage, and the starts move monotonically, so "period m
    reaches the level" turns true once and stays true: the first such period
    is found among [0, m_hi] by testing batches of evenly spaced periods.
    """
    v = max(float(v0), cfg.compensation_threshold)   # v0 >= 0
    if v == level:
        return 0.0
    tau = cfg.tau
    t0s, t1s, veq = segments[:3]
    period = float(t1s[-1])
    falling = v > level
    delta = v - float(pss[0])
    # how far the steady state goes past the level, on the far side from v
    gap = float(np.max((level - pss) if falling else (pss - level)))
    gap = max(gap, 4.0 * math.ulp(max(abs(level), abs(delta))))
    m_hi = max(0, math.ceil(math.log(abs(delta) / gap) * tau / period)) if delta else 0

    rate = -period / tau

    def starts(ms):
        s = v_aff + (v - v_aff) * np.exp(ms * rate)
        if c is not None:
            prev = v_aff + (c - v_aff) * np.exp(np.maximum(ms - 1, 0) * rate)
            np.maximum(s, np.maximum(prev, c), out=s)
        if ms[0] == 0:
            s[0] = v
        return s

    lo, hi = -1, m_hi            # period lo does not reach the level
    while True:
        step = -(-(hi - lo) // _CROSSING_BATCH)
        ms = np.arange(hi - (hi - lo - 1) // step * step, hi + 1, step)
        rows = _boundaries(prefix, starts(ms))
        reached = (rows.min(axis=1) <= level) if falling else (rows.max(axis=1) >= level)
        if not reached[-1]:
            return None          # not even by period m_hi: the level lies out of reach
        i = int(np.argmax(reached))
        hi, row = int(ms[i]), rows[i]
        if i:
            lo = int(ms[i - 1])
        if step == 1:
            break
    if (row[0] <= level) if falling else (row[0] >= level):
        return hi * period       # the period starts on the level, or past it by rounding
    return hi * period + _first_crossing(tau, t0s, t1s, row, veq, level)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacStimulus:
    """One VAC stimulus under a constant supply: duties and phases of inputs
    sharing one frequency, weights, supply and initial voltage."""

    duties: tuple[float, ...]
    frequency: float
    w: WeightVector
    vdd: float = 2.5
    v0: float = 0.0
    phases: tuple[float, ...] | None = None

    def signals(self) -> list[PwmSignal]:
        phases = self.phases or (0.0,) * len(self.duties)
        return [PwmSignal(self.frequency, d, p) for d, p in zip(self.duties, phases)]


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    metrics: TraceMetrics | None
    ratio: float | None            # average_v / vdd
    error: str | None = None


def sweep(cfg: VacConfig, stimulus: VacStimulus, axis: str,
          grid: list[float]) -> list[SweepPoint]:
    """One steady_state per grid point, in grid order, with ``axis`` ("vdd"
    or "frequency") set to the point's value; failures are recorded per
    point."""
    if axis not in ("vdd", "frequency"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be ascending")
    points = []
    for value in map(float, grid):
        try:
            stim = dataclasses.replace(stimulus, **{axis: value})
            metrics = steady_state(cfg, stim)
            points.append(SweepPoint(value, metrics, metrics.average_v / stim.vdd))
        except Exception as exc:  # recorded, not fatal
            points.append(SweepPoint(value, None, None,
                                     error=f"{type(exc).__name__}: {exc}"))
    return points
