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
floor being the threshold where veq lies below it. One period of a constant
supply is then F(v) = max(A*v + B, C), closed-form in fixed point and iterates.

Two entry points share the timeline and that segment rule:

* steady_state - a constant supply and inputs of one common frequency. The
  periodic steady state is solved exactly over one input period (the period
  map's fixed point), with no long run and no drift check. The sweeps, the
  vac-table and the perceptron transient path use it.
* simulate_vac + trace_metrics - any supply, including time-varying ones:
  the trace over a given horizon, and metrics of its last part with a
  chunk-to-chunk drift check.
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
    "parallel_map",
]


DRIFT_LIMIT = 1e-3       # relative drift above which metrics are unreliable


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

    def value_at(self, t: float) -> float:
        """Exact capacitor voltage at any time inside the horizon."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        i = int(np.searchsorted(self.seg_t0, t, side="right") - 1)
        i = max(i, 0)
        if self.seg_clamped[i]:
            return float(self.seg_v0[i])
        dt = t - self.seg_t0[i]
        veq = self.seg_veq[i]
        return float(veq + (self.seg_v0[i] - veq) * math.exp(-dt / self.tau))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_s,v_cap_V,vdd_V\n")
            for t, v, s in zip(self.times, self.v_cap, self.vdd):
                fh.write(f"{float(t)!r},{float(v)!r},{float(s)!r}\n")


@dataclass(frozen=True)
class TraceMetrics:
    """Steady-state cycle metrics of a transient run or of the exact
    periodic steady state."""

    average_v: float
    swing: float               # steady-state max - min
    charge_time: float | None  # first crossing of average_v from v0; None if never
    avg_power: float           # mean supply-delivered power over the window
    reliable: bool             # steady-state drift criterion satisfied
    drift: float = 0.0


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
    parts = [np.array([0.0, horizon])]
    for sig in inputs:
        parts.append(sig.edges_in(0.0, horizon))
    step = supply.substep()
    if step is not None:
        parts.append(np.arange(0.0, horizon, step))
        parts.append(supply.breakpoints_in(0.0, horizon))
    boundaries = np.unique(np.concatenate(parts))
    boundaries = boundaries[(boundaries >= 0.0) & (boundaries <= horizon)]

    # per-segment pull-down unit counts, from input states at segment midpoints
    t0s = boundaries[:-1]
    t1s = boundaries[1:]
    mids = 0.5 * (t0s + t1s)
    dn_units = np.zeros(len(mids), dtype=np.int64)
    for sig, wi in zip(inputs, w.weights):
        if wi == 0:
            continue
        if sig.duty == 1.0:
            dn_units += wi
        elif sig.duty > 0.0:
            period = sig.period
            local = np.mod(mids - sig.phase, period)
            dn_units += wi * (local < sig.duty * period)
    up_units = n_units - dn_units

    if isinstance(supply, ConstantSupply):
        vdd_seg = np.full(len(mids), supply.vdd)
    else:
        vdd_seg = np.array([supply.value_at(float(t)) for t in t0s])

    veq_seg = vdd_seg * (up_units / n_units)
    return t0s, t1s, veq_seg, vdd_seg, up_units, dn_units


def _walk(cfg: VacConfig, segments, v0: float) -> TransientTrace:
    """Solve `segments` from v0 (raised to the clamp threshold) by the
    segment rule v -> max(veq + (v - veq)*e^(-dt/tau), floor). A segment that
    reaches the floor is cut into a free part up to the crossing (none if it
    starts on the floor) and a clamped rest. The trace holds no samples."""
    t0s, t1s, veqs, vdds, ups, dns = segments
    tau = cfg.tau
    v_th = cfg.compensation_threshold
    floor = v_th if v_th > 0.0 else -math.inf
    v = max(float(v0), floor)
    exp, log = math.exp, math.log
    # per piece: segment index, t0, t1, v0, v1, clamped; one flat list of
    # numbers, as record tuples would give the garbage collector work
    pieces = []
    for i, (a, b, veq) in enumerate(zip(t0s.tolist(), t1s.tolist(), veqs.tolist())):
        dt = b - a
        t_free = dt
        if veq < floor:
            t_free = tau * log((v - veq) / (v_th - veq)) if v > v_th else 0.0
        if t_free < dt:
            if t_free > 0.0:
                pieces += (i, a, a + t_free, v, v_th, False)
            a, v, v_end, clamped = a + t_free, v_th, v_th, True
        else:
            v_end, clamped = veq + (v - veq) * exp(-dt / tau), False
        pieces += (i, a, b, v, v_end, clamped)
        v = v_end

    rec = np.fromiter(pieces, np.float64, len(pieces)).reshape(-1, 6)
    del pieces          # before the copies below: a long walk's peak memory
    seg = rec[:, 0].astype(np.int64)
    t0, t1, v0s, v1s = rec[:, 1:5].T.copy()
    return TransientTrace(
        times=np.empty(0), v_cap=np.empty(0), vdd=np.empty(0),
        tau=tau, g_unit=1.0 / cfg.r_unit,
        seg_t0=t0, seg_t1=t1, seg_v0=v0s, seg_v1=v1s,
        seg_veq=veqs.take(seg), seg_vdd=vdds.take(seg),
        seg_up=ups.take(seg), seg_dn=dns.take(seg),
        seg_clamped=rec[:, 5].astype(bool),
    )


def simulate_vac(cfg: VacConfig,
                 inputs: list[PwmSignal],
                 w: WeightVector,
                 supply: SupplyProfile,
                 horizon: float,
                 v0: float = 0.0,
                 n_uniform_samples: int = 512) -> TransientTrace:
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
    uniform_ts = np.linspace(0.0, horizon, n_uniform_samples)
    extra_ts = uniform_ts[~np.isin(uniform_ts, boundary_ts)]
    extra_vs = np.array([trace.value_at(float(t)) for t in extra_ts])
    order = np.argsort(np.concatenate([boundary_ts, extra_ts]), kind="stable")
    trace.times = np.concatenate([boundary_ts, extra_ts])[order]
    trace.v_cap = np.concatenate([boundary_vs, extra_vs])[order]
    if isinstance(supply, ConstantSupply):
        trace.vdd = np.full(len(trace.times), supply.vdd)
    else:
        trace.vdd = np.array([supply.value_at(float(t)) for t in trace.times])
    return trace


def _window_integrals(trace: TransientTrace, w_lo: float, w_hi: float):
    """Exact integral of v, of supply power, and extremes over [w_lo, w_hi]."""
    tau = trace.tau
    g = trace.g_unit
    lo_i = int(np.searchsorted(trace.seg_t1, w_lo, side="right"))
    hi_i = int(np.searchsorted(trace.seg_t0, w_hi, side="left"))
    v_int = 0.0
    p_int = 0.0
    vmin = math.inf
    vmax = -math.inf
    for i in range(lo_i, hi_i):
        a = max(float(trace.seg_t0[i]), w_lo)
        b = min(float(trace.seg_t1[i]), w_hi)
        if b <= a:
            continue
        vdd = float(trace.seg_vdd[i])
        if trace.seg_clamped[i]:
            v_th = float(trace.seg_v0[i])
            v_int += v_th * (b - a)
            # clamp + pull-up current together equal the pull-down current
            p_int += vdd * float(trace.seg_dn[i]) * g * v_th * (b - a)
            vmin = min(vmin, v_th)
            vmax = max(vmax, v_th)
            continue
        veq = float(trace.seg_veq[i])
        va = veq + (float(trace.seg_v0[i]) - veq) * math.exp(-(a - float(trace.seg_t0[i])) / tau)
        decay = 1.0 - math.exp(-(b - a) / tau)
        v_int += veq * (b - a) + tau * (va - veq) * decay
        # supply current flows through the pull-up cells: up * g * (vdd - v)
        up = float(trace.seg_up[i])
        int_vdd_minus_v = (vdd - veq) * (b - a) - tau * (va - veq) * decay
        p_int += vdd * up * g * int_vdd_minus_v
        vb = veq + (va - veq) * (1.0 - decay)
        vmin = min(vmin, va, vb)
        vmax = max(vmax, va, vb)
    return v_int, p_int, vmin, vmax


def trace_metrics(trace: TransientTrace, cfg: VacConfig,
                  supply: SupplyProfile,
                  cycle_period: float | None = None) -> TraceMetrics:
    """Steady-state average, ripple swing, charge time, and supply power.

    The steady-state window is the last quarter of the horizon. Drift is
    checked chunk-to-chunk inside the window (chunks follow `cycle_period`
    when at least two whole cycles fit, else window quarters); metrics are
    flagged unreliable when drift exceeds DRIFT_LIMIT.
    """
    horizon = trace.horizon
    w_lo = horizon * 0.75
    w_hi = horizon
    window = w_hi - w_lo

    v_int, p_int, vmin, vmax = _window_integrals(trace, w_lo, w_hi)
    average_v = v_int / window
    avg_power = p_int / window
    swing = max(vmax - vmin, 0.0)

    # steady-state (cycle-to-cycle drift) check; chunks are whole cycles,
    # coalesced so the check stays O(window) for very fast inputs
    if cycle_period is not None and cycle_period > 0 and window / cycle_period >= 2.0:
        n_cycles = int(window / cycle_period)
        per_chunk = max(1, -(-n_cycles // 64))
        chunk = per_chunk * cycle_period
        n_chunks = int(window / chunk)
        start = w_hi - n_chunks * chunk
    else:
        n_chunks = 4
        chunk = window / 4.0
        start = w_lo
    averages = []
    for i in range(n_chunks):
        a = start + i * chunk
        vi, _, _, _ = _window_integrals(trace, a, a + chunk)
        averages.append(vi / chunk)
    scale = max(abs(average_v), 1e-30)
    drift = max(
        (abs(b - a) / scale for a, b in zip(averages, averages[1:])), default=0.0)
    reliable = drift < DRIFT_LIMIT

    charge_time = _first_crossing(trace, average_v)
    return TraceMetrics(average_v=average_v, swing=swing, charge_time=charge_time,
                        avg_power=avg_power, reliable=reliable, drift=drift)


def _first_crossing(trace: TransientTrace, level: float) -> float | None:
    """First time v_cap reaches `level` starting from the initial condition."""
    tau = trace.tau
    v_start = float(trace.seg_v0[0])
    if v_start == level:
        return 0.0
    for i in range(len(trace.seg_t0)):
        v0 = float(trace.seg_v0[i])
        v1 = float(trace.seg_v1[i])
        if (v0 - level) * (v1 - level) > 0.0:
            continue
        if trace.seg_clamped[i]:
            return float(trace.seg_t0[i])  # flat at the level itself
        veq = float(trace.seg_veq[i])
        if veq == level == v0:
            return float(trace.seg_t0[i])
        ratio = (v0 - veq) / (level - veq)
        if ratio < 1.0:
            continue
        return float(trace.seg_t0[i]) + tau * math.log(ratio)
    return None


def steady_state(cfg: VacConfig, stimulus: VacStimulus) -> TraceMetrics:
    """Exact periodic steady state of a constant supply and inputs of one
    common frequency.

    One input period is cut into the segments simulate_vac would use. On
    v >= threshold its period map is F(v) = max(A*v + B, C), with
    A = exp(-T/tau), B the unclamped F(0) and C = F(threshold) (no C without
    the clamp), so the periodic start voltage is v* = max(B/(1-A), C).
    Average, swing and power are the closed-form integrals over that one
    period; the charge time is the first crossing of the average from v0.
    `drift` is the relative fixed-point residual |F(v*) - v*| / average.
    """
    supply = ConstantSupply(stimulus.vdd)
    inputs = stimulus.signals()
    _check_run(cfg, inputs, stimulus.w, supply, stimulus.v0)
    period = 1.0 / stimulus.frequency
    segments = _segments(cfg, inputs, stimulus.w, supply, period)
    v_aff, c = _period_map(cfg, segments, period)
    pss = _walk(cfg, segments, v_aff if c is None else max(v_aff, c))
    v_int, p_int, vmin, vmax = _window_integrals(pss, 0.0, period)
    average_v = v_int / period
    drift = abs(float(pss.seg_v1[-1] - pss.seg_v0[0])) / max(abs(average_v), 1e-30)
    return TraceMetrics(
        average_v=average_v, swing=max(vmax - vmin, 0.0),
        charge_time=_charge_time(cfg, segments, pss, v_aff, c, average_v,
                                 stimulus.v0),
        avg_power=p_int / period, reliable=drift < DRIFT_LIMIT, drift=drift)


def _period_map(cfg: VacConfig, segments, period: float):
    """The one-period map of `segments` as F(v) = max(A*v + B, C).

    Each segment maps v to max(affine(v), floor), and composing such maps
    keeps that form; once the clamp engages, trajectories from every start
    merge, so on v >= threshold the constant is C = F(threshold). Returns
    (B/(1-A), C), C None when no segment pulls below the threshold.
    """
    t0s, t1s, veq = segments[:3]
    tau = cfg.tau
    # B: each segment's pull toward veq, decayed over the rest of the period;
    # every term is >= 0, so the sum loses no precision
    b = float(np.sum(veq * -np.expm1(-(t1s - t0s) / tau)
                     * np.exp(-(period - t1s) / tau)))
    v_aff = b / -math.expm1(-period / tau)
    v_th = cfg.compensation_threshold
    if v_th > 0.0 and bool(np.any(veq < v_th)):
        return v_aff, float(_walk(cfg, segments, v_th).seg_v1[-1])
    return v_aff, None


def _charge_time(cfg: VacConfig, segments, pss: TransientTrace, v_aff: float,
                 c: float | None, level: float, v0: float) -> float | None:
    """First time the voltage reaches `level` from v0 (raised to the clamp
    threshold, as _walk does), given the steady-state period `pss` and the
    period map F(v) = max(G(v), c), G(v) = v_aff + (v - v_aff)*A.

    Period m >= 1 starts at F^m(v) = max(G^m(v), c, G^(m-1)(c)), as the
    iterates of c under G move monotonically toward v_aff. Every deviation
    from the steady state decays at least as fast as e^(-t/tau), so by
    period m_hi the voltage has crossed wherever the steady state goes past
    the level by more than the remaining deviation; the first crossing
    period is bisected below that.
    """
    v = max(float(v0), cfg.compensation_threshold)   # v0 >= 0
    if v == level:
        return 0.0
    tau = cfg.tau
    period = pss.horizon
    delta = v - float(pss.seg_v0[0])
    ends = np.concatenate((pss.seg_v0, pss.seg_v1[-1:]))
    # how far the steady state goes past the level, on the far side from v
    gap = float(np.max((level - ends) if v > level else (ends - level)))
    gap = max(gap, 4.0 * math.ulp(max(abs(level), abs(delta))))
    m_hi = max(0, math.ceil(math.log(abs(delta) / gap) * tau / period)) if delta else 0

    def crossing(m: int) -> float | None:
        start = v
        if m:
            start = v_aff + (v - v_aff) * math.exp(-m * period / tau)
            if c is not None:
                start = max(start, c, v_aff + (c - v_aff) * math.exp(-(m - 1) * period / tau))
        return _first_crossing(_walk(cfg, segments, start), level)

    lo, hi = -1, m_hi            # no crossing before period lo + 1
    t_hi = crossing(hi)
    if t_hi is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t_mid = crossing(mid)
        if t_mid is None:
            lo = mid
        else:
            hi, t_hi = mid, t_mid
    return hi * period + t_hi


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


def _sweep_one(args) -> SweepPoint:
    cfg, stim, axis, value = args
    try:
        if axis not in ("vdd", "frequency"):
            raise ValueError(f"unknown sweep axis {axis!r}")
        stim = dataclasses.replace(stim, **{axis: float(value)})
        metrics = steady_state(cfg, stim)
        return SweepPoint(float(value), metrics, metrics.average_v / stim.vdd)
    except Exception as exc:  # recorded, not fatal
        return SweepPoint(float(value), None, None,
                          error=f"{type(exc).__name__}: {exc}")


def sweep(cfg: VacConfig, stimulus: VacStimulus, axis: str,
          grid: list[float], jobs: int = 1) -> list[SweepPoint]:
    """One steady_state per grid point; failures are recorded per point.

    Results are ordered by grid index whatever the worker count, so output is
    parallelism-invariant.
    """
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be ascending")
    return parallel_map(_sweep_one, [(cfg, stimulus, axis, v) for v in grid], jobs)


def parallel_map(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], over ``jobs`` worker processes when jobs > 1.

    Results keep the order of ``tasks`` whatever the worker count; ``fn`` and
    the tasks must be picklable.
    """
    if jobs > 1:
        # imported here: the pool loads multiprocessing, socket and pickle,
        # about 2 MB that a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]
