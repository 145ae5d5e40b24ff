"""PWM input waveforms and supply-voltage profiles.

Everything here is an immutable value type: signals and profiles can be shared
freely between simulation runs and threads. A PWM signal carries its value in
the fraction of each period spent high (the duty cycle); the carrier amplitude
is supplied separately by the supply profile.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PwmSignal",
    "pwm_edges",
    "SupplyProfile",
    "ConstantSupply",
    "SinusoidSupply",
    "PiecewiseLinearSupply",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PwmSignal:
    """Periodic rectangular waveform: high for duty*period, low for the rest.

    duty 0 and 1 are legal and mean constant-low / constant-high.
    """

    frequency: float          # Hz, > 0
    duty: float               # fraction of period spent high, in [0, 1]
    phase: float = 0.0        # seconds, in [0, period)

    def __post_init__(self):
        _check_one(_pwm_checks(np.array([self.frequency]), np.array([[self.duty]]),
                               np.array([[self.phase]]), True))

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    def high(self, ts) -> np.ndarray:
        """Whether the signal is high at each time of ts (all >= 0). np.mod
        is IEEE fmod, exact, so the state stays exact for any t."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and ts.min() < 0:
            raise ValueError(f"t must be >= 0, got {ts.min()}")
        local = np.mod(ts - self.phase, self.period)
        return (local < self.duty * self.period) | (self.duty == 1.0)

    def edges_in(self, t0: float, t1: float) -> np.ndarray:
        """All state-change times in [t0, t1), sorted ascending; see
        pwm_edges."""
        edges = pwm_edges(self.period, self.duty, self.phase, t0, t1)
        return np.sort(edges[(t0 <= edges) & (edges < t1)])


def _faults(checks, rows: int) -> dict[int, Exception]:
    """Each failing row's error, by row, from the first of `checks` that it
    fails: pairs of a mask of the rows that fail and a function giving a
    row's error, or the message of a ValueError, called for those rows that
    failed no earlier check."""
    bad = np.empty((len(checks), rows), dtype=bool)
    for k, (fails, _) in enumerate(checks):
        bad[k] = fails
    failing = np.flatnonzero(bad.any(axis=0))
    out = {}
    for i, k in zip(failing.tolist(), bad[:, failing].argmax(axis=0).tolist()):
        e = checks[k][1](i)
        out[i] = ValueError(e) if isinstance(e, str) else e
    return out


def _check_one(checks) -> None:
    """Raise the error of the first of `checks` that one row fails."""
    for error in _faults(checks, 1).values():
        raise error


def _pwm_checks(frequency, duty, phase, some) -> list:
    """PwmSignal's checks for _faults, over rows of inputs of one frequency
    (inputs on the last axis of duty and phase): the frequency, > 0 with a
    period > 0 and finite, then each input's duty, in [0, 1], and phase, in
    [0, period), input by input. A row without inputs (`some` False) has
    none of them to check."""
    with np.errstate(divide="ignore", over="ignore"):
        period = 1.0 / frequency
    bad_duty = ~((0.0 <= duty) & (duty <= 1.0))
    bad = bad_duty | ~((0.0 <= phase) & (phase < period[:, None]))
    first = (np.arange(len(bad)), bad.argmax(axis=-1))   # each row's first bad input
    return [(some & ~(frequency > 0), lambda i: f"frequency must be > 0, got {frequency[i]}"),
            (some & ~((period > 0.0) & (period < math.inf)),
             lambda i: f"frequency must have a finite period > 0, got {frequency[i]}"),
            (bad_duty[first], lambda i: f"duty must be in [0, 1], got {duty[i, first[1][i]]}"),
            # a row without inputs holds zeros there, which fail the phase
            # check where its frequency gives no period
            (some & bad[first], lambda i: f"phase must be in [0, period={period[i]}), "
                                          f"got {phase[i, first[1][i]]}")]


def _supply_checks(vdd) -> list:
    """ConstantSupply's checks for _faults, over supplies vdd."""
    return [(~np.isfinite(vdd), lambda i: f"vdd must be finite, got {vdd[i]}"),
            (~(vdd > 0), lambda i: f"supply must be > 0, got {vdd[i]}")]


def pwm_edges(period, duty, phase, t0, t1) -> np.ndarray:
    """The edge rule: the pulses that reach the window [t0, t1) of PWM
    inputs, given by duty and phase arrays of one shape S, with periods and
    window ends that broadcast to it. Rises lie at phase + m*period, never
    accumulated, so they stay exact over long horizons; falls lie duty*period
    later; duty 0 and 1 have none. Returns shape S + (M, 2): the pulses from
    the first that falls at or after t0 to the last that rises before t1, an
    input with fewer padded by later, dead ones; t1 for an input without."""
    period, duty, phase, t0, t1 = (np.asarray(x, dtype=np.float64)
                                   for x in (period, duty, phase, t0, t1))
    pulsing = (duty != 0.0) & (duty != 1.0)
    # each check is the edges' own sum: it catches a division that rounds
    # inward; one that rounds outward leaves at most one dead pulse
    m_lo = np.floor((t0 - phase - duty * period) / period) + 1
    m_lo -= phase + (m_lo - 1) * period + duty * period >= t0
    m_hi = np.ceil((t1 - phase) / period) - 1
    m_hi += phase + (m_hi + 1) * period < t1
    m = m_lo[..., None] + np.arange(int(np.max(m_hi - m_lo, where=pulsing, initial=-1)) + 1)
    rises = phase[..., None] + m * period[..., None]
    edges = np.stack((rises, rises + (duty * period)[..., None]), axis=-1)
    return np.where(pulsing[..., None, None], edges, t1[..., None, None])


class SupplyProfile:
    """Supply voltage as a function of time. Must be > 0 over the horizon."""

    def value_at(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        """value_at at each time of ts, one call per time."""
        return np.fromiter(map(self.value_at, ts.tolist()), np.float64, len(ts))

    def max_value(self) -> float:
        raise NotImplementedError

    def min_value(self) -> float:
        raise NotImplementedError

    def cuts(self, horizon: float) -> np.ndarray:
        """Times in [0, horizon] at which a zero-order hold must re-sample the
        supply; none for a constant one."""
        return np.empty(0)


def _inside(ts: np.ndarray, horizon: float) -> np.ndarray:
    """The times of ts in [0, horizon]; np.arange's last step can overshoot
    its stop."""
    return ts[(ts >= 0.0) & (ts <= horizon)]


@dataclass(frozen=True)
class ConstantSupply(SupplyProfile):
    vdd: float

    def __post_init__(self):
        _check_one(_supply_checks(np.array([self.vdd])))

    def value_at(self, t: float) -> float:
        return self.vdd

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.vdd)

    def max_value(self) -> float:
        return self.vdd

    def min_value(self) -> float:
        return self.vdd


@dataclass(frozen=True)
class SinusoidSupply(SupplyProfile):
    """value_at(t) = mean + amplitude*sin(2*pi*t/period)."""

    mean: float
    amplitude: float
    period: float

    def __post_init__(self):
        for name in ("mean", "amplitude", "period"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.mean - abs(self.amplitude) <= 0:
            raise ValueError(
                f"supply dips to {self.mean - abs(self.amplitude)} V <= 0 "
                f"(mean {self.mean}, amplitude {self.amplitude})"
            )

    def value_at(self, t: float) -> float:
        return self.mean + self.amplitude * math.sin(TWO_PI * t / self.period)

    def max_value(self) -> float:
        return self.mean + abs(self.amplitude)

    def min_value(self) -> float:
        return self.mean - abs(self.amplitude)

    def cuts(self, horizon: float) -> np.ndarray:
        """Every period/200 from 0."""
        return _inside(np.arange(0.0, horizon, self.period / 200.0), horizon)


@dataclass(frozen=True)
class PiecewiseLinearSupply(SupplyProfile):
    """Linear interpolation between (time, volts) breakpoints.

    Holds the first value before the first breakpoint and the last value after
    the last one.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.breakpoints)
        if len(pts) < 1:
            raise ValueError("need at least one breakpoint")
        for t, v in pts:
            if not math.isfinite(t):
                raise ValueError(f"breakpoint time must be finite, got {t}")
            if not math.isfinite(v):
                raise ValueError(f"breakpoint volts must be finite, got {v}")
        times = [t for t, _ in pts]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(v <= 0 for _, v in pts):
            raise ValueError("supply must be > 0 at every breakpoint")
        object.__setattr__(self, "breakpoints", pts)
        # not fields, so not compared or shown: the knot times, for
        # bisection, and each interval's (t0, v0, v1 - v0, t1 - t0)
        object.__setattr__(self, "_times", tuple(times))
        object.__setattr__(self, "_pieces", tuple(
            (t0, v0, v1 - v0, t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])))

    def value_at(self, t: float) -> float:
        pts = self.breakpoints
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        # the interval (t0, t1] holding t: a t on a knot takes the one ending there
        t0, v0, dv, dt = self._pieces[bisect.bisect_left(self._times, t) - 1]
        return v0 + dv * (t - t0) / dt

    def max_value(self) -> float:
        return max(v for _, v in self.breakpoints)

    def min_value(self) -> float:
        return min(v for _, v in self.breakpoints)

    def cuts(self, horizon: float) -> np.ndarray:
        """The knots, and every span/200 from the first knot to the last; the
        supply holds still outside them."""
        knots = np.array(self._times)
        t_a, t_b = knots[0], knots[-1]
        if t_b == t_a:
            return np.empty(0)           # one knot: a constant supply
        steps = np.arange(t_a, min(t_b, horizon), (t_b - t_a) / 200.0)
        return _inside(np.concatenate((knots, steps)), horizon)
