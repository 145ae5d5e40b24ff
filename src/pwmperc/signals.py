"""PWM input waveforms and supply-voltage profiles.

Everything here is an immutable value type: signals and profiles can be shared
freely between simulation runs and threads. A PWM signal carries its value in
the fraction of each period spent high (the duty cycle); the carrier amplitude
is supplied separately by the supply profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PwmSignal",
    "SupplyProfile",
    "ConstantSupply",
    "SinusoidSupply",
    "PiecewiseLinearSupply",
    "with_random_phases",
]


@dataclass(frozen=True)
class PwmSignal:
    """Periodic rectangular waveform: high for duty*period, low for the rest.

    duty 0 and 1 are legal and mean constant-low / constant-high.
    """

    frequency: float          # Hz, > 0
    duty: float               # fraction of period spent high, in [0, 1]
    phase: float = 0.0        # seconds, in [0, period)

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"frequency must be > 0, got {self.frequency}")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {self.duty}")
        if not 0.0 <= self.phase < 1.0 / self.frequency:
            raise ValueError(
                f"phase must be in [0, period={1.0 / self.frequency}), got {self.phase}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    def state_at(self, t: float) -> bool:
        """True when the signal is high at time t (t >= 0).

        fmod keeps this exact for arbitrarily large t: IEEE fmod introduces no
        rounding error, so there is no drift even after 1e6+ periods.
        """
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if self.duty == 0.0:
            return False
        if self.duty == 1.0:
            return True
        period = self.period
        local = math.fmod(t - self.phase, period)
        if local < 0.0:
            local += period
        return local < self.duty * period

    def edges_in(self, t0: float, t1: float) -> np.ndarray:
        """All state-change times in [t0, t1), sorted ascending.

        Edge times are computed as phase + m*period (never by accumulation),
        so they stay exact over long horizons. Constant signals have none.
        """
        if self.duty == 0.0 or self.duty == 1.0:
            return np.empty(0)
        period = self.period
        t_fall = self.duty * period
        # rising edges at phase + m*period, falling at phase + t_fall + m*period
        m_lo = math.floor((t0 - self.phase) / period) - 1
        m_hi = math.ceil((t1 - self.phase) / period) + 1
        m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
        rises = self.phase + m * period
        falls = rises + t_fall
        edges = np.concatenate([rises, falls])
        return np.sort(edges[(edges >= t0) & (edges < t1)])


def with_random_phases(signals: list[PwmSignal], rng: np.random.Generator) -> list[PwmSignal]:
    """Copies of `signals` with phases drawn uniformly in [0, period).

    Emulates unsynchronized inputs when several signals share a frequency.
    """
    return [
        PwmSignal(s.frequency, s.duty, phase=float(rng.uniform(0.0, s.period)))
        for s in signals
    ]


class SupplyProfile:
    """Supply voltage as a function of time. Must be > 0 over the horizon."""

    def value_at(self, t: float) -> float:
        raise NotImplementedError

    def max_value(self) -> float:
        raise NotImplementedError

    def min_value(self) -> float:
        raise NotImplementedError

    def substep(self) -> float | None:
        """Max segment length for zero-order-hold sampling; None = constant."""
        return None

    def breakpoints_in(self, t0: float, t1: float) -> np.ndarray:
        return np.empty(0)


@dataclass(frozen=True)
class ConstantSupply(SupplyProfile):
    vdd: float

    def __post_init__(self):
        if not math.isfinite(self.vdd):
            raise ValueError(f"vdd must be finite, got {self.vdd}")
        if not self.vdd > 0:
            raise ValueError(f"supply must be > 0, got {self.vdd}")

    def value_at(self, t: float) -> float:
        return self.vdd

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
        return self.mean + self.amplitude * math.sin(2.0 * math.pi * t / self.period)

    def max_value(self) -> float:
        return self.mean + abs(self.amplitude)

    def min_value(self) -> float:
        return self.mean - abs(self.amplitude)

    def substep(self) -> float | None:
        return self.period / 200.0


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

    def value_at(self, t: float) -> float:
        pts = self.breakpoints
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")

    def max_value(self) -> float:
        return max(v for _, v in self.breakpoints)

    def min_value(self) -> float:
        return min(v for _, v in self.breakpoints)

    def substep(self) -> float | None:
        span = self.breakpoints[-1][0] - self.breakpoints[0][0]
        return span / 200.0 if span > 0 else None

    def breakpoints_in(self, t0: float, t1: float) -> np.ndarray:
        ts = np.array([t for t, _ in self.breakpoints])
        return ts[(ts >= t0) & (ts < t1)]
