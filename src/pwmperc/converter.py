"""Behavioral voltage-to-PWM conversion.

Two models of the ring-oscillator output stage:

* raw: the uncompensated oscillator. Affine-ish decreasing duty over the
  linear input region (fractions of vdd); outside that region the oscillator
  stalls and the result is NaN (``is_no_oscillation``), never a silent 0
  or 1.
* compensated: the cubic stage model fitted to the full perceptron
  (duty-in -> duty-out at max weights), with the output capped at 98%.

The stage functions take floats or arrays: a float in gives a float out, an
array gives an array of the same shape, NaN at every stalled point.

Also the cubic least-squares fit used to recover stage models from response
data, and the fixed points of the stage map (which explain where chained
stages contract and where they saturate), solved exactly: x = 0 on the
floor, x = cap/100 on the cap, and in between the real roots of
cubic(x) - 100 x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "is_no_oscillation",
    "ConverterModel",
    "FitResult",
    "FixedPoint",
    "FixedPointScan",
    "stage_map",
    "stage_map_deriv",
    "v_to_dc",
    "fit_cubic",
    "find_fixed_points",
]

# Default compensated-stage cubic, percent output vs normalized input.
DEFAULT_COEFFS = (107.27, -53.25, 52.92, 13.44)
DEFAULT_OUTPUT_CAP = 98.0
# Raw-oscillator linear region as fractions of vdd (0.7 V and 2.3 V at 2.5 V).
DEFAULT_LINEAR_REGION = (0.28, 0.92)
# Synthetic calibration duties at the edges of the linear region.
RAW_EDGE_DUTIES = (0.9, 0.1)


def is_no_oscillation(value) -> bool:
    """True for the stalled-oscillator output of ``v_to_dc``: NaN. Takes a
    float or a numpy scalar."""
    return math.isnan(value)


@dataclass(frozen=True)
class ConverterModel:
    """Voltage -> duty-cycle transfer model of the output stage."""

    mode: str = "compensated"                       # "raw" | "compensated"
    coefficients: tuple[float, float, float, float] = DEFAULT_COEFFS  # percent
    output_cap: float = DEFAULT_OUTPUT_CAP          # percent
    linear_region: tuple[float, float] = DEFAULT_LINEAR_REGION  # fractions of vdd

    def __post_init__(self):
        if self.mode not in ("raw", "compensated"):
            raise ValueError(f"unknown converter mode {self.mode!r}")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError(f"coefficients must be finite, got {self.coefficients}")
        if not math.isfinite(self.output_cap):
            raise ValueError(f"output_cap must be finite, got {self.output_cap}")
        lo, hi = self.linear_region
        # the raw map is calibrated at both edges and at vdd/2 in between
        if not 0.0 <= lo < 0.5 < hi <= 1.0:
            raise ValueError(f"linear_region must hold 0.5 inside, got {self.linear_region}")

    @classmethod
    def compensated(cls) -> "ConverterModel":
        return cls(mode="compensated")

    @classmethod
    def raw(cls) -> "ConverterModel":
        return cls(mode="raw")

    @classmethod
    def identity(cls) -> "ConverterModel":
        """Ideal stage (out == in), used as a degenerate reference."""
        return cls(mode="compensated", coefficients=(0.0, 0.0, 100.0, 0.0),
                   output_cap=100.0)

    def cubic_percent(self, x):
        """Raw cubic in percent, no capping. Accepts scalars or arrays."""
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * x + c2) * x + c1) * x + c0


def stage_map(x: float, model: ConverterModel | None = None) -> float:
    """Duty-in -> duty-out of one compensated stage, as a fraction.

    min(cubic(x), cap)/100, clamped below at 0. Vectorized over arrays.
    """
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("stage_map is defined for compensated models")
    y = np.minimum(model.cubic_percent(x), model.output_cap)
    y = np.maximum(y, 0.0) / 100.0
    return float(y) if np.isscalar(x) else y


def stage_map_deriv(x: float, model: ConverterModel | None = None) -> float:
    """d(stage_map)/dx; zero inside the capped or floored regions."""
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("stage_map_deriv is defined for compensated models")
    c3, c2, c1, _ = model.coefficients
    raw = ((3.0 * c3 * x + 2.0 * c2) * x + c1) / 100.0
    uncapped = model.cubic_percent(x)
    inside = (uncapped < model.output_cap) & (uncapped > 0.0)
    y = np.where(inside, raw, 0.0)
    return float(y) if np.isscalar(x) else y


def v_to_dc(v, vdd, model: ConverterModel):
    """Capacitor voltage -> output duty cycle, elementwise over arrays.

    compensated: recovers the normalized weighted sum as 1 - v/vdd and applies
    the cubic stage map. raw: piecewise-linear decreasing map over the linear
    region, calibrated at (0.28*vdd -> 0.9), (0.5*vdd -> 0.5), (0.92*vdd ->
    0.1); outside the region the oscillator stalls and the duty is NaN.
    """
    if np.any(vdd <= 0):
        raise ValueError(f"vdd must be > 0, got {vdd}")
    if model.mode == "compensated":
        return stage_map(np.clip(1.0 - v / vdd, 0.0, 1.0), model)
    lo, hi = model.linear_region
    frac = v / vdd
    stalled = (frac < lo - 1e-12) | (frac > hi + 1e-12)
    frac = np.clip(frac, lo, hi)
    d_lo, d_hi = RAW_EDGE_DUTIES
    # two-segment monotone map hitting the midpoint calibration exactly
    duty = np.where(frac <= 0.5, d_lo + (0.5 - d_lo) * (frac - lo) / (0.5 - lo),
                    0.5 + (d_hi - 0.5) * (frac - 0.5) / (hi - 0.5))
    duty = np.where(stalled, np.nan, duty)
    return float(duty) if duty.ndim == 0 else duty


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, float, float, float]  # (c3, c2, c1, c0), y units
    r_squared: float


def fit_cubic(xs, ys) -> FitResult:
    """Least-squares cubic through (xs, ys) plus R^2 on the same data.

    R^2 = 1 - SS_res/SS_tot; defined as 0 when ys is constant (SS_tot == 0).
    Needs at least 4 distinct xs for a well-posed design matrix.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if len(np.unique(xs)) < 4:
        raise ValueError(f"need >= 4 distinct xs, got {len(np.unique(xs))}")
    design = np.vander(xs, 4)  # columns x^3, x^2, x, 1
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coeffs
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(tuple(float(c) for c in coeffs), r2)


@dataclass(frozen=True)
class FixedPoint:
    x: float
    stability: str  # "stable" | "unstable"


@dataclass(frozen=True)
class FixedPointScan:
    points: tuple[FixedPoint, ...]
    degenerate_interval: tuple[float, float] | None = None

    @property
    def degenerate(self) -> bool:
        return self.degenerate_interval is not None


def find_fixed_points(model: ConverterModel | None = None) -> FixedPointScan:
    """Exact roots of stage_map(x) == x in [0, 1] with local stability.

    The floor (cubic <= 0), interior (0 < cubic < cap) and cap (cubic >= cap)
    regions of stage_map partition [0, 1], so each fixed point lies in exactly
    one of them:

    * floor: x = 0, when cubic(0) <= 0;
    * interior: the real roots of cubic(x) - 100 x in [0, 1] (eigenvalues of
      its companion matrix, np.roots) where 0 < cubic < cap;
    * cap: x = cap/100, when cap/100 <= 1 and cubic(cap/100) >= cap.

    Stability from |stage_map'| at the point (< 1 means iterates converge
    locally). When cubic(x) - 100 x vanishes identically (the identity model)
    no point is isolated; the interval (0, min(1, cap/100)) is reported as
    degenerate instead.
    """
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("find_fixed_points is defined for compensated models")
    resid = np.subtract(model.coefficients, (0.0, 0.0, 100.0, 0.0))
    cap = model.output_cap / 100.0
    if not resid.any():
        return FixedPointScan(points=(), degenerate_interval=(0.0, min(1.0, cap)))
    # a set: np.roots returns a tangent (double) root twice
    xs = {0.0} if model.cubic_percent(0.0) <= 0.0 else set()
    for root in np.roots(resid):
        x = float(root.real)
        if root.imag == 0.0 and 0.0 <= x <= 1.0 \
                and 0.0 < model.cubic_percent(x) < model.output_cap:
            xs.add(x)
    if cap <= 1.0 and model.cubic_percent(cap) >= model.output_cap:
        xs.add(cap)
    return FixedPointScan(points=tuple(
        FixedPoint(x, "stable" if abs(stage_map_deriv(x, model)) < 1.0 else "unstable")
        for x in sorted(xs)))
