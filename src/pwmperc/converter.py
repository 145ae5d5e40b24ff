"""Behavioral voltage-to-PWM conversion.

Two models of the ring-oscillator output stage:

* raw: the uncompensated oscillator. Affine-ish decreasing duty over the
  linear input region (fractions of vdd); outside that region the oscillator
  stalls and the result is NaN (``is_no_oscillation``), never a silent 0
  or 1.
* compensated: the cubic stage model fitted to the full perceptron
  (duty-in -> duty-out at max weights), with the output capped at 98%.

The stage functions take floats or arrays: a float in gives a float out, an
array gives an array of the same shape, NaN at every stalled point. They
never write their inputs. The compensated ``v_to_dc`` runs in place on one
buffer per call, v/vdd, and one array more for the cubic; the raw one is a
single np.interp over v/vdd through the calibration points, one new array.

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

from .analytic import _check_vdd

__all__ = [
    "is_no_oscillation",
    "ConverterModel",
    "FitResult",
    "FixedPoint",
    "FixedPointScan",
    "stage_map",
    "stage_map_deriv",
    "stage_map_and_slope",
    "v_to_dc",
    "fit_cubic",
    "find_fixed_points",
]

# Default compensated-stage cubic, percent output vs normalized input.
DEFAULT_COEFFS = (107.27, -53.25, 52.92, 13.44)
DEFAULT_OUTPUT_CAP = 98.0
# Raw-oscillator linear region as fractions of vdd (0.7 V and 2.3 V at 2.5 V).
LINEAR_REGION = (0.28, 0.92)
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
    output_cap: float = DEFAULT_OUTPUT_CAP          # percent, in [0, 100]

    def __post_init__(self):
        if self.mode not in ("raw", "compensated"):
            raise ValueError(f"unknown converter mode {self.mode!r}")
        if len(self.coefficients) != 4:
            raise ValueError(f"coefficients must hold 4, c3 to c0, got {self.coefficients}")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError(f"coefficients must be finite, got {self.coefficients}")
        if not 0.0 <= self.output_cap <= 100.0:     # NaN fails too
            raise ValueError(f"output_cap must be in [0, 100], got {self.output_cap}")

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

    def cubic_percent(self, x, out=None):
        """Raw cubic in percent, no capping. Accepts scalars or arrays.

        ((c3*x + c2)*x + c1)*x + c0, each step in place on the one new value
        that c3*x makes, or on ``out``, an array of x's shape that is not x.
        """
        c3, c2, c1, c0 = self.coefficients
        y = c3 * x if out is None else np.multiply(c3, x, out=out)
        y += c2
        y *= x
        y += c1
        y *= x
        y += c0
        return y


def _floats(x) -> np.ndarray:
    """x as a float64 array of at least one dimension; an array is not copied."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _like(x, y):
    """``y``, computed elementwise from ``x``, in x's form: a float for a
    Python or numpy scalar, otherwise an array of x's shape (a 0-d array
    stays 0-d)."""
    y = np.asarray(y).reshape(np.shape(x))
    return y if y.ndim or isinstance(x, np.ndarray) else float(y)


def _cap_percent(y: np.ndarray, model: ConverterModel) -> np.ndarray:
    """max(min(y, cap), 0)/100 of cubic values y, in place."""
    np.minimum(y, model.output_cap, out=y)
    np.maximum(y, 0.0, out=y)
    y /= 100.0
    return y


def stage_map(x: float, model: ConverterModel | None = None) -> float:
    """Duty-in -> duty-out of one compensated stage, as a fraction.

    min(cubic(x), cap)/100, clamped below at 0. Vectorized over arrays.
    """
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("stage_map is defined for compensated models")
    y = _cap_percent(model.cubic_percent(_floats(x)), model)
    return _like(x, y)


def stage_map_deriv(x: float, model: ConverterModel | None = None) -> float:
    """d(stage_map)/dx; zero inside the capped or floored regions. The slope
    of ``stage_map_and_slope``, in the shape of x."""
    return stage_map_and_slope(x, model)[1]


def stage_map_and_slope(x, model: ConverterModel | None = None):
    """``(stage_map(x), stage_map_deriv(x))``, bit for bit, from one
    evaluation of the cubic. Vectorized over arrays."""
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("stage_map_and_slope is defined for compensated models")
    c3, c2, c1, _ = model.coefficients
    xs = _floats(x)
    y = model.cubic_percent(xs)
    outside = ~((y < model.output_cap) & (y > 0.0))
    _cap_percent(y, model)
    slope = 3.0 * c3 * xs
    slope += 2.0 * c2
    slope *= xs
    slope += c1
    slope /= 100.0
    slope = np.where(outside, 0.0, slope)
    return _like(x, y), _like(x, slope)


def v_to_dc(v, vdd, model: ConverterModel):
    """Capacitor voltage -> output duty cycle, elementwise over arrays.

    compensated: recovers the normalized weighted sum as 1 - v/vdd and applies
    the cubic stage map. raw: piecewise-linear decreasing map over the linear
    region, calibrated at (0.28*vdd -> 0.9), (0.5*vdd -> 0.5), (0.92*vdd ->
    0.1); outside the region the oscillator stalls and the duty is NaN. vdd is
    a float or an array of v's shape, finite and > 0, and v is finite; the
    result takes v's form.
    """
    _check_vdd(vdd)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"v must be finite, got {v}")
    return _like(v, _v_to_dc(np.atleast_1d(np.divide(v, vdd)), model))


def _v_to_dc(frac: np.ndarray, model: ConverterModel, spare=None) -> np.ndarray:
    """v_to_dc of the array frac = v/vdd, unchecked. A NaN frac is a stall.

    compensated: in place, frac and ``spare`` (an array of frac's shape that
    is not frac, a new one if None) overwritten; returns the one of them that
    holds the duties. Each step is v_to_dc's operation on the same operands,
    np.clip as np.maximum then np.minimum, so the duties are the same bit for
    bit. raw: one np.interp over the calibration points, a new float64 array;
    frac and spare are not written.
    """
    if model.mode == "compensated":
        np.subtract(1.0, frac, out=frac)
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        # stage_map, unchecked
        return _cap_percent(model.cubic_percent(_floats(frac), spare), model)
    lo, hi = LINEAR_REGION
    d_lo, d_hi = RAW_EDGE_DUTIES
    # the flat pieces are the clip within 1e-12 of the region, and beyond it
    # the oscillator stalls
    return np.interp(frac, (lo - 1e-12, lo, 0.5, hi, hi + 1e-12),
                     (d_lo, d_lo, 0.5, d_hi, d_hi), left=np.nan, right=np.nan)


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, float, float, float]  # (c3, c2, c1, c0), y units
    r_squared: float


def fit_cubic(xs, ys) -> FitResult:
    """Least-squares cubic through (xs, ys) plus R^2 on the same data.

    R^2 = 1 - SS_res/SS_tot; defined as 0 when ys is constant (SS_tot == 0).
    Needs at least 4 distinct xs for a well-posed design matrix, and data
    that is finite: the first value that is not is named with its index.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    for name, a in (("xs", xs), ("ys", ys)):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {a[bad[0]]} at index {bad[0]}")
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
    * cap: x = cap/100, when cubic(cap/100) >= cap.

    Stability from |stage_map'| at the point (< 1 means iterates converge
    locally). When cubic(x) - 100 x vanishes identically (the identity model)
    no point is isolated; the interval (0, cap/100) is reported as
    degenerate instead.
    """
    model = model or ConverterModel.compensated()
    if model.mode != "compensated":
        raise ValueError("find_fixed_points is defined for compensated models")
    resid = np.subtract(model.coefficients, (0.0, 0.0, 100.0, 0.0))
    cap = model.output_cap / 100.0
    if not resid.any():
        return FixedPointScan(points=(), degenerate_interval=(0.0, cap))
    # a set: np.roots returns a tangent (double) root twice
    xs = {0.0} if model.cubic_percent(0.0) <= 0.0 else set()
    for root in np.roots(resid):
        x = float(root.real)
        if root.imag == 0.0 and 0.0 <= x <= 1.0 \
                and 0.0 < model.cubic_percent(x) < model.output_cap:
            xs.add(x)
    if model.cubic_percent(cap) >= model.output_cap:
        xs.add(cap)
    return FixedPointScan(points=tuple(
        FixedPoint(x, "stable" if abs(stage_map_deriv(x, model)) < 1.0 else "unstable")
        for x in sorted(xs)))
