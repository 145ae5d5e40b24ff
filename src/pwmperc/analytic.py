"""Closed-form steady state of the weighted-addition voltage accumulator (VAC).

This is the idealized resistive-divider relation: the average capacitor
voltage of a cell bank driven by PWM inputs, in the regime where the output
resistor dominates the transistor on-resistances. The PWM inverter (one
full-weight input, vdd * (1 - duty)) and the plain adder (all weights at
maximum, vdd * (1 - mean(duty))) are its special cases. All functions are
pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightVector",
    "weighted_dc_sum",
    "vac_equilibrium",
]


@dataclass(frozen=True)
class WeightVector:
    """Per-input unsigned integer weights, k bits each.

    A weight W is realized as W unit cells out of the 2^k - 1 the input owns
    (binary digits map to x1/x2/x4... drive strengths); the disabled cells
    behave like enabled cells with zero-duty input.
    """

    weights: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(
            _whole(w, "weights", i) for i, w in enumerate(self.weights)))
        if not self.weights:
            raise ValueError("weights must hold at least one input")
        object.__setattr__(self, "k", _whole(self.k, "k"))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        top = self.max_weight
        for w in self.weights:
            if not 0 <= w <= top:
                raise ValueError(f"weight {w} outside [0, {top}] for k={self.k}")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def max_weight(self) -> int:
        return 2 ** self.k - 1

    @property
    def total_units(self) -> int:
        """Unit-cell count of the whole bank, enabled or not: n * (2^k - 1)."""
        return self.n * self.max_weight


def weighted_dc_sum(duties, w: WeightVector):
    """Normalized weighted sum: sum(duty_i * W_i) / (n * (2^k - 1)), in [0, 1].

    ``duties`` holds one entry per input, each a float or an array (one shape
    for all); the sum is taken input by input, so each point of an array
    result is the sum for that point's duties.
    """
    if len(duties) != w.n:
        raise ValueError(f"{len(duties)} duties vs {w.n} weights")
    for i, d in enumerate(duties):
        _check_duty(d, f"duty of input {i}")
    return _weighted_sum((d * wi for d, wi in zip(duties, w.weights)), w.total_units)


def _weighted_sum(terms, total_units: int):
    """weighted_dc_sum's arithmetic, unchecked: terms added in order from 0."""
    acc = 0
    for t in terms:
        acc += t
    return acc / total_units


def vac_equilibrium(duties, w: WeightVector, vdd: float):
    """Average capacitor voltage of the weighted VAC: vdd * (1 - weighted sum)."""
    _check_vdd(vdd)
    return vdd * (1.0 - weighted_dc_sum(duties, w))


def _whole(value, name: str, index: int | None = None) -> int:
    """value as an int; a bool, a non-number, or a number that is not finite
    or not whole fails by name, and index if given (a whole float passes)."""
    if type(value) is int or isinstance(value, np.integer):  # a bool's type is bool
        return int(value)
    if isinstance(value, (float, np.floating)) and math.isfinite(value) and value == int(value):
        return int(value)
    at = "" if index is None else f"[{index}]"
    raise ValueError(f"{name}{at} must be an integer, got {value!r}")


def _check_vdd(vdd) -> None:
    """Reject a supply, a float or an array, that is not finite and > 0."""
    if not np.all((0.0 < vdd) & (vdd < math.inf)):
        raise ValueError(f"vdd must be finite and > 0, got {vdd}")


def _check_duty(duty, name: str) -> None:
    """Reject a duty that is NaN or outside [0, 1], naming it and an array's
    first bad element by its index, a tuple for more than one axis."""
    d = np.asarray(duty)
    # two reductions pass a good array; NaN fails them, as np.min keeps it
    if d.size and 0.0 <= d.min() and d.max() <= 1.0:
        return
    bad = np.flatnonzero(~((d >= 0.0) & (d <= 1.0)))
    if bad.size:
        index = tuple(int(j) for j in np.unravel_index(bad[0], d.shape))
        at = f" at index {index[0] if d.ndim == 1 else index}" if d.ndim else ""
        raise ValueError(f"{name} must be in [0, 1], got {d.flat[bad[0]]}{at}")
