"""Closed-form steady state of the weighted-addition voltage accumulator (VAC).

This is the idealized resistive-divider relation: the average capacitor
voltage of a cell bank driven by PWM inputs, in the regime where the output
resistor dominates the transistor on-resistances. The PWM inverter (one
full-weight input, vdd * (1 - duty)) and the plain adder (all weights at
maximum, vdd * (1 - mean(duty))) are its special cases. All functions are
pure.
"""

from __future__ import annotations

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
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if not self.weights:
            raise ValueError("weights must hold at least one input")
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
    acc = 0
    for i, (d, wi) in enumerate(zip(duties, w.weights)):
        _check_duty(d, i)
        acc += d * wi
    return acc / w.total_units


def vac_equilibrium(duties, w: WeightVector, vdd: float):
    """Average capacitor voltage of the weighted VAC: vdd * (1 - weighted sum)."""
    if vdd <= 0:
        raise ValueError(f"vdd must be > 0, got {vdd}")
    return vdd * (1.0 - weighted_dc_sum(duties, w))


def _check_duty(duty, i: int) -> None:
    """Reject a duty of input ``i`` that is NaN or outside [0, 1], naming an
    array's first bad element by its flat index."""
    d = np.asarray(duty)
    bad = np.flatnonzero(~((d >= 0.0) & (d <= 1.0)))
    if bad.size:
        at = f" at index {bad[0]}" if d.ndim else ""
        raise ValueError(f"duty of input {i} must be in [0, 1], got {d.flat[bad[0]]}{at}")
