"""One evaluable perceptron: weighted VAC + compensation + output converter.

Two evaluation paths share the same interface: the behavioral path composes
the closed-form VAC equilibrium with the converter transfer, the transient
path substitutes the simulated steady-state capacitor voltage. Chained stages
reproduce the series-connected depth experiments (one output feeding all
inputs of the next stage at maximum weights).

The stage functions take floats or arrays of duties and evaluate a whole grid
in one call; a stalled raw oscillator reads NaN at its point. They never
write their inputs. A chain checks its inputs once, where it is entered: a
stage's output is a duty (a cap is a percent in [0, 100]) or NaN, so each
behavioral stage is one unchecked pass, in place on the chain's one buffer
(its copy of the input) and one working array; a raw stage's map returns a
new array, np.interp's, which becomes the next stage's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import WeightVector, _check_duty, _check_vdd, _whole, vac_equilibrium
from .converter import ConverterModel, _like, _v_to_dc, v_to_dc
from .signals import PwmSignal, SupplyProfile, _check_one
from .transient import (StimulusBatch, TransientTrace, VacConfig, _shape_checks,
                        simulate_vac)

__all__ = [
    "PerceptronConfig",
    "ResponseCurve",
    "perceptron_eval",
    "chain_eval",
    "response_curve",
    "dynamic_duty_trace",
    "duty_samples",
]


@dataclass(frozen=True)
class PerceptronConfig:
    vac: VacConfig
    converter: ConverterModel
    path: str = "behavioral"        # "behavioral" | "transient"
    frequency: float = 100e6        # input frequency for the transient path

    def __post_init__(self):
        if self.path not in ("behavioral", "transient"):
            raise ValueError(f"unknown path {self.path!r}")

    @classmethod
    def behavioral(cls, n: int = 3, k: int = 3,
                   converter: ConverterModel | None = None) -> "PerceptronConfig":
        return cls(vac=VacConfig.small(n=n, k=k),
                   converter=converter or ConverterModel.compensated())

    def max_weights(self) -> WeightVector:
        top = 2 ** self.vac.k - 1
        return WeightVector((top,) * self.vac.n, self.vac.k)


def perceptron_eval(cfg: PerceptronConfig, duties, w: WeightVector, vdd: float):
    """Output duty cycle of one perceptron, NaN where the raw oscillator stalls.

    ``duties`` holds one entry per input, each a float or an array (one form
    for all); the result takes that form. behavioral:
    v_to_dc(vac_equilibrium(duties, w, vdd)). transient: the average capacitor
    voltage of each point's periodic steady state, all points solved as one
    batch, replaces the analytic equilibrium. Both paths hold the input count
    and the weight vector to cfg.vac by the same rules.
    """
    if cfg.path == "behavioral":
        _check_one(_shape_checks(cfg.vac, *(np.array([x]) for x in (len(duties), w.n, w.k))))
        v = vac_equilibrium(duties, w, vdd)
    else:
        grid = np.stack(np.broadcast_arrays(*duties), axis=-1)
        flat = grid.reshape(-1, grid.shape[-1])
        rows, n = flat.shape
        weights = np.broadcast_to(np.array(w.weights, dtype=np.float64), (rows, w.n))
        errors, (v, *_) = StimulusBatch(np.full(rows, cfg.frequency), np.full(rows, vdd), None,
                                        flat, np.zeros_like(flat), weights,
                                        np.array([n, n, w.n, w.k])).solve(cfg.vac)
        if errors:
            raise errors[min(errors)]
        v = v.reshape(grid.shape[:-1])
    return _like(duties[0], v_to_dc(v, vdd, cfg.converter))


def chain_eval(cfg: PerceptronConfig, depth: int, dc_in, vdd: float = 2.5):
    """depth perceptrons in series, each output driving all inputs of the
    next stage at maximum weights (ideal chain would be the identity).

    dc_in is a float or an array; a point whose oscillator stalls at any stage
    is NaN from there on.
    """
    depth = _whole(depth, "depth")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    w = cfg.max_weights()
    dc = np.array(dc_in, dtype=np.float64)
    if cfg.path == "behavioral":
        _check_vdd(vdd)
    # named as the caller passed it: every stage input is the same array
    _check_duty(dc, "chain input dc_in")
    duty = dc.reshape(-1)
    if cfg.path == "transient":
        live = np.arange(duty.size)
        for _ in range(depth):
            out = perceptron_eval(cfg, [duty[live]] * w.n, w, vdd)
            duty[live] = out
            live = live[~np.isnan(out)]
        return _like(dc_in, dc)
    # perceptron_eval's arithmetic on n equal inputs, less its checks, each
    # operation on the same operands in the same order, in place on duty and
    # acc. The raw map returns np.interp's new array, which is neither: it is
    # taken as duty, and the old duty as acc. A stalled point's NaN goes
    # through the later stages, where the raw converter stalls it again: the
    # output is what the oscillating points alone give, bit for bit
    acc = np.empty_like(duty)
    for _ in range(depth):
        np.multiply(duty, w.max_weight, out=duty)
        np.add(0, duty, out=acc)            # the weighted sum, added up from 0
        for _ in range(w.n - 1):
            acc += duty
        acc /= w.total_units
        np.subtract(1.0, acc, out=acc)
        np.multiply(vdd, acc, out=acc)
        acc /= vdd
        out = _v_to_dc(acc, cfg.converter, duty)
        duty, acc = out, (acc if out is duty else duty)
    return _like(dc_in, duty)


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    dc_in: np.ndarray                   # the grid, float64
    dc_out: np.ndarray                  # float64, NaN where the chain stalls
    deviation: float                    # sum |out - in| over oscillating points


def response_curve(cfg: PerceptronConfig, grid, depth: int,
                   vdd: float = 2.5) -> ResponseCurve:
    """chain_eval over the grid plus total absolute deviation from identity."""
    dc_in = np.array(grid, dtype=np.float64)
    dc_out = chain_eval(cfg, depth, dc_in, vdd)
    steps = np.subtract(dc_out, dc_in).reshape(-1)
    np.abs(steps, out=steps)
    # a stall adds +0.0 (fmax drops NaN), which leaves a sum of magnitudes as
    # it is. A running sum, in grid order: np.sum's pairwise order differs
    # in the last bit
    np.fmax(steps, 0.0, out=steps)
    deviation = float(np.add.accumulate(steps, out=steps)[-1]) if steps.size else 0.0
    return ResponseCurve(dc_in=dc_in, dc_out=dc_out, deviation=deviation)


def dynamic_duty_trace(cfg: PerceptronConfig, duties: list[float],
                       w: WeightVector, supply: SupplyProfile,
                       horizon: float):
    """Instantaneous converter output under a time-varying supply.

    Returns (times, duty_out) with NaN where the raw oscillator stalls; this
    is the qualitative picture of the whole perceptron under supply dynamics
    (the capacitor lags the supply, so v_cap/vdd excurses and the raw
    converter drops out near the threshold fraction).
    """
    sigs = [PwmSignal(cfg.frequency, d) for d in duties]
    trace = simulate_vac(cfg.vac, sigs, w, supply, horizon)
    ts, out, _ = duty_samples(cfg.converter, trace)
    return ts, out


def duty_samples(converter: ConverterModel, trace: TransientTrace):
    """Converter output and v_cap/vdd at 400 times evenly spread over the
    trace's horizon, vdd from the trace's supply.

    Returns (times, duty_out, v_over_vdd), duty_out NaN where the raw
    oscillator stalls.
    """
    ts = np.linspace(0.0, trace.horizon, 400)
    v = trace.sample(ts)
    vdd = trace.supply.values(ts)
    return ts, v_to_dc(v, vdd, converter), v / vdd
