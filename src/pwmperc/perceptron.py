"""One evaluable perceptron: weighted VAC + compensation + output converter.

Two evaluation paths share the same interface: the behavioral path composes
the closed-form VAC equilibrium with the converter transfer, the transient
path substitutes the simulated steady-state capacitor voltage. Chained stages
reproduce the series-connected depth experiments (one output feeding all
inputs of the next stage at maximum weights).

The stage functions take floats or arrays of duties and evaluate a whole grid
in one call; a stalled raw oscillator reads NaN at its point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import WeightVector, vac_equilibrium
from .converter import ConverterModel, _like, v_to_dc
from .signals import PwmSignal, SupplyProfile
from .transient import (TransientTrace, VacConfig, VacStimulus, simulate_vac,
                        steady_state)

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
    voltage of each point's periodic steady state replaces the analytic
    equilibrium.
    """
    if cfg.path == "behavioral":
        v = vac_equilibrium(duties, w, vdd)
    else:
        per_input = np.broadcast_arrays(*duties)
        v = np.empty(per_input[0].shape)
        for i in np.ndindex(v.shape):
            stim = VacStimulus(tuple(float(d[i]) for d in per_input), cfg.frequency,
                               w, vdd=vdd)
            v[i] = steady_state(cfg.vac, stim).average_v
    return _like(duties[0], v_to_dc(v, vdd, cfg.converter))


def chain_eval(cfg: PerceptronConfig, depth: int, dc_in, vdd: float = 2.5):
    """depth perceptrons in series, each output driving all inputs of the
    next stage at maximum weights (ideal chain would be the identity).

    dc_in is a float or an array; a point whose oscillator stalls at any stage
    is NaN, and only the points still oscillating enter the next stage.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    w = cfg.max_weights()
    dc = np.array(dc_in, dtype=np.float64)
    flat = dc.reshape(-1)
    live = np.arange(flat.size)
    for _ in range(depth):
        out = perceptron_eval(cfg, [flat[live]] * cfg.vac.n, w, vdd)
        flat[live] = out
        live = live[~np.isnan(out)]
    return _like(dc_in, dc)


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    depth: int
    dc_in: np.ndarray                   # the grid, float64
    dc_out: np.ndarray                  # float64, NaN where the chain stalls
    deviation: float                    # sum |out - in| over oscillating points


def response_curve(cfg: PerceptronConfig, grid, depth: int,
                   vdd: float = 2.5) -> ResponseCurve:
    """chain_eval over the grid plus total absolute deviation from identity."""
    dc_in = np.array(grid, dtype=np.float64)
    dc_out = chain_eval(cfg, depth, dc_in, vdd)
    steps = np.abs(dc_out - dc_in)[~np.isnan(dc_out)]
    # a running sum, in grid order: np.sum's pairwise order differs in the last bit
    deviation = float(np.cumsum(steps)[-1]) if steps.size else 0.0
    return ResponseCurve(depth=depth, dc_in=dc_in, dc_out=dc_out,
                         deviation=deviation)


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
    ts, out, _ = duty_samples(cfg, trace, supply)
    return ts, out


def duty_samples(cfg: PerceptronConfig, trace: TransientTrace,
                 supply: SupplyProfile):
    """Converter output and v_cap/vdd at 400 times evenly spread over the
    trace's horizon.

    Returns (times, duty_out, v_over_vdd), duty_out NaN where the raw
    oscillator stalls.
    """
    ts = np.linspace(0.0, trace.horizon, 400)
    v = trace.sample(ts)
    vdd = supply.values(ts)
    return ts, v_to_dc(v, vdd, cfg.converter), v / vdd
