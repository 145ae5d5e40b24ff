"""One evaluable perceptron: weighted VAC + compensation + output converter.

Two evaluation paths share the same interface: the behavioral path composes
the closed-form VAC equilibrium with the converter transfer, the transient
path substitutes the simulated steady-state capacitor voltage. Chained stages
reproduce the series-connected depth experiments (one output feeding all
inputs of the next stage at maximum weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import WeightVector, vac_equilibrium
from .converter import (NO_OSCILLATION, ConverterModel, is_no_oscillation,
                        v_to_dc)
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
    v0: float = 0.0

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


def perceptron_eval(cfg: PerceptronConfig, duties: list[float],
                    w: WeightVector, vdd: float):
    """Output duty cycle of one perceptron, or NO_OSCILLATION (raw converter).

    behavioral: v_to_dc(vac_equilibrium(duties, w, vdd)). transient: the
    average capacitor voltage of the periodic steady state replaces the
    analytic equilibrium.
    """
    if cfg.path == "behavioral":
        v = vac_equilibrium(duties, w, vdd)
    else:
        stim = VacStimulus(tuple(duties), cfg.frequency, w, vdd=vdd, v0=cfg.v0)
        v = steady_state(cfg.vac, stim).average_v
    return v_to_dc(v, vdd, cfg.converter)


def chain_eval(cfg: PerceptronConfig, depth: int, dc_in: float,
               vdd: float = 2.5):
    """depth perceptrons in series, each output driving all inputs of the
    next stage at maximum weights (ideal chain would be the identity)."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    w = cfg.max_weights()
    dc = dc_in
    for _ in range(depth):
        dc = perceptron_eval(cfg, [dc] * cfg.vac.n, w, vdd)
        if is_no_oscillation(dc):
            return NO_OSCILLATION
    return dc


@dataclass(frozen=True)
class ResponseCurve:
    depth: int
    dc_in: tuple[float, ...]
    dc_out: tuple[object, ...]          # floats or NO_OSCILLATION
    deviation: float                    # sum |out - in| over oscillating points

    def rows(self):
        for x, y in zip(self.dc_in, self.dc_out):
            yield x, y


def response_curve(cfg: PerceptronConfig, grid: list[float], depth: int,
                   vdd: float = 2.5) -> ResponseCurve:
    """chain_eval per grid point plus total absolute deviation from identity."""
    outs = []
    deviation = 0.0
    for x in grid:
        y = chain_eval(cfg, depth, x, vdd)
        outs.append(y)
        if not is_no_oscillation(y):
            deviation += abs(y - x)
    return ResponseCurve(depth=depth, dc_in=tuple(grid), dc_out=tuple(outs),
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
    trace = simulate_vac(cfg.vac, sigs, w, supply, horizon, v0=cfg.v0)
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
    out = np.empty(len(ts))
    ratio = np.empty(len(ts))
    for i, t in enumerate(ts):
        v = trace.value_at(float(t))
        vdd = supply.value_at(float(t))
        dc = v_to_dc(v, vdd, cfg.converter)
        out[i] = np.nan if is_no_oscillation(dc) else dc
        ratio[i] = v / vdd
    return ts, out, ratio
