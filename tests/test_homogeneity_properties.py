"""Property tests of the supply homogeneity law, the exact form of the
paper's power elasticity. A segment map is v -> max(a*v + b, c), with
a = e^(-dt/tau) independent of voltage, b proportional to the supply and c
the clamp threshold or b. So scaling the supply, the start voltage v0 and the
threshold by one factor c scales every voltage of the solution by c: the
average and the swing by c, the power by c^2, and the charge time, the drift,
the segment times and clamp flags and a perceptron's output duty not at all.

c is a power of two here, 2^j for j in -2..2, and no value comes near
overflow or underflow, so every operation of the solver scales exactly and
the law holds bit for bit: no comparison takes a tolerance."""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.analytic import WeightVector  # noqa: E402
from pwmperc.converter import ConverterModel  # noqa: E402
from pwmperc.perceptron import (PerceptronConfig, chain_eval,  # noqa: E402
                                perceptron_eval)
from pwmperc.signals import (ConstantSupply, PiecewiseLinearSupply,  # noqa: E402
                             PwmSignal, SinusoidSupply)
from pwmperc.transient import (TraceMetrics, VacConfig, VacStimulus,  # noqa: E402
                               simulate_vac, steady_states, trace_metrics)

SCALES = st.integers(-2, 2).map(lambda j: 2.0 ** j)
PRESETS = st.sampled_from([VacConfig.small(), VacConfig.large()])
DUTIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
CONVERTERS = st.sampled_from([ConverterModel.compensated(), ConverterModel.raw()])
PWL_KNOTS = ((0.0, 2.5), (1e-6, 3.1), (2.5e-6, 1.9), (4e-6, 2.8), (6e-6, 2.2))
# each supply kind at scale c; the least value of each is 1.8 V
SUPPLIES = {
    "constant": lambda c: ConstantSupply(2.5 * c),
    "sinusoid": lambda c: SinusoidSupply(2.5 * c, 0.7 * c, 2e-6),
    "pwl": lambda c: PiecewiseLinearSupply(tuple((t, v * c) for t, v in PWL_KNOTS)),
}


def scaled(cfg: VacConfig, c: float) -> VacConfig:
    return dataclasses.replace(cfg, compensation_threshold=c * cfg.compensation_threshold)


def law(m: TraceMetrics, c: float) -> TraceMetrics:
    """m as the law gives it under a supply, v0 and threshold scaled by c."""
    return dataclasses.replace(m, average_v=c * m.average_v, swing=c * m.swing,
                               avg_power=c * c * m.avg_power)


def weights(draw, v_th: float) -> WeightVector:
    # all weights 0 floats the node, unless the clamp holds it
    return WeightVector(tuple(draw(st.integers(0 if v_th else 1, 7)) for _ in range(3)), 3)


@st.composite
def batches(draw):
    """A preset, a threshold and 1-4 stimuli under constant supplies above
    it: frequencies 10^4-10^9 Hz, random phases, duties 0, 1 or between."""
    v_th = draw(st.sampled_from([0.0, 0.4, 1.0]))
    cfg = dataclasses.replace(draw(PRESETS), compensation_threshold=v_th)
    stimuli = []
    for _ in range(draw(st.integers(1, 4))):
        freq = 10.0 ** draw(st.floats(4.0, 9.0))
        vdd = draw(st.floats(v_th + 0.2, 3.5))
        stimuli.append(VacStimulus(
            tuple(draw(DUTIES) for _ in range(3)), freq, weights(draw, v_th), vdd=vdd,
            v0=draw(st.floats(0.0, vdd)),
            phases=tuple(draw(st.floats(0.0, 0.999)) / freq for _ in range(3))))
    return cfg, stimuli


@settings(max_examples=150, deadline=None)
@given(batches(), SCALES)
def test_steady_state_scales_with_the_supply(case, c):
    cfg, stimuli = case
    base = steady_states(cfg, stimuli)
    assert all(isinstance(m, TraceMetrics) for m in base)
    out = steady_states(scaled(cfg, c), [dataclasses.replace(s, vdd=c * s.vdd, v0=c * s.v0)
                                         for s in stimuli])
    # repr round-trips each float: equal reprs are equal bits
    assert [repr(m) for m in out] == [repr(law(m, c)) for m in base]


@st.composite
def runs(draw):
    """simulate_vac's arguments at scale 1 but the supply's kind: a preset,
    the clamp off or at 0.4 V, inputs, a horizon of 0.5-40 tau and v0."""
    v_th = draw(st.sampled_from([0.0, 0.4]))
    cfg = dataclasses.replace(draw(PRESETS), compensation_threshold=v_th)
    freq = draw(st.sampled_from([1e5, 1e6, 1e7, 1e8]))
    sigs = [PwmSignal(freq, draw(DUTIES), draw(st.floats(0.0, 0.999)) / freq)
            for _ in range(3)]
    # at most about 4,000 input edges
    horizon = min(draw(st.floats(0.5, 40.0)) * cfg.tau, 600.0 / freq)
    return cfg, sigs, weights(draw, v_th), horizon, draw(st.floats(0.0, 1.8))


@settings(max_examples=60, deadline=None)
@given(runs(), st.sampled_from(sorted(SUPPLIES)), SCALES)
def test_trace_scales_with_the_supply(case, kind, c):
    cfg, sigs, w, horizon, v0 = case
    base = simulate_vac(cfg, sigs, w, SUPPLIES[kind](1.0), horizon, v0)
    out = simulate_vac(scaled(cfg, c), sigs, w, SUPPLIES[kind](c), horizon, c * v0)
    for name in ("seg_t0", "seg_t1", "seg_up", "seg_clamped", "times"):
        np.testing.assert_array_equal(getattr(out, name), getattr(base, name))
    for name in ("seg_v0", "seg_v1", "seg_veq", "seg_vdd", "v_cap", "vdd"):
        np.testing.assert_array_equal(getattr(out, name), c * getattr(base, name))
    assert repr(trace_metrics(out)) == repr(law(trace_metrics(base), c))


@settings(max_examples=40, deadline=None)
@given(CONVERTERS, st.sampled_from([0.0, 0.4]), st.floats(1.0, 3.5), SCALES,
       st.integers(1, 8), st.data())
def test_transient_perceptron_output_is_the_same(converter, v_th, vdd, c, size, data):
    # both converters read v/vdd, and v scales with vdd
    pcfg = PerceptronConfig(VacConfig.small(compensation_threshold=v_th), converter,
                            path="transient",
                            frequency=10.0 ** data.draw(st.floats(5.0, 9.0)))
    duties = [np.array(data.draw(st.lists(DUTIES, min_size=size, max_size=size)))
              for _ in range(3)]
    w = weights(data.draw, v_th)
    base = perceptron_eval(pcfg, duties, w, vdd)
    out = perceptron_eval(dataclasses.replace(pcfg, vac=scaled(pcfg.vac, c)), duties, w,
                          c * vdd)
    np.testing.assert_array_equal(out, base)       # NaN where the raw stage stalls


@settings(max_examples=40, deadline=None)
@given(CONVERTERS, st.floats(0.5, 3.5), SCALES, st.lists(DUTIES, min_size=1, max_size=20))
def test_behavioral_chain_output_is_the_same(converter, vdd, c, dc):
    pcfg = PerceptronConfig.behavioral(converter=converter)
    np.testing.assert_array_equal(chain_eval(pcfg, 3, dc, c * vdd),
                                  chain_eval(pcfg, 3, dc, vdd))
