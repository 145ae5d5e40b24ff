"""Property tests of the in-place stage kernels: v_to_dc and the behavioral
chain give, bit for bit, what the elementwise expressions they replaced
give (kept here as the oracle: np.clip, both np.where forms and the
weighted sum accumulated from 0), NaN stalls included, and never write
their inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.converter import (LINEAR_REGION, RAW_EDGE_DUTIES,  # noqa: E402
                               ConverterModel, _floats, _like, v_to_dc)
from pwmperc.perceptron import PerceptronConfig, chain_eval, response_curve  # noqa: E402


def oracle_v_to_dc(v, vdd, model):
    """The converter's transfer as one expression per step, each a new
    array: np.clip for the compensated clips, and for the raw map np.interp
    over v/vdd through its calibration points, flat within 1e-12 of the
    linear region and NaN beyond."""
    if model.mode == "compensated":
        x = _floats(np.clip(1.0 - v / vdd, 0.0, 1.0))
        c3, c2, c1, c0 = model.coefficients
        y = ((c3 * x + c2) * x + c1) * x + c0
        return np.maximum(np.minimum(y, model.output_cap), 0.0) / 100.0
    lo, hi = LINEAR_REGION
    d_lo, d_hi = RAW_EDGE_DUTIES
    return np.interp(v / vdd, (lo - 1e-12, lo, 0.5, hi, hi + 1e-12),
                     (d_lo, d_lo, 0.5, d_hi, d_hi), left=np.nan, right=np.nan)


def weighted_sum(terms, total_units):
    """The weighted sum accumulated in order from 0."""
    acc = 0
    for t in terms:
        acc += t
    return acc / total_units


def oracle_chain(cfg, depth, dc_in, vdd):
    """A behavioral chain stage by stage, each stage over the points still
    oscillating only."""
    w = cfg.max_weights()
    dc = np.array(dc_in, dtype=np.float64)
    flat = dc.reshape(-1)
    live = np.arange(flat.size)
    for _ in range(depth):
        s = weighted_sum([flat[live] * w.max_weight] * w.n, w.total_units)
        out = oracle_v_to_dc(vdd * (1.0 - s), vdd, cfg.converter)
        flat[live] = out
        live = live[~np.isnan(out)]
    return _like(dc_in, dc)


def oracle_curve(cfg, grid, depth, vdd):
    """(dc_out, deviation) of response_curve: the running sum of |out - in|
    over the oscillating points, in grid order."""
    dc_in = np.array(grid, dtype=np.float64)
    dc_out = oracle_chain(cfg, depth, dc_in, vdd)
    steps = np.abs(dc_out - dc_in)[~np.isnan(dc_out)]
    return dc_out, float(np.cumsum(steps)[-1]) if steps.size else 0.0


def same(a, b):
    """Equal in type, dtype, shape and every bit, NaN's included."""
    return type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype \
        and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def models(draw):
    """The three named converters, or a compensated one with a drawn cubic
    and cap."""
    kind = draw(st.sampled_from(["compensated", "raw", "identity", "drawn"]))
    if kind != "drawn":
        return getattr(ConverterModel, kind)()
    coefficients = tuple(draw(st.floats(-200.0, 200.0)) for _ in range(4))
    return ConverterModel(coefficients=coefficients, output_cap=draw(st.floats(0.0, 100.0)))


vdds = st.one_of(st.sampled_from([0.5, 1.1, 2.5, 3.3]), st.floats(0.01, 10.0))
# the ends of the stage: 0 and vdd; the raw map's calibration points at 0.28,
# 0.5 and 0.92 vdd, with their neighbouring floats; and anywhere a little past
# the ends
FRACTIONS = [0.0, -0.0, 1.0, 0.28, 0.5, 0.92, 0.28 - 1e-12, 0.92 + 1e-12]
fractions = st.one_of(
    st.sampled_from(FRACTIONS),
    st.sampled_from(FRACTIONS).map(lambda x: float(np.nextafter(x, 2.0))),
    st.sampled_from(FRACTIONS).map(lambda x: float(np.nextafter(x, -2.0))),
    st.floats(-0.1, 1.2))


@st.composite
def voltages(draw):
    """(v, vdd): v in one of its forms (float, 0-d, 1-D, 2-D; float64 or
    float32), vdd a float or, for an array v, sometimes an array of v's
    shape. The drawn fractions of vdd are multiplied out, so -0.0 stays."""
    form = draw(st.sampled_from(["float", "0-d", "1-D", "2-D"]))
    shape = {"float": (), "0-d": (), "1-D": (draw(st.integers(1, 30)),),
             "2-D": (draw(st.integers(1, 4)), draw(st.integers(1, 8)))}[form]
    size = int(np.prod(shape))
    if form != "float" and draw(st.booleans()):
        vdd = np.array([draw(vdds) for _ in range(size)]).reshape(shape)
    else:
        vdd = draw(vdds)
    v = np.array([draw(fractions) for _ in range(size)]).reshape(shape) * vdd
    if form == "float":
        return float(v), vdd
    return v.astype(draw(st.sampled_from([np.float64, np.float32]))), vdd


@settings(max_examples=300, deadline=None)
@given(models(), voltages())
def test_v_to_dc_is_the_elementwise_expression(model, case):
    v, vdd = case
    v_before, vdd_before = np.copy(v), np.copy(vdd)
    assert same(v_to_dc(v, vdd, model), _like(v, oracle_v_to_dc(v, vdd, model)))
    # the inputs are not written
    assert same(np.asarray(v), v_before) and same(np.asarray(vdd), vdd_before)


EDGES = [0.0, -0.0, 1.0, 0.08, 0.0799999999, 0.0800000001, 0.72, 0.7199999999,
         0.7200000001, 0.5, 0.28, 0.92]


@st.composite
def chain_inputs(draw):
    """A chain input: a float, or a 0-d, 1-D or 2-D array of duties."""
    duty = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGES))
    form = draw(st.sampled_from(["float", "0-d", "1-D", "2-D"]))
    if form in ("float", "0-d"):
        x = draw(duty)
        return x if form == "float" else np.array(x)
    shape = (draw(st.integers(1, 40)),) if form == "1-D" else \
        (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(duty, min_size=size, max_size=size))).reshape(shape)


# (n, k): up to 5 equal terms the running sum equals n times the term; from 6
# it differs in the last bit for about half of all terms
@settings(max_examples=300, deadline=None)
@given(models(), st.sampled_from([(3, 3), (1, 1), (2, 2), (5, 4), (7, 3)]), chain_inputs(),
       st.integers(1, 8), vdds)
def test_chain_is_the_elementwise_stages(model, nk, dc_in, depth, vdd):
    cfg = PerceptronConfig.behavioral(*nk, converter=model)
    before = np.copy(dc_in)
    assert same(chain_eval(cfg, depth, dc_in, vdd), oracle_chain(cfg, depth, dc_in, vdd))
    curve = response_curve(cfg, dc_in, depth, vdd)
    dc_out, deviation = oracle_curve(cfg, dc_in, depth, vdd)
    assert same(curve.dc_out, dc_out) and same(curve.deviation, deviation)
    assert same(np.asarray(dc_in), before)


@pytest.mark.parametrize("vdd", [2.5, 1.1])
@pytest.mark.parametrize("nk", [(3, 3), (5, 4)])
def test_raw_chain_stalls_bit_for_bit(nk, vdd):
    # on 2,001 points the raw chain stalls some points at each of depths 1-8
    # and keeps others oscillating: the NaN of each stall, and every other
    # point, as stage-by-stage evaluation of the oscillating points gives
    cfg = PerceptronConfig.behavioral(*nk, converter=ConverterModel.raw())
    grid = np.linspace(0.0, 1.0, 2001)
    stalled = 0
    for depth in range(1, 9):
        got = chain_eval(cfg, depth, grid, vdd)
        assert same(got, oracle_chain(cfg, depth, grid, vdd))
        now = int(np.isnan(got).sum())
        assert stalled < now < grid.size
        stalled = now
        curve = response_curve(cfg, list(grid), depth, vdd)
        dc_out, deviation = oracle_curve(cfg, grid, depth, vdd)
        assert same(curve.dc_out, dc_out) and same(curve.deviation, deviation)
    # every NaN is numpy's own quiet NaN, sign bit clear
    assert (got[np.isnan(got)].view(np.uint64) == np.array(np.nan).view(np.uint64)).all()
