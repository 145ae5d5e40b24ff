"""Property tests of the array-valued stage path: a grid evaluates exactly
as its points do one by one, depth composes stage by stage, and a chain,
which checks its inputs once, gives what its checked stages give, errors
included, a bad duty named as the chain's own input."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.converter import ConverterModel, _like  # noqa: E402
from pwmperc.perceptron import (PerceptronConfig, chain_eval,  # noqa: E402
                                perceptron_eval, response_curve)
from pwmperc.transient import VacConfig  # noqa: E402

CONFIGS = {
    "compensated": PerceptronConfig.behavioral(),
    "raw": PerceptronConfig.behavioral(converter=ConverterModel.raw()),
    "identity": PerceptronConfig.behavioral(converter=ConverterModel.identity()),
    "raw-n5-k4": PerceptronConfig.behavioral(n=5, k=4, converter=ConverterModel.raw()),
}

duty = st.floats(0.0, 1.0, allow_nan=False)
grids = st.lists(duty, min_size=1, max_size=40)
configs = st.sampled_from(sorted(CONFIGS))
depths = st.integers(1, 8)
vdds = st.sampled_from([1.1, 2.5])


@settings(max_examples=60, deadline=None)
@given(configs, grids, depths, vdds)
def test_grid_equals_its_points(name, grid, depth, vdd):
    cfg = CONFIGS[name]
    curve = response_curve(cfg, grid, depth, vdd)
    singles = [response_curve(cfg, [x], depth, vdd) for x in grid]
    np.testing.assert_array_equal(curve.dc_out,
                                  [s.dc_out[0] for s in singles])
    np.testing.assert_array_equal(curve.dc_out,
                                  [chain_eval(cfg, depth, x, vdd) for x in grid])
    # the deviation is a running sum in grid order
    total = 0.0
    for s in singles:
        total += s.deviation
    assert curve.deviation == total


@settings(max_examples=60, deadline=None)
@given(configs, grids, depths, vdds)
def test_depth_is_depth_one_repeated_on_oscillating_points(name, grid, depth, vdd):
    cfg = CONFIGS[name]
    want = np.array(grid)
    for _ in range(depth):
        live = ~np.isnan(want)
        want[live] = response_curve(cfg, want[live], 1, vdd).dc_out
    np.testing.assert_array_equal(response_curve(cfg, grid, depth, vdd).dc_out, want)


def chain_by_stages(cfg, depth, dc_in, vdd):
    """The definition of a chain: the public perceptron_eval, stage by
    stage, over the points still oscillating, each stage checking its inputs."""
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


def curve_by_stages(cfg, grid, depth, vdd):
    """(dc_out, deviation) of response_curve, from chain_by_stages."""
    dc_in = np.array(grid, dtype=np.float64)
    dc_out = chain_by_stages(cfg, depth, dc_in, vdd)
    steps = np.abs(dc_out - dc_in)[~np.isnan(dc_out)]
    return dc_out, float(np.cumsum(steps)[-1]) if steps.size else 0.0


def chain_error(dc_in):
    """What a chain raises for its first bad input: the stages name their own
    first input and a flat index, the chain names its input and the point's
    index in the caller's array."""
    dc = np.asarray(dc_in)
    at = int(np.flatnonzero(~((dc >= 0.0) & (dc <= 1.0)))[0])
    index = tuple(int(j) for j in np.unravel_index(at, dc.shape))
    where = "" if dc.ndim == 0 else f" at index {index[0] if dc.ndim == 1 else index}"
    return ValueError, f"chain input dc_in must be in [0, 1], got {dc.flat[at]}{where}"


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same(a, b):
    """Equal in type, shape and every bit."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return type(a) is type(b) and np.shape(a) == np.shape(b) \
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()


# 0, -0.0 and 1, and both edges of the raw stage's stall regions (below a
# duty of about 0.08 and above about 0.72 it stops oscillating)
EDGES = [0.0, -0.0, 1.0, 0.08, 0.0799999999, 0.0800000001, 0.72, 0.7199999999,
         0.7200000001]
chain_duty = st.one_of(duty, st.sampled_from(EDGES))


@st.composite
def inputs(draw):
    """A chain input in one of its forms: float, 0-d, 1-D or 2-D."""
    form = draw(st.sampled_from(["float", "0-d", "1-D", "2-D"]))
    if form in ("float", "0-d"):
        x = draw(chain_duty)
        return x if form == "float" else np.array(x)
    shape = (draw(st.integers(1, 30)),) if form == "1-D" else \
        (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    return np.array(draw(st.lists(chain_duty, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


chain_vdds = st.one_of(st.sampled_from([0.5, 1.1, 2.5, 3.3]), st.floats(0.01, 10.0))


@settings(max_examples=150, deadline=None)
@given(configs, inputs(), depths, chain_vdds)
def test_chain_is_its_stages_bit_for_bit(name, dc_in, depth, vdd):
    cfg = CONFIGS[name]
    assert same(chain_eval(cfg, depth, dc_in, vdd), chain_by_stages(cfg, depth, dc_in, vdd))
    curve = response_curve(cfg, dc_in, depth, vdd)
    dc_out, deviation = curve_by_stages(cfg, dc_in, depth, vdd)
    assert same(curve.dc_out, dc_out)
    assert same(curve.deviation, deviation)


@settings(max_examples=150, deadline=None)
@given(configs, inputs(), st.sampled_from([float("nan"), -0.1, 1.5, None]),
       st.data(), st.integers(-1, 3), st.sampled_from([2.5, 1.1, 0.0, -0.0, -2.5]))
def test_chain_rejects_what_its_stages_reject(name, dc_in, bad, data, depth, vdd):
    cfg = CONFIGS[name]
    if bad is not None:     # one bad duty at a drawn index
        dc_in = np.array(dc_in, dtype=np.float64)
        at = data.draw(st.integers(0, dc_in.size - 1))
        dc_in.reshape(-1)[at] = bad
    want = outcome(chain_by_stages, cfg, depth, dc_in, vdd)
    if isinstance(want, tuple) and want[1].startswith("duty of input"):
        want = chain_error(dc_in)
    assert same(outcome(chain_eval, cfg, depth, dc_in, vdd), want)
    got = outcome(response_curve, cfg, dc_in, depth, vdd)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same(got.dc_out, curve_by_stages(cfg, dc_in, depth, vdd)[0])


@pytest.mark.parametrize("converter", ["compensated", "raw"])
def test_transient_chain_is_its_stages(converter):
    # the transient path keeps its stages' checks, through perceptron_eval
    cfg = PerceptronConfig(vac=VacConfig.small(), path="transient",
                           converter=getattr(ConverterModel, converter)())
    grid = np.array([[0.0, 0.05, 0.5], [0.75, 0.9, 1.0]])
    for depth in (1, 3):
        assert same(chain_eval(cfg, depth, grid), chain_by_stages(cfg, depth, grid, 2.5))
    for depth, dc_in, vdd in [(1, np.array([0.2, np.nan]), 2.5), (1, 1.5, 2.5),
                              (1, 0.5, 0.0), (0, 0.5, 2.5)]:
        want = outcome(chain_by_stages, cfg, depth, dc_in, vdd)
        assert isinstance(want, tuple)
        if want[1].startswith("duty"):
            want = chain_error(dc_in)
        assert outcome(chain_eval, cfg, depth, dc_in, vdd) == want
