"""Property tests of the array-valued stage path: a grid evaluates exactly
as its points do one by one, and depth composes stage by stage."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.converter import ConverterModel  # noqa: E402
from pwmperc.perceptron import (PerceptronConfig, chain_eval,  # noqa: E402
                                response_curve)

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
