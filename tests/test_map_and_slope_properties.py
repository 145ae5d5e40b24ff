"""Property tests of the fused stage map and slope: one evaluation of the
cubic gives, bit for bit, what the separate map and derivative give, for
every finite input."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.converter import (ConverterModel, stage_map,  # noqa: E402
                               stage_map_and_slope, stage_map_deriv)
from pwmperc.nn import (ActivationKind, activation,  # noqa: E402
                        activation_and_slope, activation_deriv)

MODELS = {
    "compensated": ConverterModel.compensated(),
    "identity": ConverterModel.identity(),
    "tangent": ConverterModel(coefficients=(0.0, 100.0, 0.0, 25.0)),
}

finite = st.floats(allow_nan=False, allow_infinity=False)
# a wide sample, plus the region where the map and its slope change shape
near = st.floats(-2.0, 3.0)
values = st.lists(st.one_of(finite, near), min_size=1, max_size=40)


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == \
        np.asarray(b, dtype=np.float64).tobytes()


def seed_stage_map(x, model):
    """stage_map as the package wrote it before the fused function."""
    c3, c2, c1, c0 = model.coefficients
    y = np.minimum(((c3 * x + c2) * x + c1) * x + c0, model.output_cap)
    return np.maximum(y, 0.0) / 100.0


def seed_stage_map_deriv(x, model):
    """stage_map_deriv as the package wrote it before it took the fused
    function's slope."""
    c3, c2, c1, _ = model.coefficients
    raw = ((3.0 * c3 * x + 2.0 * c2) * x + c1) / 100.0
    uncapped = model.cubic_percent(x)
    return np.where((uncapped < model.output_cap) & (uncapped > 0.0), raw, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MODELS)), values)
def test_stage_map_and_slope_equals_the_separate_functions(name, xs):
    model = MODELS[name]
    x = np.array(xs)
    with np.errstate(over="ignore"):  # the cubic of a huge |x| is inf in all three
        y, slope = stage_map_and_slope(x, model)
        assert same_bits(y, stage_map(x, model))
        assert same_bits(y, seed_stage_map(x, model))
        assert same_bits(slope, stage_map_deriv(x, model))
        assert same_bits(slope, seed_stage_map_deriv(x, model))
        for xi, yi, si in zip(xs, y, slope):
            assert same_bits(stage_map_and_slope(xi, model), (yi, si))
            # a 0-d array keeps its shape
            d = stage_map_deriv(np.array(xi), model)
            assert d.shape == () and same_bits(d, si)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ActivationKind)), values)
def test_activation_and_slope_equals_the_separate_functions(kind, xs):
    x = np.array(xs)
    with np.errstate(over="ignore"):
        y, slope = activation_and_slope(kind, x)
        assert same_bits(y, activation(kind, x))
        assert same_bits(slope, activation_deriv(kind, x))
    if kind is ActivationKind.PWM_PERCEPT:
        seed = np.where(x < 0.0, 0.0, seed_stage_map(np.clip(x, 0.0, 1.0),
                                                      ConverterModel.compensated()))
        assert same_bits(y, seed)
