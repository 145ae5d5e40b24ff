"""Property tests of the raw converter against the exact rational map: the
piecewise-linear map through its calibration points, in fractions.Fraction,
flat within 1e-12 of the linear region and a stall beyond."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.converter import (LINEAR_REGION, RAW_EDGE_DUTIES,  # noqa: E402
                               ConverterModel, v_to_dc)

RAW = ConverterModel.raw()
LO, HI = LINEAR_REGION
D_LO, D_HI = RAW_EDGE_DUTIES
BAND = (LO - 1e-12, HI + 1e-12)
# each segment as (start point, its duty, the slope in floats as np.interp
# computes it, the exact slope)
SEGMENTS = [(x0, y0, (y1 - y0) / (x1 - x0),
             (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0)))
            for (x0, y0), (x1, y1) in [((LO, D_LO), (0.5, 0.5)), ((0.5, 0.5), (HI, D_HI))]]


def exact_duty(x: float) -> Fraction:
    """The exact map at a fraction x in the band; the clip to the linear
    region is the flat pieces."""
    x = min(max(Fraction(x), Fraction(LO)), Fraction(HI))
    x0, y0, _, slope = SEGMENTS[0] if x <= Fraction(0.5) else SEGMENTS[1]
    return Fraction(y0) + slope * (x - Fraction(x0))


def error_bound(x: float, duty: float) -> Fraction:
    """How far np.interp's s*(x - x0) + y0 may lie from the exact map at x.

    x - x0 is exact: x lies within a factor 2 of x0 (Sterbenz). Then three
    roundings: the slope s, a fixed float whose error against the exact
    slope is known; the product p = s*(x - x0), at most half an ulp of p
    off; and the sum p + y0, half an ulp of the duty. It peaks near duty
    0.1, at about 4.04 ulp of the duty.
    """
    if not LO < x < HI:                  # the flat pieces are exact
        return Fraction(0)
    x0, _, s, slope = SEGMENTS[0] if x <= 0.5 else SEGMENTS[1]
    t = Fraction(x) - Fraction(x0)
    p = s * float(t)
    return abs(Fraction(s) - slope) * abs(t) + Fraction(abs(float(np.spacing(p)))) / 2 \
        + Fraction(float(np.spacing(duty))) / 2


# the band's edges, the region's ends and the midpoint, each with its
# neighbouring floats, or anywhere in [0, 1]
EDGES = [*BAND, LO, 0.5, HI]
fractions = st.one_of(
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda x: float(np.nextafter(x, 2.0))),
    st.sampled_from(EDGES).map(lambda x: float(np.nextafter(x, -2.0))),
    st.floats(BAND[0], BAND[1]),
    st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=12))
def test_raw_map_is_the_exact_map_within_its_rounding(xs):
    duties = v_to_dc(np.array(xs), 1.0, RAW)
    # fewer points than knots take np.interp's other path: the slope is
    # computed per point, by the same expression
    assert duties.tobytes() == np.array([v_to_dc(x, 1.0, RAW) for x in xs]).tobytes()
    for x, duty in zip(xs, duties):
        # a stall exactly outside the band, as numpy's own NaN
        if not BAND[0] <= x <= BAND[1]:
            assert np.array(duty).view(np.uint64) == np.array(np.nan).view(np.uint64)
            continue
        assert abs(Fraction(float(duty)) - exact_duty(x)) <= error_bound(x, duty)
    # monotone non-increasing over the oscillating points
    live = sorted((x, d) for x, d in zip(xs, duties) if not np.isnan(d))
    assert all(b[1] <= a[1] for a, b in zip(live, live[1:]))


def test_calibration_points_are_exact():
    assert v_to_dc(np.array([*BAND, LO, 0.5, HI]), 1.0, RAW).tolist() == \
        [D_LO, D_HI, D_LO, 0.5, D_HI]
