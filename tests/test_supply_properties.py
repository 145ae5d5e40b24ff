"""Property tests of the supplies' value_at against the formulas it had
before its per-interval constants were precomputed: bit for bit, on the
knots (a piecewise-linear supply's breakpoints, a sinusoid's cuts), a float
either side of them, between them and outside them."""

import bisect
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.signals import PiecewiseLinearSupply, SinusoidSupply  # noqa: E402


def pwl_formula(pts, t):
    """PiecewiseLinearSupply.value_at as it was: the interval (t0, t1]
    holding t by bisection, and its end points."""
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    i = bisect.bisect_left([p[0] for p in pts], t)
    (t0, v0), (t1, v1) = pts[i - 1], pts[i]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def probes(draw, knots):
    """Times on the knots, a float either side, between them (drawn
    fractions of each interval) and outside them (before the first, after
    the last)."""
    knots = np.asarray(knots)
    span = max(knots[-1] - knots[0], abs(knots[0]), 1e-12)
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
    between = (knots[:-1, None] + fractions * np.diff(knots)[:, None]).ravel()
    outside = knots[0] - fractions * span, knots[-1] + fractions * span
    return np.concatenate([knots, np.nextafter(knots, -np.inf),
                           np.nextafter(knots, np.inf), between, *outside]).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 12), st.floats(-1e-3, 1e-3), st.floats(-9.0, -3.0))
def test_piecewise_linear_is_its_interval_formula(data, n, start, log_step):
    # intervals from 1e-9 to 1e-3 s long, volts spread over three decades,
    # where v0 + (v1 - v0) can round away from v1
    steps = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    knots = start + np.cumsum(10.0 ** (log_step + np.array(steps)))
    assume(np.all(np.diff(knots) > 0))         # no step below the knots' spacing
    volts = data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    supply = PiecewiseLinearSupply(tuple(zip(knots.tolist(), volts)))
    for t in probes(data.draw, knots):
        assert supply.value_at(t) == pwl_formula(supply.breakpoints, t), t


@settings(max_examples=300, deadline=None)
@given(st.data(), st.floats(0.5, 5.0), st.floats(-0.49, 0.49), st.floats(-9.0, -3.0))
def test_sinusoid_is_its_formula(data, mean, relative_amplitude, log_period):
    supply = SinusoidSupply(mean, relative_amplitude * mean, 10.0 ** log_period)
    horizon = data.draw(st.floats(0.5, 4.0)) * supply.period
    for t in probes(data.draw, supply.cuts(horizon)):
        want = supply.mean + supply.amplitude * math.sin(2.0 * math.pi * t / supply.period)
        assert supply.value_at(t) == want, t
