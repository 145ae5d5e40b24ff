"""Property tests of the edge rule, signals.pwm_edges, against the rule it
replaced, which kept one spare period at each end of the window: once both
keep only the pulses that reach the window (fall >= t0 and rise < t1), the
two agree bit for bit, on windows far from 0 and windows that start or end
on an edge, with duties at and within 1e-12 of 0 and 1, and phases 0 and an
ulp below the period."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc.signals import pwm_edges  # noqa: E402


def spare_period_edges(period, duty, phase, t0, t1):
    """pwm_edges as it was: the pulses of the periods from one before t0's
    to t1's, whether they reach the window or not."""
    period, duty, phase, t0, t1 = (np.asarray(x, dtype=np.float64)
                                   for x in (period, duty, phase, t0, t1))
    pulsing = (duty != 0.0) & (duty != 1.0)
    m_lo = np.floor((t0 - phase) / period) - 1
    m_hi = np.ceil((t1 - phase) / period)
    m = m_lo[..., None] + np.arange(int(np.max(m_hi - m_lo, where=pulsing, initial=-1)) + 1)
    rises = phase[..., None] + m * period[..., None]
    edges = np.stack((rises, rises + (duty * period)[..., None]), axis=-1)
    return np.where(pulsing[..., None, None], edges, t1[..., None, None])


def live(edges, t0, t1):
    """Whether each pulse of pwm_edges' output reaches the window."""
    return (edges[..., 1] >= t0[..., None]) & (edges[..., 0] < t1[..., None])


duties = (st.sampled_from([0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12])
          | st.floats(0.0, 1e-12) | st.floats(1.0 - 1e-12, 1.0) | st.floats(0.0, 1.0))


@st.composite
def windows(draw):
    """Rows of inputs of one period each, with a window per row: t0 up to
    10^4 periods from 0, or on an input's rise or fall, and t1 up to 50
    periods later, or on an edge."""
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    period = np.array([1.0 / draw(st.sampled_from([1e3, 3.7e5, 1e6, 1e8, 3e9])
                                  | st.floats(1e3, 1e9)) for _ in range(rows)])[:, None]
    duty = np.array([[draw(duties) for _ in range(n)] for _ in range(rows)])
    below = np.nextafter(period, 0.0)
    phase = np.array([[draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
                       for _ in range(n)] for _ in range(rows)])
    phase = np.minimum(np.where(phase == 1.0, below, phase * period), below)

    def edge(row, t):
        """A rise or a fall of one of the row's inputs near t, by the rule's
        own sums."""
        j = draw(st.integers(0, n - 1))
        p, ph = period[row, 0], phase[row, j]
        rise = ph + np.floor((t - ph) / p + draw(st.integers(-1, 1))) * p
        return max(float(rise + draw(st.sampled_from([0.0, 1.0])) * (duty[row, j] * p)), 0.0)

    t0, t1 = np.empty((rows, 1)), np.empty((rows, 1))
    for i in range(rows):
        t0[i] = draw(st.sampled_from([0.0]) | st.floats(0.0, 1e4)) * period[i, 0]
        if draw(st.booleans()):
            t0[i] = edge(i, t0[i, 0])
        t1[i] = t0[i] + draw(st.floats(0.0, 50.0)) * period[i, 0]
        if draw(st.booleans()):
            t1[i] = edge(i, t1[i, 0])
    return period, duty, phase, t0, t1


@settings(max_examples=400, deadline=None)
@given(windows())
# a one-period window from 0 with a pulse that wraps past its end
@example((np.array([[1e-8]]), np.array([[0.5]]), np.array([[7e-9]]),
          np.zeros((1, 1)), np.array([[1e-8]])))
def test_edges_are_the_spare_period_rule_without_its_dead_pulses(case):
    period, duty, phase, t0, t1 = case
    got = pwm_edges(period, duty, phase, t0, t1)
    old = spare_period_edges(period, duty, phase, t0, t1)
    pulsing = (duty != 0.0) & (duty != 1.0)
    live_got, live_old = live(got, t0, t1), live(old, t0, t1)
    for i, j in zip(*np.nonzero(pulsing)):
        assert got[i, j][live_got[i, j]].tobytes() == old[i, j][live_old[i, j]].tobytes()
        # the live pulses run on from the first, with at most one dead
        # pulse before them where a division rounds outward
        first = int(np.argmax(live_got[i, j])) if live_got[i, j].any() else 0
        assert first <= 1
        assert not live_got[i, j, first + int(live_got[i, j].sum()):].any()
    # an input without pulses has t1 for each edge
    for i, j in zip(*np.nonzero(~pulsing)):
        assert np.all(got[i, j] == t1[i, 0])
    # no spare period: M is the most live pulses of an input, plus at most
    # one dead pulse at each end
    most = int(np.max(live_got.sum(axis=-1), where=pulsing, initial=0))
    assert got.shape[:-2] == duty.shape and got.shape[-1] == 2
    assert got.shape[-2] <= most + 2
