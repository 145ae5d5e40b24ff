"""Property tests of the transient prefix scan against the sequential walk
and window loop it replaced (references in test_transient.py), and of
trace_metrics' settle bound against runs from both ends of the start range."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc import transient  # noqa: E402
from pwmperc.analytic import WeightVector  # noqa: E402
from pwmperc.signals import PwmSignal  # noqa: E402
from pwmperc.transient import VacConfig, simulate_vac  # noqa: E402
from test_transient import (SCAN_SUPPLIES, assert_matches_sequential,  # noqa: E402
                            loop_window_integrals)


@st.composite
def transients(draw):
    """A transient run: preset, clamp, supply kind, inputs, horizon, v0."""
    base = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    v_th = draw(st.sampled_from([0.0, 0.4, 0.7, 1.2]))
    cfg = VacConfig(3, 3, base.r_unit, base.c_out, compensation_threshold=v_th)
    supply = SCAN_SUPPLIES[draw(st.sampled_from(sorted(SCAN_SUPPLIES)))]
    freq = draw(st.sampled_from([1e5, 1e6, 1e7, 1e8]))
    sigs = [PwmSignal(freq, draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.01, 0.99)),
                      draw(st.floats(0.0, 0.999)) / freq) for _ in range(3)]
    w = WeightVector(tuple(draw(st.integers(0 if v_th else 1, 7)) for _ in range(3)), 3)
    n_tau = draw(st.floats(0.5, 40.0))
    # at most about 4,000 input edges
    horizon = min(n_tau * cfg.tau, 600.0 / freq)
    v0 = draw(st.floats(0.0, supply.min_value()))
    return cfg, sigs, w, supply, horizon, v0


@settings(max_examples=150, deadline=None)
@given(transients())
def test_matches_sequential_walk(case):
    assert_matches_sequential(*case)


@settings(max_examples=60, deadline=None)
@given(transients(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_sample_equals_value_at(case, fractions):
    cfg, sigs, w, supply, horizon, v0 = case
    trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)
    ts = np.array(fractions) * horizon
    got = trace.sample(ts)
    want = [trace.value_at(float(t)) for t in ts]
    assert got.tolist() == want
    # and at every event boundary
    np.testing.assert_array_equal(
        trace.sample(trace.seg_t0[:200]),
        [trace.value_at(float(t)) for t in trace.seg_t0[:200]])


@settings(max_examples=60, deadline=None)
@given(transients(), st.floats(0.0, 0.99), st.floats(0.01, 1.0), st.integers(0, 10**6))
def test_window_integrals_match_loop(case, start, length, k):
    cfg, sigs, w, supply, horizon, v0 = case
    trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)
    w_lo = start * horizon
    t_k = float(trace.seg_t0[k % len(trace.seg_t0)])
    # a drawn window, one from a segment boundary, one ending at the horizon
    windows = [(w_lo, w_lo + length * (horizon - w_lo)),
               (t_k, t_k + length * (horizon - t_k)),
               (w_lo, horizon)]
    # the power integrand up*g*(vdd - v) can cancel to nearly 0: its
    # tolerance is relative to the largest power the bank can draw
    p_scale = supply.max_value() ** 2 * cfg.total_units / cfg.r_unit
    for a, b in windows:
        v_int, p_int, vmin, vmax = transient._window_integrals(trace, cfg, a, b)
        v_ref, p_ref, lo_ref, hi_ref = loop_window_integrals(trace, a, b)
        assert v_int == pytest.approx(v_ref, rel=1e-12, abs=1e-300)
        assert abs(p_int - p_ref) <= 1e-12 * p_scale * (b - a)
        assert vmin == pytest.approx(lo_ref, rel=0, abs=1e-12 * supply.max_value())
        assert vmax == pytest.approx(hi_ref, rel=0, abs=1e-12 * supply.max_value())


@settings(max_examples=60, deadline=None)
@given(transients())
def test_settle_bound_covers_the_start_voltage(case):
    # trace_metrics' drift bounds how far the window can still move with v0:
    # runs from 0 V and from the supply maximum stay within drift*|average|
    cfg, sigs, w, supply, horizon, _ = case
    vmax = supply.max_value()
    w_lo = 0.75 * horizon
    runs = []
    for v0 in (0.0, vmax):
        trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)
        m = transient.trace_metrics(trace, cfg, supply)
        _, _, lo, hi = transient._window_integrals(trace, cfg, w_lo, horizon)
        runs.append((m, lo, hi))
    (m, lo, hi), (m_top, lo_top, hi_top) = runs
    # drift is relative to the average, floored at 1e-30 V for a run that
    # sits at 0 V
    bound = m.drift * max(abs(m.average_v), 1e-30) + 1e-12 * vmax
    assert abs(m_top.average_v - m.average_v) <= bound
    assert abs(lo_top - lo) <= bound
    assert abs(hi_top - hi) <= bound
