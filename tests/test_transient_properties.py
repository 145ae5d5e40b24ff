"""Property tests of the transient prefix scan against the sequential walk
and window loop it replaced (references in test_transient.py)."""

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
@given(transients())
def test_window_integrals_match_loop(case):
    cfg, sigs, w, supply, horizon, v0 = case
    trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)
    edges = horizon - horizon / 4 / 16 * np.arange(16, -1, -1.0)
    v_int, p_int, vmin, vmax = transient._window_integrals(trace, cfg, edges)
    # the power integrand up*g*(vdd - v) can cancel to nearly 0: its
    # tolerance is relative to the largest power the bank can draw
    p_scale = supply.max_value() ** 2 * cfg.total_units / cfg.r_unit
    for j in range(16):
        v_ref, p_ref, _, _ = loop_window_integrals(trace, edges[j], edges[j + 1])
        assert v_int[j] == pytest.approx(v_ref, rel=1e-12, abs=1e-300)
        assert abs(p_int[j] - p_ref) <= 1e-12 * p_scale * (edges[j + 1] - edges[j])
    _, _, lo_ref, hi_ref = loop_window_integrals(trace, edges[0], edges[-1])
    assert vmin == pytest.approx(lo_ref, rel=0, abs=1e-12 * supply.max_value())
    assert vmax == pytest.approx(hi_ref, rel=0, abs=1e-12 * supply.max_value())
