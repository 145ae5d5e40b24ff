"""Property tests of the transient prefix scan against the sequential walk
and window loop it replaced, of the batched steady state against the
one-stimulus solve it replaced and its charge time against the period search
it replaced, of the batch's checks against the scalar checks of one stimulus
at a time that they replaced, of the timeline builder against a timeline
built by hand from each input's pulses (references in test_transient.py),
of trace_metrics' settle bound against runs from both ends of the start
range, and of the trace CSV cells against repr."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pwmperc import transient  # noqa: E402
from pwmperc.analytic import WeightVector, vac_equilibrium  # noqa: E402
from pwmperc.signals import (ConstantSupply, PiecewiseLinearSupply,  # noqa: E402
                             PwmSignal, SinusoidSupply)
from pwmperc.transient import (VacConfig, VacStimulus, simulate_vac,  # noqa: E402
                               steady_states)
from test_transient import (SCAN_SUPPLIES, W777,  # noqa: E402
                            assert_matches_sequential, assert_rows_match_reference,
                            loop_window_integrals,
                            reference_charge_time, reference_check,
                            reference_steady_state)


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


@st.composite
def segment_rows(draw):
    """A threshold and rows of segments for the prefix scan: dt/tau from 0
    to past the underflow of e^(-dt/tau), and veq from a pull-up count and a
    supply, so on both sides of the threshold."""
    cfg = VacConfig.small(compensation_threshold=draw(st.sampled_from([0.0, 0.4, 1.2])))
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    size = dict(min_size=rows * n, max_size=rows * n)
    dt = draw(st.lists(st.sampled_from([0.0, 1e-9, 800.0]) | st.floats(1e-6, 50.0),
                       **size))
    bounds = np.cumsum(np.reshape([0.0] * rows + dt, (n + 1, rows)).T, axis=1) * cfg.tau
    up = np.reshape(draw(st.lists(st.integers(0, cfg.total_units), **size)), (rows, n))
    vdd = np.reshape(draw(st.lists(st.floats(0.5, 3.5), **size)), (rows, n))
    starts = draw(st.lists(st.floats(0.0, 3.5), min_size=rows, max_size=rows))
    veq = vdd * (up / cfg.total_units)
    return cfg, (bounds[:, :-1], bounds[:, 1:], veq), np.array(starts)


@settings(max_examples=200, deadline=None)
@given(segment_rows())
def test_prefix_floor_is_b_where_nothing_clamps(case):
    # a segment states "no floor" as c = b, since max(a*v + b, b) = a*v + b
    # for v >= 0: the scan's C never lies below B, equals it bit for bit as
    # long as no segment so far pulls below the threshold, and the boundaries
    # are the segment-by-segment walk of v -> max(a*v + b, c)
    cfg, segments, starts = case
    v_th = cfg.compensation_threshold
    t0s, t1s, veq = segments
    a, b, c = transient._prefix(cfg, segments)
    assert (c >= b).all()
    free = np.logical_and.accumulate(veq >= v_th, axis=1)
    np.testing.assert_array_equal(c[free], b[free])
    d = -np.expm1((t0s - t1s) / cfg.tau)
    walk = [starts]
    for k in range(veq.shape[1]):
        step = (1.0 - d[:, k]) * walk[-1] + veq[:, k] * d[:, k]
        walk.append(np.maximum(step, np.where(veq[:, k] < v_th, v_th, step)))
    np.testing.assert_allclose(transient._boundaries((a, b, c), starts),
                               np.stack(walk, axis=1), rtol=0, atol=1e-12 * 3.5)


@settings(max_examples=60, deadline=None)
@given(transients(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_sample_equals_value_at(case, fractions):
    cfg, sigs, w, supply, horizon, v0 = case
    trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)

    def closed_form(t):
        # the piece holding t: on the threshold, or the exponential from its
        # start toward its equilibrium
        i = int(np.searchsorted(trace.seg_t0, t, side="right")) - 1
        v0, veq = float(trace.seg_v0[i]), float(trace.seg_veq[i])
        if trace.seg_clamped[i]:
            return v0
        return veq + (v0 - veq) * float(np.exp(-(t - float(trace.seg_t0[i])) / trace.cfg.tau))

    ts = np.array(fractions) * horizon
    assert trace.sample(ts).tolist() == [closed_form(t) for t in ts.tolist()]
    # and at every event boundary
    np.testing.assert_array_equal(trace.sample(trace.seg_t0[:200]),
                                  [closed_form(t) for t in trace.seg_t0[:200].tolist()])


@settings(max_examples=60, deadline=None)
@given(transients(), st.floats(0.0, 0.99), st.floats(0.01, 1.0), st.integers(0, 10**6))
# t_k + 1.0*(horizon - t_k) rounds one ulp past the horizon at t_k = 6e-8
@example(case=(VacConfig.small(), [PwmSignal(1e5, 0.5)] * 3, W777,
               SCAN_SUPPLIES["pwl"], 8.392857142857143e-07, 0.0),
         start=0.0, length=1.0, k=2)
def test_window_integrals_match_loop(case, start, length, k):
    cfg, sigs, w, supply, horizon, v0 = case
    trace = simulate_vac(cfg, sigs, w, supply, horizon, v0=v0)
    w_lo = start * horizon
    t_k = float(trace.seg_t0[k % len(trace.seg_t0)])
    # a drawn window, one from a segment boundary, one ending at the horizon;
    # _window_integrals takes windows inside the horizon, so a drawn end that
    # rounds past it is capped
    windows = [(w_lo, min(w_lo + length * (horizon - w_lo), horizon)),
               (t_k, min(t_k + length * (horizon - t_k), horizon)),
               (w_lo, horizon)]
    # the power integrand up*g*(vdd - v) can cancel to nearly 0: its
    # tolerance is relative to the largest power the bank can draw
    p_scale = supply.max_value() ** 2 * cfg.total_units / cfg.r_unit
    for a, b in windows:
        v_int, p_int, vmin, vmax = transient._window_integrals(trace, a, b)
        v_ref, p_ref, lo_ref, hi_ref = loop_window_integrals(trace, cfg, a, b)
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
        _, _, lo, hi = transient._window_integrals(trace, w_lo, horizon)
        runs.append((m, lo, hi))
    (m, lo, hi), (m_top, lo_top, hi_top) = runs
    # drift is relative to the average, floored at 1e-30 V for a run that
    # sits at 0 V
    bound = m.drift * max(abs(m.average_v), 1e-30) + 1e-12 * vmax
    assert abs(m_top.average_v - m.average_v) <= bound
    assert abs(lo_top - lo) <= bound
    assert abs(hi_top - hi) <= bound


@st.composite
def stimulus_batches(draw):
    """A VAC (preset, clamp off or at 0.4 V) and a batch of stimuli for it:
    random frequencies and phases, duties of 0 and 1 among them, zero
    weights, and one stimulus that fails its checks at a drawn place."""
    base = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    v_th = draw(st.sampled_from([0.0, 0.4]))
    cfg = VacConfig(3, 3, base.r_unit, base.c_out, compensation_threshold=v_th)

    def stimulus():
        freq = draw(st.sampled_from([1e3, 1e6, 1e8, 1e9]) | st.floats(1e3, 1e9))
        duties = tuple(draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
                       for _ in range(3))
        phases = draw(st.none() | st.tuples(*[st.floats(0.0, 0.999)] * 3))
        w = WeightVector(tuple(draw(st.integers(0, 7)) for _ in range(3)), 3)
        vdd = draw(st.floats(0.5, 3.5))
        return VacStimulus(duties, freq, w, vdd=vdd, v0=draw(st.floats(0.0, 1.0)) * vdd,
                           phases=phases and tuple(p / freq for p in phases))

    stimuli = [stimulus() for _ in range(draw(st.integers(1, 6)))]
    bad = draw(st.sampled_from([
        dict(vdd=0.0), dict(duties=(0.5, 1.5, 0.5)), dict(phases=(0.0,) * 4),
        dict(v0=9.0), dict(vdd=0.3), dict(w=WeightVector((0, 0, 0), 3))]))
    stimuli.insert(draw(st.integers(0, len(stimuli))),
                   dataclasses.replace(stimuli[0], **bad))
    return cfg, stimuli


def within_ulps(a, b, n=4):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@settings(max_examples=150, deadline=None)
@given(stimulus_batches())
def test_batch_matches_the_one_stimulus_solve(case):
    cfg, stimuli = case
    for stim, got in zip(stimuli, steady_states(cfg, stimuli)):
        try:
            want = reference_steady_state(cfg, stim)
        except Exception as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        for field in ("average_v", "swing", "charge_time", "avg_power", "drift"):
            assert within_ulps(getattr(got, field), getattr(want, field)), field


@st.composite
def charge_time_batches(draw):
    """A VAC (either preset, clamp off, at 0.4 V or at 1.2 V) and one
    stimulus for it from v0 = 0, from v0 = vdd, from a drawn v0 and from its
    own average: a period of 1e-3 to 1e3 tau (prefix products underflow to
    0 past about 745 tau), random phases and weights, and random duties,
    flat ones (all 0 or 1: the steady state sits on its average, and
    reaching it is a question of rounding) or ones within 1e-6 of flat,
    whose steady state goes past its average by a few floats. Gives the
    VAC, the stimulus and a drawn v0, for from_four_starts."""
    base = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    v_th = draw(st.sampled_from([0.0, 0.4, 1.2]))
    cfg = VacConfig(3, 3, base.r_unit, base.c_out, compensation_threshold=v_th)
    freq = 1.0 / (10.0 ** draw(st.floats(-3.0, 3.0)) * cfg.tau)
    flat = st.sampled_from([0.0, 1.0])
    near = st.builds(lambda d, e: abs(d - 10.0 ** e), flat, st.floats(-15.0, -6.0))
    duties = tuple(draw(draw(st.sampled_from([flat, near, flat | st.floats(0.0, 1.0)])))
                   for _ in range(3))
    phases = draw(st.none() | st.tuples(*[st.floats(0.0, 0.999)] * 3))
    weights = draw(st.tuples(*[st.integers(0, 7)] * 3).filter(lambda w: v_th or any(w)))
    vdd = draw(st.floats(v_th + 0.1, 3.5))
    stim = VacStimulus(duties, freq, WeightVector(weights, 3), vdd=vdd,
                       phases=phases and tuple(p / freq for p in phases))
    return cfg, stim, draw(st.floats(0.0, vdd))


def from_four_starts(cfg, stim, v0):
    """The VAC and the stimulus from 0, from vdd, from v0 and from its own
    average (a flat waveform's average at vdd may round above vdd)."""
    (m,) = steady_states(cfg, [stim])
    return cfg, [dataclasses.replace(stim, v0=x) for x in
                 (0.0, stim.vdd, v0, min(m.average_v, stim.vdd))]


@settings(max_examples=300, deadline=None)
@given(charge_time_batches())
# one input 1e-11 and 1e-9 from flat, at 0.01 and 0.001 tau: the steady state
# goes past the level by a few floats, and the starts of thousands of periods
# round to the same float
@example(case=(VacConfig.small(), VacStimulus(
    (0.0, 0.0, 10.0 ** -11.0), 2.1e9, WeightVector((0, 0, 1), 3), vdd=1.0), 0.0))
@example(case=(VacConfig.small(), VacStimulus(
    (0.0, 10.0 ** -9.0, 0.0), 2.1e10, WeightVector((0, 1, 0), 3), vdd=1.0), 0.0))
# m_hi = 0: every input is high over the second half of the period, and the
# clamp holds its end at 0.4 V, so from v0 = 0.4 V the start is the periodic one
@example(case=(VacConfig.small(compensation_threshold=0.4), VacStimulus(
    (0.5, 0.5, 0.5), 2.1e6, W777, vdd=2.5, phases=(0.5 / 2.1e6,) * 3), 0.4))
# out of reach: flat at vdd, whose average is vdd, which the voltage from 0 V
# rounds to only after period m_hi
@example(case=(VacConfig.small(), VacStimulus(
    (0.0, 0.0, 0.0), 2.1e10, WeightVector((1, 2, 3), 3), vdd=1.0), 0.0))
def test_charge_time_equals_the_period_search(case):
    # the first period that reaches the level, found by bisection, against
    # the search over batches of 64 periods on the same rows, bit for bit.
    # The search takes its logarithms as numpy does, as the program does:
    # math.log differs in the last bit for about one argument in 13,000.
    # The starts are solved here, not where the examples are declared, so
    # that a fault in steady_states fails this test, not the module's import
    cfg, stimuli = from_four_starts(*case)
    calls = []

    def spy(*args):
        calls.append(args)
        return charge_times(*args)

    charge_times = transient._charge_times
    with mock.patch.object(transient, "_charge_times", spy):
        got = steady_states(cfg, stimuli)
    ((_, segments, prefix, pss, v_aff, floor, level, v),) = calls
    for k, m in enumerate(got):
        with mock.patch("math.log", lambda x: float(np.log(x))):
            want = reference_charge_time(
                cfg, tuple(x[k] for x in segments),
                tuple(x[k] for x in prefix), pss[k],
                float(v_aff[k]), float(floor[k]) if np.isfinite(floor[k]) else None,
                float(level[k]), float(v[k]))
        assert m.charge_time == want, k


@st.composite
def unclamped_stimuli(draw):
    """A VAC of either preset with the clamp off and a stimulus for it: a
    period of 0.03 to 30 tau, random duties, phases and weights (not all
    zero, or the node floats), and vdd from 1 to 3.5 V."""
    cfg = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    freq = 1.0 / (draw(st.floats(0.03, 30.0)) * cfg.tau)
    duties = tuple(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
                   for _ in range(3))
    phases = tuple(draw(st.floats(0.0, 0.999)) / freq for _ in range(3))
    weights = draw(st.tuples(*[st.integers(0, 7)] * 3).filter(any))
    return cfg, VacStimulus(duties, freq, WeightVector(weights, 3),
                            vdd=draw(st.floats(1.0, 3.5)), phases=phases)


@settings(max_examples=300, deadline=None)
@given(unclamped_stimuli())
def test_unclamped_average_is_the_closed_form(case):
    # over one period of the steady state the capacitor ends where it
    # started, so the integral of (veq - v)/tau vanishes and the average
    # voltage is the average divider equilibrium, vac_equilibrium. Both
    # sides sum terms of the order of vdd, so they round on that scale: with
    # every input near duty 1 the average is far smaller than vdd
    cfg, stim = case
    (m,) = steady_states(cfg, [stim])
    want = vac_equilibrium(list(stim.duties), stim.w, stim.vdd)
    assert abs(m.average_v - want) <= 1e-14 * stim.vdd


@st.composite
def raised_pairs(draw):
    """A VAC with the clamp off or at 0.4 V, a stimulus for it, and the same
    stimulus with one input's duty or weight raised."""
    base = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    v_th = draw(st.sampled_from([0.0, 0.4]))
    cfg = VacConfig(3, 3, base.r_unit, base.c_out, compensation_threshold=v_th)
    freq = 1.0 / (draw(st.floats(0.03, 30.0)) * cfg.tau)
    duties = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for _ in range(3)]
    phases = tuple(draw(st.floats(0.0, 0.999)) / freq for _ in range(3))
    weights = list(draw(st.tuples(*[st.integers(0, 7)] * 3).filter(
        lambda w: v_th > 0.0 or any(w))))
    stim = VacStimulus(tuple(duties), freq, WeightVector(tuple(weights), 3),
                       vdd=draw(st.floats(1.0, 3.5)), phases=phases)
    i = draw(st.integers(0, 2))
    if draw(st.booleans()):
        duties[i] = draw(st.floats(duties[i], 1.0))
    else:
        weights[i] = draw(st.integers(weights[i], 7))
    return cfg, stim, dataclasses.replace(stim, duties=tuple(duties),
                                          w=WeightVector(tuple(weights), 3))


@settings(max_examples=300, deadline=None)
@given(raised_pairs())
def test_average_falls_as_a_duty_or_weight_rises(case):
    # a longer pulse or one more enabled cell lowers the divider equilibrium
    # at every instant or leaves it, and the RC node, clamped or not, keeps
    # the order of its drives, so the average falls or stays; rounding may
    # lift it by a few ulps of vdd
    cfg, stim, raised = case
    low, high = steady_states(cfg, [stim, raised])
    assert high.average_v <= low.average_v + 1e-14 * stim.vdd


def replaced(values, i, value):
    """`values` with entry i, if it has one, replaced by `value`."""
    return tuple(value if j == i else v for j, v in enumerate(values))


# each way to break a stimulus: a function of a draw and the stimulus giving
# the fields to replace; every check of a run has one or more
BREAKS = {
    "vdd": lambda draw, s: dict(vdd=draw(st.sampled_from([0.0, -1.0, math.nan, math.inf]))),
    "phase count": lambda draw, s: dict(phases=(0.0,) * draw(st.sampled_from([0, 2, 4]))),
    "frequency": lambda draw, s: dict(frequency=draw(st.sampled_from(
        [0.0, -1.0, math.nan, -math.inf, math.inf, 1e-310, 5e-324]))),
    "duty": lambda draw, s: dict(duties=replaced(
        s.duties, draw(st.integers(0, 2)), draw(st.sampled_from([-0.1, 1.5, math.nan])))),
    "phase": lambda draw, s: dict(phases=replaced(
        s.phases or (0.0,) * len(s.duties), draw(st.integers(0, 2)),
        draw(st.sampled_from([-1e-12, math.nan, 1e9])))),
    "input count": lambda draw, s: dict(duties=(0.5,) * draw(st.sampled_from([0, 2, 4])),
                                        phases=None),
    "weight vector": lambda draw, s: dict(w=draw(st.sampled_from(
        [WeightVector((1, 2), 3), WeightVector((1, 2, 3, 4), 3), WeightVector((9, 9, 9), 4)]))),
    "v0": lambda draw, s: dict(v0=draw(st.sampled_from([math.nan, math.inf, -0.5, 9.0]))),
    "threshold": lambda draw, s: dict(vdd=draw(st.sampled_from([0.3, 0.4, 1.2]))),
    "floating": lambda draw, s: dict(w=WeightVector((0, 0, 0), 3)),
}


@st.composite
def checked_batches(draw):
    """A VAC (either preset; clamp off, at 0.4 V or at 1.2 V) and a batch of
    1 to 8 stimuli for it, each good or broken in one to three ways of
    BREAKS at once, in a drawn order."""
    base = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    v_th = draw(st.sampled_from([0.0, 0.4, 1.2]))
    cfg = VacConfig(3, 3, base.r_unit, base.c_out, compensation_threshold=v_th)

    def stimulus():
        freq = draw(st.sampled_from([1e3, 1e8]) | st.floats(1e3, 1e9))
        vdd = draw(st.floats(1.3, 3.5))
        stim = VacStimulus(
            tuple(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for _ in range(3)),
            freq, WeightVector(draw(st.tuples(*[st.integers(0, 7)] * 3)), 3), vdd=vdd,
            v0=draw(st.floats(0.0, 1.0)) * vdd,
            phases=draw(st.none() | st.tuples(*[st.floats(0.0, 0.999)] * 3).map(
                lambda ps: tuple(p / freq for p in ps))))
        for name in draw(st.lists(st.sampled_from(sorted(BREAKS)), max_size=3)):
            stim = dataclasses.replace(stim, **BREAKS[name](draw, stim))
        return stim

    return cfg, [stimulus() for _ in range(draw(st.integers(1, 8)))]


FIELDS = ("average_v", "swing", "charge_time", "avg_power", "drift")


def oracle_error(cfg, stimulus):
    """The error of the scalar checks of one stimulus, None if it passes."""
    try:
        reference_check(cfg, stimulus)
    except Exception as exc:
        return exc
    return None


def assert_errors_in_place(cfg, stimuli, got, want, fields=FIELDS):
    """Each row of `got` holds the oracle's error, type and message, or, for
    a row that passes, the `fields` of the result of a batch of the passing
    rows alone, bit for bit."""
    good = [stim for stim, error in zip(stimuli, want) if error is None]
    alone = iter(steady_states(cfg, good))
    for k, (result, error) in enumerate(zip(got, want)):
        if error is not None:
            assert type(result) is type(error) and str(result) == str(error), k
        else:
            m = next(alone)
            assert [repr(getattr(result, f)) for f in fields] == \
                [repr(getattr(m, f)) for f in fields], k


@settings(max_examples=300, deadline=None)
@given(checked_batches())
def test_batch_checks_are_the_scalar_checks(case):
    # every row of a batch that mixes good stimuli with ones broken in
    # several ways gets the error of the first scalar check it fails, or the
    # result it gets without the failing rows; without v0 no v0 is checked
    # and no charge time is solved
    cfg, stimuli = case
    want = [oracle_error(cfg, stim) for stim in stimuli]
    assert_errors_in_place(cfg, stimuli, steady_states(cfg, stimuli), want)
    got = steady_states(cfg, dataclasses.replace(transient.StimulusBatch.of(stimuli), v0=None))
    from_0 = [dataclasses.replace(stim, v0=0.0) for stim in stimuli]
    assert_errors_in_place(cfg, from_0, got, [oracle_error(cfg, stim) for stim in from_0],
                           [f for f in FIELDS if f != "charge_time"])
    assert all(m.charge_time is None for m in got if isinstance(m, transient.TraceMetrics))


@st.composite
def timeline_rows(draw):
    """A VAC preset and rows for the timeline builder: a batch of rows under
    constant supplies, or one row under a constant, sinusoid or
    piecewise-linear supply; the sinusoid cuts at drawn times or every one,
    two or five periods of the first input, an ulp or so beside its rises.
    Inputs take duties of 0 and 1, phases of 0 and one ulp below the
    period, and edges equal to another input's (the same phase, or a rise on
    the fall of an input of phase 0); a row's inputs share one period, or
    (one row) take three. Windows run from a part of one pulse to about
    3,000 periods."""
    cfg = draw(st.sampled_from([VacConfig.small(), VacConfig.large()]))
    kind = draw(st.sampled_from(["batch", "constant", "sinusoid", "pwl"]))
    freq = draw(st.sampled_from([1e5, 1e8]) | st.floats(1e3, 1e9))

    def row():
        inputs = []
        for _ in range(3):
            ratio = st.just(1.0) if kind == "batch" else st.sampled_from([1.0, 1.0, 0.7, 3.0])
            f = freq * draw(ratio)
            p = 1.0 / f
            duty = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
            like = [s for s in inputs if s.frequency == f]
            phase = draw(st.sampled_from(["zero", "last", "drawn"]
                                         + ["same", "abut"] * bool(like)))
            if phase in ("same", "abut"):
                other = draw(st.sampled_from(like))
                # a rise on the other's falls: d*p + m*p, as phase 0 gives them
                phase = other.phase if phase == "same" else (
                    other.duty * p if other.phase == 0.0 and other.duty * p < p else 0.0)
            else:
                phase = min({"zero": 0.0, "last": p,
                             "drawn": draw(st.floats(0.0, 1.0)) * p}[phase],
                            float(np.nextafter(p, 0.0)))
            inputs.append(PwmSignal(f, duty, phase))
        window = inputs[0].period * 10 ** draw(st.floats(-3.0, 3.5))
        w = WeightVector(tuple(draw(st.integers(0, 7)) for _ in range(3)), 3)
        return inputs, w, window

    rows = [row() for _ in range(draw(st.integers(1, 4)) if kind == "batch" else 1)]
    (first, *_), _, window = rows[0]
    # about 200 to 3,200 cuts in the window
    cycle = draw(st.floats(1.0, 10.0).map(lambda c: window / c)
                 | st.sampled_from([200, 400, 1000]).map(lambda n: n * first.period))
    supply = {"batch": None, "constant": ConstantSupply(2.5),
              "sinusoid": SinusoidSupply(2.5, 0.7, cycle),
              "pwl": PiecewiseLinearSupply(tuple(
                  (t * window, v) for t, v in enumerate(draw(st.lists(
                      st.floats(1.0, 3.5), min_size=2, max_size=5))))),
              }[kind]
    return cfg, rows, supply


@settings(max_examples=200, deadline=None)
@given(timeline_rows())
def test_timeline_matches_the_reference(case):
    # bounds bit for bit, and every segment's pull-up count the edge order's:
    # an input pulls down where rise <= t0 < fall
    cfg, rows, supply = case
    windows = [window for _, _, window in rows]
    period, duty, phase = (np.array([[getattr(s, name) for s in inputs]
                                     for inputs, _, _ in rows])
                           for name in ("period", "duty", "phase"))
    weights = np.array([w.weights for _, w, _ in rows], dtype=np.float64 if supply is None
                       else np.int64)
    vdd = np.full(len(rows), 2.5) if supply is None else supply
    got, n_seg = transient._timeline(cfg, windows, period, duty, phase, weights, vdd)
    assert_rows_match_reference(cfg, [(inputs, w, supply or ConstantSupply(2.5))
                                      for inputs, w, _ in rows], windows, got, n_seg)


# bit patterns at the edges of float formatting: signed zeros, the least
# subnormal and normal, the widest exponents, infinities and NaNs with other
# signs and payloads
REPR_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       2.225073858507201e-308, 1.7976931348623157e308,
                       -1.7976931348623157e308, math.inf, -math.inf, 1.0, 0.1,
                       1e16, 1e-5]).view(np.int64).tolist() + [
    0x7FF8000000000000, 0xFFF8000000000000 - 2**64, 0x7FF0000000000001, 0x7FF8000000000123]


@st.composite
def float_columns(draw):
    """A float64 array drawn with replacement from REPR_EDGES and a few
    drawn floats, so that bit patterns repeat."""
    pool = REPR_EDGES + np.array(draw(st.lists(st.floats(), max_size=4))).view(
        np.int64).tolist()
    bits = draw(st.lists(st.sampled_from(pool), max_size=40))
    return np.array(bits, np.int64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(float_columns())
@example(np.empty(0))
@example(np.array([-0.0]))
def test_reprs_are_each_floats_repr(x):
    assert transient._reprs(x).tolist() == list(map(repr, x.tolist()))
