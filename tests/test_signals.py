import math

import numpy as np
import pytest

from pwmperc.signals import (ConstantSupply, PiecewiseLinearSupply, PwmSignal,
                             SinusoidSupply, pwm_edges)


class TestPwmSignalState:
    def test_first_half_period_high(self):
        sig = PwmSignal(1e6, 0.5)
        assert bool(sig.high(0.25e-6)) is True

    def test_second_half_period_low(self):
        sig = PwmSignal(1e6, 0.5)
        assert bool(sig.high(0.75e-6)) is False

    def test_100mhz_duty_30_at_17p5ns(self):
        # 17.5 ns mod 10 ns = 7.5 ns >= 3 ns -> low
        sig = PwmSignal(100e6, 0.3)
        assert bool(sig.high(17.5e-9)) is False

    def test_duty_zero_and_one_are_constant(self):
        lo = PwmSignal(1e6, 0.0)
        hi = PwmSignal(1e6, 1.0)
        for t in [0.0, 1e-7, 3.7e-6, 1.0]:
            assert bool(lo.high(t)) is False
            assert bool(hi.high(t)) is True
        assert len(lo.edges_in(0, 1e-3)) == 0
        assert len(hi.edges_in(0, 1e-3)) == 0

    def test_phase_shifts_pattern(self):
        sig = PwmSignal(1e6, 0.5, phase=0.25e-6)
        assert bool(sig.high(0.3e-6)) is True
        assert bool(sig.high(0.1e-6)) is False  # before the rising edge

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PwmSignal(1e6, 0.5).high(-1e-9)
        with pytest.raises(ValueError):
            PwmSignal(1e6, 0.0).high(np.array([0.0, 1e-6, -1e-9]))

    @pytest.mark.parametrize("sig", [PwmSignal(1e6, 0.5), PwmSignal(3.7e7, 0.123, 5e-9),
                                     PwmSignal(2.5e6, 0.4, phase=1e-7),
                                     PwmSignal(1e6, 0.0), PwmSignal(1e6, 1.0)])
    def test_array_call_is_the_elementwise_rule(self, sig):
        def rule(t):
            # fmod of t - phase, shifted into [0, period): negative before
            # the first rising edge
            if sig.duty in (0.0, 1.0):
                return sig.duty == 1.0
            local = math.fmod(t - sig.phase, sig.period)
            if local < 0.0:
                local += sig.period
            return local < sig.duty * sig.period

        rng = np.random.default_rng(11)
        frac = rng.uniform(0.0, 1.0, 300)
        ts = np.concatenate([frac * sig.period * 3, (1_000_000 + frac) * sig.period,
                             [0.0, sig.phase, np.nextafter(sig.phase, 0.0)]])
        got = sig.high(ts.reshape(3, -1))
        assert got.shape == (3, ts.size // 3) and got.dtype == bool
        assert got.ravel().tolist() == [rule(t) for t in ts.tolist()]

    def test_validation(self):
        with pytest.raises(ValueError):
            PwmSignal(0.0, 0.5)
        with pytest.raises(ValueError):
            PwmSignal(1e6, 1.2)
        with pytest.raises(ValueError):
            PwmSignal(1e6, 0.5, phase=2e-6)  # >= period


class TestPwmSignalIntegral:
    @pytest.mark.parametrize("freq,duty,phase,periods", [
        (1e6, 0.5, 0.0, 1000),
        (100e6, 0.3, 0.0, 1000),
        (3.7e7, 0.123, 5e-9, 500),
        (1e3, 0.9, 0.0, 200),
    ])
    def test_high_time_equals_duty_over_whole_periods(self, freq, duty, phase, periods):
        # integrate the high state exactly using the edge list as breakpoints
        sig = PwmSignal(freq, duty, phase)
        t_end = periods * sig.period
        cuts = np.concatenate([[0.0], sig.edges_in(0.0, t_end), [t_end]])
        high = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b > a and bool(sig.high(0.5 * (a + b))):
                high += b - a
        expect = duty * periods * sig.period
        assert high == pytest.approx(expect, rel=1e-12)

    def test_no_drift_after_a_million_periods(self):
        sig = PwmSignal(1e6, 0.5)
        period = sig.period
        for delta in [0.01, 0.26, 0.49, 0.51, 0.74, 0.99]:
            near = bool(sig.high(delta * period))
            far = bool(sig.high(1_000_000 * period + delta * period))
            assert near == far

    def test_edges_match_state_transitions(self):
        sig = PwmSignal(2.5e6, 0.4, phase=1e-7)
        edges = sig.edges_in(0.0, 10 * sig.period)
        eps = sig.period * 1e-6
        for e in edges:
            if e - eps < 0:
                continue
            assert bool(sig.high(e - eps)) != bool(sig.high(e + eps))


class TestPwmEdges:
    """The edge rule keeps only the pulses that reach the window."""

    # duty 0.5 at 100 MHz: a pulse passes the period's end where its phase
    # lies past half the period, and then its fall comes in the next period
    @pytest.mark.parametrize("phase, want", [
        (0.0, [[0.0, 5e-9]]),
        (3e-9, [[3e-9, 3e-9 + 5e-9]]),
        (7e-9, [[7e-9 - 1e-8, 7e-9 - 1e-8 + 5e-9], [7e-9, 7e-9 + 5e-9]])])
    def test_one_period_window_from_zero(self, phase, want):
        edges = pwm_edges(1e-8, 0.5, phase, 0.0, 1e-8)
        assert edges.tolist() == want

    def test_inputs_with_fewer_pulses_get_later_dead_ones(self):
        period = np.array([[1e-8]])
        edges = pwm_edges(period, np.array([[0.5, 0.5, 0.0]]),
                          np.array([[0.0, 7e-9, 0.0]]), 0.0, period)
        assert edges.shape == (1, 3, 2, 2)
        # the first input's next pulse rises at the window's end; the input
        # without pulses has the end for each edge
        assert edges[0, 0, 1, 0] == 1e-8
        assert np.all(edges[0, 2] == 1e-8)

    def test_window_on_a_fall_and_a_rise(self):
        # the pulse that falls on t0 reaches [t0, t1); the one that rises on
        # t1 does not
        sig = PwmSignal(1e8, 0.5)
        edges = pwm_edges(sig.period, 0.5, 0.0, 5e-9, 2e-8)
        assert edges.tolist() == [[0.0, 5e-9], [1e-8, 1e-8 + 5e-9]]
        assert sig.edges_in(5e-9, 2e-8).tolist() == [5e-9, 1e-8, 1e-8 + 5e-9]


class TestSupplyProfiles:
    def test_constant(self):
        sup = ConstantSupply(2.5)
        for t in [0.0, 1e-6, 42.0]:
            assert sup.value_at(t) == 2.5

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantSupply(0.0)

    def test_sinusoid_peak_and_trough(self):
        # 2.5 +- 0.7 V, 10 us period: 3.2 V at quarter period, 1.8 V at 3/4
        sup = SinusoidSupply(2.5, 0.7, 10e-6)
        assert sup.value_at(2.5e-6) == pytest.approx(3.2, abs=1e-12)
        assert sup.value_at(7.5e-6) == pytest.approx(1.8, abs=1e-12)

    def test_sinusoid_periodicity(self):
        sup = SinusoidSupply(2.5, 0.7, 10e-6)
        for t in np.linspace(0.0, 30e-6, 37):
            assert sup.value_at(t) == pytest.approx(sup.value_at(t + 10e-6), abs=1e-12)

    def test_sinusoid_rejects_dip_below_zero(self):
        with pytest.raises(ValueError):
            SinusoidSupply(0.5, 0.7, 10e-6)

    def test_piecewise_linear_interpolates_and_holds(self):
        sup = PiecewiseLinearSupply(((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)))
        assert sup.value_at(0.5) == pytest.approx(2.0)
        assert sup.value_at(1.5) == pytest.approx(2.5)
        assert sup.value_at(5.0) == 2.0   # holds last value
        assert sup.value_at(-1.0) == 1.0  # holds first value

    def test_piecewise_linear_bisection_equals_interval_scan(self):
        def scan(pts, t):
            # the first interval holding t, the one ending on a knot t sits on
            if t <= pts[0][0]:
                return pts[0][1]
            if t >= pts[-1][0]:
                return pts[-1][1]
            for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
                if t0 <= t <= t1:
                    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 9, 40):
            knots = np.cumsum(rng.uniform(1e-7, 2e-6, n)) - 1e-6
            # volts spread over three decades, where v0 + (v1 - v0) can round
            # away from v1
            sup = PiecewiseLinearSupply(tuple(zip(knots, 10.0 ** rng.uniform(-2, 1, n))))
            ts = np.concatenate([knots, np.nextafter(knots, -np.inf),
                                 np.nextafter(knots, np.inf),
                                 rng.uniform(knots[0] - 1e-6, knots[-1] + 1e-6, 200)])
            for t in ts.tolist():
                assert sup.value_at(t) == scan(sup.breakpoints, t)

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearSupply(((0.0, 1.0), (1.0, -0.5)))
        with pytest.raises(ValueError):
            PiecewiseLinearSupply(((1.0, 1.0), (0.5, 2.0)))  # non-increasing t

    @pytest.mark.parametrize("field, make", [
        ("mean", lambda: SinusoidSupply(math.nan, 0.7, 10e-6)),
        ("amplitude", lambda: SinusoidSupply(2.5, math.nan, 10e-6)),
        ("period", lambda: SinusoidSupply(2.5, 0.7, math.inf)),
        ("time must", lambda: PiecewiseLinearSupply(((0.0, 2.5), (math.nan, 3.0)))),
        ("volts must", lambda: PiecewiseLinearSupply(((0.0, 2.5), (1.0, math.nan)))),
        ("vdd", lambda: ConstantSupply(math.inf)),
    ], ids=["mean", "amplitude", "period", "pwl-time", "pwl-volts", "constant-vdd"])
    def test_non_finite_input_named(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()


class TestSupplyCuts:
    def test_constant_supply_has_none(self):
        assert ConstantSupply(2.5).cuts(1e-3).size == 0
        assert PiecewiseLinearSupply(((1e-6, 2.5),)).cuts(1e-3).size == 0

    def test_sinusoid_every_two_hundredth_of_its_period(self):
        cuts = SinusoidSupply(2.5, 0.7, 1e-6).cuts(3.3e-6)
        steps = np.arange(0.0, 3.3e-6, 1e-6 / 200)
        np.testing.assert_array_equal(cuts, steps[steps <= 3.3e-6])

    @pytest.mark.parametrize("horizon", [1e-6, 2.5e-6, 4e-6])
    def test_pwl_from_zero_steps_over_its_span(self, horizon):
        # a first knot at 0 and a horizon inside the span: every span/200
        # from 0, and the knots
        sup = PiecewiseLinearSupply(((0.0, 2.0), (2e-6, 3.0), (4e-6, 1.9)))
        steps = np.arange(0.0, horizon, 4e-6 / 200)
        want = np.union1d(steps[steps <= horizon], [t for t in sup._times if t <= horizon])
        np.testing.assert_array_equal(np.unique(sup.cuts(horizon)), want)

    def test_pwl_holds_still_after_its_last_knot(self):
        sup = PiecewiseLinearSupply(((0.0, 2.0), (1e-6, 3.0)))
        cuts = sup.cuts(2e-3)
        assert cuts.max() == 1e-6
        assert len(np.unique(cuts)) <= 202

    @pytest.mark.parametrize("knots", [(-3e-6, -1e-6), (-1e-6, 1.5e-6, 5e-6),
                                       (2e-6, 9e-6)])
    def test_pwl_cuts_stay_inside_the_horizon(self, knots):
        sup = PiecewiseLinearSupply(tuple((t, 2.0 + i) for i, t in enumerate(knots)))
        for horizon in (0.5e-6, 3e-6, 1e-5):
            cuts = sup.cuts(horizon)
            assert cuts.size == 0 or (cuts.min() >= 0.0 and cuts.max() <= horizon)
            # the knots inside and the steps between the end knots only
            inner = [t for t in knots if 0.0 <= t <= horizon]
            assert set(inner) <= set(cuts.tolist())
            assert np.all((cuts >= knots[0]) & (cuts <= knots[-1]))


@pytest.mark.parametrize("supply", [
    ConstantSupply(2.5), SinusoidSupply(2.5, 0.7, 1e-6),
    PiecewiseLinearSupply(((0.0, 2.0), (1e-6, 3.0), (2e-6, 1.9)))],
    ids=["constant", "sinusoid", "pwl"])
def test_values_equal_value_at(supply):
    ts = np.linspace(0.0, 3e-6, 13)
    assert supply.values(ts).tolist() == [supply.value_at(t) for t in ts.tolist()]
