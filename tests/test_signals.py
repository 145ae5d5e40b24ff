import math

import numpy as np
import pytest

from pwmperc.signals import (ConstantSupply, PiecewiseLinearSupply, PwmSignal,
                             SinusoidSupply, with_random_phases)


class TestPwmSignalState:
    def test_first_half_period_high(self):
        sig = PwmSignal(1e6, 0.5)
        assert sig.state_at(0.25e-6) is True

    def test_second_half_period_low(self):
        sig = PwmSignal(1e6, 0.5)
        assert sig.state_at(0.75e-6) is False

    def test_100mhz_duty_30_at_17p5ns(self):
        # 17.5 ns mod 10 ns = 7.5 ns >= 3 ns -> low
        sig = PwmSignal(100e6, 0.3)
        assert sig.state_at(17.5e-9) is False

    def test_duty_zero_and_one_are_constant(self):
        lo = PwmSignal(1e6, 0.0)
        hi = PwmSignal(1e6, 1.0)
        for t in [0.0, 1e-7, 3.7e-6, 1.0]:
            assert lo.state_at(t) is False
            assert hi.state_at(t) is True
        assert len(lo.edges_in(0, 1e-3)) == 0
        assert len(hi.edges_in(0, 1e-3)) == 0

    def test_phase_shifts_pattern(self):
        sig = PwmSignal(1e6, 0.5, phase=0.25e-6)
        assert sig.state_at(0.3e-6) is True
        assert sig.state_at(0.1e-6) is False  # before the rising edge

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PwmSignal(1e6, 0.5).state_at(-1e-9)

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
        # integrate state_at exactly using the edge list as breakpoints
        sig = PwmSignal(freq, duty, phase)
        t_end = periods * sig.period
        cuts = np.concatenate([[0.0], sig.edges_in(0.0, t_end), [t_end]])
        high = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b > a and sig.state_at(0.5 * (a + b)):
                high += b - a
        expect = duty * periods * sig.period
        assert high == pytest.approx(expect, rel=1e-12)

    def test_no_drift_after_a_million_periods(self):
        sig = PwmSignal(1e6, 0.5)
        period = sig.period
        for delta in [0.01, 0.26, 0.49, 0.51, 0.74, 0.99]:
            near = sig.state_at(delta * period)
            far = sig.state_at(1_000_000 * period + delta * period)
            assert near == far

    def test_edges_match_state_transitions(self):
        sig = PwmSignal(2.5e6, 0.4, phase=1e-7)
        edges = sig.edges_in(0.0, 10 * sig.period)
        eps = sig.period * 1e-6
        for e in edges:
            if e - eps < 0:
                continue
            assert sig.state_at(e - eps) != sig.state_at(e + eps)


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


def test_with_random_phases_deterministic_and_in_range():
    sigs = [PwmSignal(1e8, 0.5), PwmSignal(1.2e8, 0.3), PwmSignal(1.4e8, 0.7)]
    a = with_random_phases(sigs, np.random.default_rng(7))
    b = with_random_phases(sigs, np.random.default_rng(7))
    assert [s.phase for s in a] == [s.phase for s in b]
    for orig, shifted in zip(sigs, a):
        assert 0.0 <= shifted.phase < orig.period
        assert shifted.duty == orig.duty
