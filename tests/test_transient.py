import bisect
import builtins
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from pwmperc import cli, transient
from pwmperc.analytic import WeightVector, vac_equilibrium
from pwmperc.signals import (ConstantSupply, PiecewiseLinearSupply, PwmSignal,
                             SinusoidSupply, SupplyProfile, pwm_edges)
from pwmperc.transient import (FloatingNodeError, TraceMetrics, VacConfig,
                               VacStimulus, simulate_vac, steady_state, steady_states,
                               sweep, trace_metrics)

W777 = WeightVector((7, 7, 7), 3)
SUP25 = ConstantSupply(2.5)


def inputs_of(stimulus):
    """A stimulus' inputs, as simulate_vac takes them."""
    phases = stimulus.phases or (0.0,) * len(stimulus.duties)
    return [PwmSignal(stimulus.frequency, d, p) for d, p in zip(stimulus.duties, phases)]


def run(cfg, duties, w, freq, vdd=2.5, v0=0.0):
    return steady_state(cfg, VacStimulus(tuple(duties), freq, w, vdd=vdd, v0=v0))


class TestSteadyState:
    def test_half_duty_full_weights_small_preset(self):
        m = run(VacConfig.small(), [0.5] * 3, W777, 100e6)
        assert m.reliable
        assert m.average_v == pytest.approx(1.25, rel=0.02)

    def test_supply_scaling(self):
        m = run(VacConfig.small(), [0.5] * 3, W777, 100e6, vdd=1.0)
        assert m.average_v == pytest.approx(0.50, rel=0.02)

    def test_unrelated_frequencies_plain_adder(self):
        # three unit inverters at 140/120/100 MHz, duties 0.7/0.3/0.5
        cfg = VacConfig(n=3, k=1, r_unit=100e3, c_out=10e-12)
        w = WeightVector((1, 1, 1), 1)
        sigs = [PwmSignal(140e6, 0.7), PwmSignal(120e6, 0.3), PwmSignal(100e6, 0.5)]
        trace = simulate_vac(cfg, sigs, w, SUP25, 8e-6)  # 24 tau, whole periods
        m = trace_metrics(trace, cfg, SUP25)
        assert m.average_v == pytest.approx(1.25, rel=0.02)

    def test_equilibrium_consistency_random(self):
        rng = np.random.default_rng(21)
        cfg = VacConfig.small()
        for _ in range(10):
            duties = rng.uniform(0.05, 0.95, 3).tolist()
            w = WeightVector(tuple(int(v) for v in rng.integers(1, 8, 3)), 3)
            vdd = float(rng.uniform(1.0, 3.3))
            m = run(cfg, duties, w, 100e6, vdd=vdd)
            expect = vac_equilibrium(duties, w, vdd)
            assert abs(m.average_v - expect) <= m.swing / 2 + 0.01 * vdd

    def test_charge_time_small_preset(self):
        m = run(VacConfig.small(), [0.5] * 3, W777, 100e6, v0=2.5)
        assert m.charge_time == pytest.approx(0.14e-6, rel=0.5)

    def test_charge_time_ratio_large_over_small(self):
        ms = run(VacConfig.small(), [0.5] * 3, W777, 100e6, v0=2.5)
        ml = run(VacConfig.large(), [0.5] * 3, W777, 1e6, v0=2.5)
        assert ml.charge_time == pytest.approx(14.5e-6, rel=0.5)
        assert ml.charge_time / ms.charge_time == pytest.approx(100.0, rel=0.1)

    def test_charge_time_from_equilibrium_start_is_zero(self):
        m = run(VacConfig.small(), [0.5] * 3, W777, 100e6, v0=1.25)
        assert m.charge_time is not None and m.charge_time < 2e-8


class TestRipple:
    def test_swing_monotone_in_frequency(self):
        swings = []
        for f in (1e5, 1e6, 1e7, 1e8):
            m = run(VacConfig.large(), [0.5] * 3, W777, f)
            swings.append(m.swing)
        assert all(b <= a + 1e-12 for a, b in zip(swings, swings[1:]))

    def test_swing_monotone_in_capacitance(self):
        small_c = VacConfig(n=3, k=3, r_unit=1e6, c_out=10e-12)
        big_c = VacConfig(n=3, k=3, r_unit=1e6, c_out=100e-12)
        m_small = run(small_c, [0.5] * 3, W777, 1e6)
        m_big = run(big_c, [0.5] * 3, W777, 1e6)
        assert m_big.swing <= m_small.swing

    def test_large_preset_crosses_200mv_between_100khz_and_1mhz(self):
        m_slow = run(VacConfig.large(), [0.5] * 3, W777, 1e5)
        m_fast = run(VacConfig.large(), [0.5] * 3, W777, 1e6)
        assert m_slow.swing > 0.2
        assert m_fast.swing <= 0.2


class TestPower:
    def test_power_positive_and_preset_ratio(self):
        ms = run(VacConfig.small(), [0.5] * 3, W777, 100e6)
        ml = run(VacConfig.large(), [0.5] * 3, W777, 100e6)
        assert ms.avg_power > 0 and ml.avg_power > 0
        assert ms.avg_power > ml.avg_power
        assert ms.avg_power / ml.avg_power == pytest.approx(10.0, rel=0.01)

    def test_power_in_reference_band(self):
        ms = run(VacConfig.small(), [0.5] * 3, W777, 100e6)
        assert 14e-6 <= ms.avg_power <= 1080e-6


class TestClamp:
    def test_floor_holds_for_high_duty(self):
        cfg = VacConfig.small(compensation_threshold=0.7)
        m = run(cfg, [0.9] * 3, W777, 100e6)
        trace = simulate_vac(cfg, [PwmSignal(100e6, 0.9)] * 3, W777, SUP25, 1.16e-6)
        window = trace.horizon * 0.75
        vals = trace.v_cap[trace.times >= window]
        assert vals.min() >= 0.7 - 1e-12
        assert m.average_v >= 0.7 - 1e-12

    def test_no_clamp_when_equilibrium_above_threshold(self):
        cfg = VacConfig.small(compensation_threshold=0.7)
        m = run(cfg, [0.5] * 3, W777, 100e6)
        assert m.average_v == pytest.approx(1.25, rel=0.02)

    def test_all_zero_weights_with_clamp_pins_threshold(self):
        cfg = VacConfig.small(compensation_threshold=0.7)
        w0 = WeightVector((0, 0, 0), 3)
        trace = simulate_vac(cfg, [PwmSignal(100e6, 0.5)] * 3, w0, SUP25, 1.16e-6)
        # every cell disabled -> pure pull-up bank, node sits at vdd eventually
        assert trace.v_cap.min() >= 0.7 - 1e-12


def test_metrics_flag_unreliable_before_steady_state():
    # horizon of ~1.2 tau: the last-quarter window is still charging
    cfg = VacConfig.large()
    sigs = [PwmSignal(100e6, 0.5)] * 3
    trace = simulate_vac(cfg, sigs, W777, SUP25, 6e-6, v0=0.0)
    m = trace_metrics(trace, cfg, SUP25, cycle_period=1e-8)
    assert not m.reliable
    assert m.drift > 1e-3


class TestSettleBound:
    """trace_metrics' drift is the contraction bound max supply *
    e^(-w_lo/tau), relative to the average: a supply that swings does not
    read as unsettled."""

    def test_readme_sinusoid_reads_reliable(self):
        cfg = VacConfig.small()
        sup = SinusoidSupply(mean=2.5, amplitude=0.7, period=10e-6)
        trace = simulate_vac(cfg, [PwmSignal(100e6, 0.5)] * 3, W777, sup, 40e-6)
        m = trace_metrics(trace, cfg, sup)
        assert m.reliable
        assert m.drift == pytest.approx(3.2 * math.exp(-30e-6 / cfg.tau) / m.average_v,
                                        rel=1e-12)

    def test_dynamic_vdd_region_a_reads_reliable(self, tmp_path):
        p = cli.resolve(cli.ExperimentSpec(kind="dynamic-vdd", parameters={},
                                           output_dir=tmp_path, seed=0))
        cfg = cli._vac_config(p)
        sup = SinusoidSupply(mean=p["supply_mean"], amplitude=p["supply_amplitude"],
                             period=p["supply_period"])
        sigs = [PwmSignal(p["frequency"], d) for d in p["duties"]]
        w = WeightVector(tuple(p["weights_a"]), cfg.k)
        m = trace_metrics(simulate_vac(cfg, sigs, w, sup, p["horizon"]), cfg, sup)
        assert m.reliable


class TestTraceIsItsOwnRecord:
    """A trace keeps the circuit and the supply it was solved under: its
    readers take nothing else, and a foreign pair fails by name."""

    SUP = SinusoidSupply(mean=2.5, amplitude=0.7, period=10e-6)

    def trace(self):
        return simulate_vac(VacConfig.small(), [PwmSignal(100e6, 0.5)] * 3, W777,
                            self.SUP, 40e-6)

    def test_metrics_read_the_trace_alone(self):
        trace = self.trace()
        assert trace_metrics(trace) == trace_metrics(trace, VacConfig.small(), self.SUP,
                                                     cycle_period=1e-8)

    def test_another_cfg_is_rejected_by_name(self):
        # the large preset's tau would read this trace as unsettled
        with pytest.raises(ValueError, match=r"^cfg VacConfig\(.*r_unit=1000000\.0"):
            trace_metrics(self.trace(), VacConfig.large(), self.SUP)

    def test_another_supply_is_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^supply ConstantSupply\(.*is not the trace"):
            trace_metrics(self.trace(), VacConfig.small(), SUP25)

    def test_traces_compare_by_identity(self):
        # field-wise, == would take the truth value of whole arrays
        trace = self.trace()
        assert trace == trace and trace != self.trace()

    @pytest.mark.parametrize("name", ["times", "v_cap", "vdd"])
    def test_samples_are_read_only(self, name):
        trace = self.trace()
        with pytest.raises(AttributeError):
            setattr(trace, name, np.zeros(3))

def test_clamp_must_stay_below_supply():
    cfg = VacConfig.small(compensation_threshold=2.6)
    with pytest.raises(ValueError):
        simulate_vac(cfg, [PwmSignal(1e8, 0.5)] * 3, W777, SUP25, 1e-6)


class TestErrors:
    def test_floating_node(self):
        cfg = VacConfig.small()
        w0 = WeightVector((0, 0, 0), 3)
        with pytest.raises(FloatingNodeError):
            simulate_vac(cfg, [PwmSignal(1e8, 0.5)] * 3, w0, SUP25, 1e-6)
        with pytest.raises(FloatingNodeError):
            run(cfg, [0.5] * 3, w0, 1e8)

    def test_input_count_mismatch(self):
        with pytest.raises(ValueError):
            simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 2, W777,
                         SUP25, 1e-6)

    # n and k count inputs and bits: whole numbers only
    @pytest.mark.parametrize("make, message", [
        (lambda: VacConfig(3.5, 3, 1e5, 1e-11), "n must be an integer, got 3.5"),
        (lambda: VacConfig(3, 2.5, 1e5, 1e-11), "k must be an integer, got 2.5"),
        (lambda: VacConfig(True, 3, 1e5, 1e-11), "n must be an integer, got True"),
        (lambda: VacConfig(math.nan, 3, 1e5, 1e-11), "n must be an integer, got nan"),
        (lambda: VacConfig.small(k=math.inf), "k must be an integer, got inf"),
    ])
    def test_n_or_k_that_is_no_integer_is_named(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_weight_shape_mismatch(self):
        w = WeightVector((7, 7), 3)
        with pytest.raises(ValueError):
            simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3, w,
                         SUP25, 1e-6)

    def test_bad_v0(self):
        with pytest.raises(ValueError):
            simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3, W777,
                         SUP25, 1e-6, v0=5.0)
        with pytest.raises(ValueError, match="v0"):
            run(VacConfig.small(), [0.5] * 3, W777, 1e8, v0=5.0)

    @pytest.mark.parametrize("field, make", [
        ("r_unit", lambda: VacConfig(3, 3, math.nan, 1e-11)),
        ("c_out", lambda: VacConfig(3, 3, 1e5, math.inf)),
        ("compensation_threshold",
         lambda: VacConfig.small(compensation_threshold=math.nan)),
        ("horizon", lambda: simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3,
                                         W777, SUP25, math.nan)),
        ("horizon", lambda: simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3,
                                         W777, SUP25, math.inf)),
        ("v0", lambda: simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3,
                                    W777, SUP25, 1e-6, v0=math.nan)),
    ])
    def test_non_finite_input_named(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()


class TestSolverExactness:
    def test_voltage_continuous_across_segments(self):
        cfg = VacConfig.small()
        sigs = [PwmSignal(1.4e8, 0.7), PwmSignal(1.2e8, 0.3), PwmSignal(1e8, 0.5)]
        trace = simulate_vac(cfg, sigs, W777, SUP25, 5e-7)
        np.testing.assert_allclose(trace.seg_v1[:-1], trace.seg_v0[1:], atol=1e-12)

    def test_voltage_within_rails(self):
        cfg = VacConfig.small()
        trace = simulate_vac(cfg, [PwmSignal(1e6, 0.5)] * 3, W777, SUP25,
                             2e-5, v0=2.5)
        assert trace.v_cap.min() >= 0.0
        assert trace.v_cap.max() <= 2.5 + 1e-12


class TestDynamicSupply:
    def test_sinusoid_supply_runs_and_tracks(self):
        cfg = VacConfig(n=3, k=3, r_unit=100e3, c_out=100e-12)
        supply = SinusoidSupply(2.5, 0.7, 10e-6)
        sigs = [PwmSignal(100e6, 0.5)] * 3
        trace = simulate_vac(cfg, sigs, W777, supply, 40e-6, v0=0.0)
        # in the settled half, the ratio to the supply stays near 0.5
        ratios = []
        for t in np.linspace(20e-6, 40e-6, 101):
            ratios.append(trace.sample([t])[0] / supply.value_at(float(t)))
        ratios = np.array(ratios)
        assert abs(ratios.mean() - 0.5) < 0.02
        assert ratios.max() - ratios.min() < 0.12  # bounded excursion from lag

    def test_supply_substep_resolution(self):
        supply = SinusoidSupply(2.5, 0.7, 10e-6)
        cfg = VacConfig(n=3, k=3, r_unit=100e3, c_out=100e-12)
        trace = simulate_vac(cfg, [PwmSignal(1e6, 0.5)] * 3, W777, supply, 20e-6)
        # zero-order-hold steps bounded by period/200
        gaps = np.diff(np.unique(trace.seg_t0))
        assert gaps.max() <= 10e-6 / 200 + 1e-12

    @pytest.mark.parametrize("v_th", [0.0, 0.4])
    def test_pwl_tail_is_not_sub_stepped(self, v_th):
        # a 1 us ramp, then 2 ms of a constant 3 V: sub-steps only under the
        # ramp; a cut every 1/200 of the span over the whole horizon would
        # make about 400,000 segments
        class DenselyCut(PiecewiseLinearSupply):
            def cuts(self, horizon):
                steps = np.arange(0.0, horizon, 1e-6 / 200)
                return np.concatenate((super().cuts(horizon), steps))

        knots = ((0.0, 2.0), (1e-6, 3.0))
        cfg = VacConfig.small(compensation_threshold=v_th)
        sigs = [PwmSignal(1e5, d) for d in (0.3, 0.5, 0.7)]
        trace = simulate_vac(cfg, sigs, W777, PiecewiseLinearSupply(knots), 2e-3)
        dense = simulate_vac(cfg, sigs, W777, DenselyCut(knots), 2e-3)
        assert len(trace.seg_t0) <= 2000 < len(dense.seg_t0)
        ts = np.linspace(0.0, 2e-3, 5001)
        np.testing.assert_allclose(trace.sample(ts), dense.sample(ts), rtol=0, atol=1e-12)


class TestStimulus:
    @pytest.mark.parametrize("phases", [(0.0,) * 4, (0.0,) * 2, ()])
    def test_phases_must_match_duties(self, phases):
        stim = VacStimulus((0.5,) * 3, 1e8, W777, phases=phases)
        (result,) = steady_states(VacConfig.small(), [stim])
        assert type(result) is ValueError
        assert str(result) == f"phases has {len(phases)} entries for 3 duties"

    def test_failed_stimulus_keeps_its_error_and_leaves_the_batch(self):
        cfg = VacConfig.small()
        good = VacStimulus((0.5,) * 3, 1e8, W777)
        bad = [dataclasses.replace(good, vdd=0.0),
               dataclasses.replace(good, duties=(0.5, 1.5, 0.5)),
               dataclasses.replace(good, w=WeightVector((0, 0, 0), 3))]
        results = steady_states(cfg, [good, *bad, good])
        assert results[0] == results[-1] == steady_state(cfg, good)
        for stim, result in zip(bad, results[1:-1]):
            with pytest.raises(type(result), match=re.escape(str(result))):
                steady_state(cfg, stim)
        assert isinstance(results[3], FloatingNodeError)
        assert steady_states(cfg, []) == []

    @pytest.mark.parametrize("f", [math.inf, 1e-310, 5e-324])
    def test_frequency_without_a_finite_period_is_named(self, f):
        # 1/inf is 0, and 1/f overflows to inf below about 5.6e-309: each
        # stimulus fails alone, and the good ones beside it keep their results
        message = f"frequency must have a finite period > 0, got {f}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PwmSignal(f, 0.5)
        cfg = VacConfig.small()
        good = VacStimulus((0.5,) * 3, 1e8, W777)
        bad = dataclasses.replace(good, frequency=f)
        (alone,) = steady_states(cfg, [bad])
        first, between, last = steady_states(cfg, [good, bad, good])
        for error in (alone, between):
            assert type(error) is ValueError and str(error) == message
        assert first == last == steady_state(cfg, good)

    @pytest.mark.parametrize("cfg, f", [
        (VacConfig.small(), 1e-302), (VacConfig.small(), 1e-308),
        # tau = 47.6 s: the period in units of tau stays finite, a period's
        # supply energy and the edges past it do not
        (VacConfig(3, 3, r_unit=1e12, c_out=1e-9), 1e-307),
        (VacConfig(3, 3, r_unit=1e12, c_out=1e-9), 1e-308)])
    def test_period_past_the_floats_is_named(self, cfg, f):
        # past the longest period the solve would overflow (a RuntimeWarning
        # under -W error): such a stimulus fails alone, by its frequency
        good = VacStimulus((0.5, 0.3, 0.9), 1e8, W777, v0=1.0)
        bad = dataclasses.replace(good, frequency=f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, error, last = steady_states(cfg, [good, bad, good])
        assert type(error) is ValueError
        assert re.fullmatch(rf"frequency must have a period of at most \S+ s, got {f}", str(error))
        assert first == last == steady_state(cfg, good)

    @pytest.mark.parametrize("cfg", [VacConfig.small(), VacConfig(3, 3, r_unit=1e12, c_out=1e-9)])
    def test_longest_period_solves(self, cfg):
        # the longest period the check allows, with edges up to its end, and
        # a period twice as long
        growth = max(5.0, 1.0 / cfg.tau, cfg.total_units * 2.5 ** 2 * max(1.0, 1.0 / cfg.r_unit))
        longest = np.finfo(np.float64).max / growth
        stim = VacStimulus((0.5, 0.3, 0.9), 1.0 / longest, W777, v0=1.0,
                           phases=(0.0, 0.25 * longest, 0.5 * longest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, too_long = steady_states(cfg, [stim, dataclasses.replace(
                stim, frequency=0.5 / longest, phases=None)])
        assert math.isfinite(m.average_v) and math.isfinite(m.avg_power)
        assert m.average_v == pytest.approx(vac_equilibrium([0.5, 0.3, 0.9], W777, 2.5))
        assert isinstance(too_long, ValueError)


class TestSweep:
    def test_vdd_ratio_constant(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        grid = [1.0, 1.5, 2.0, 2.5, 3.0]
        points = sweep(cfg, stim, "vdd", grid)
        assert all(isinstance(m, TraceMetrics) for m in points)
        ratios = [m.average_v / v for m, v in zip(points, grid)]
        assert max(ratios) - min(ratios) < 0.01 * 0.5

    def test_frequency_sweep_average_stable(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        points = sweep(cfg, stim, "frequency", [1e3, 1e5, 1e7, 1e9])
        for m in points:
            assert m.average_v == pytest.approx(1.25, rel=0.02)

    def test_failed_point_recorded_not_fatal(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        points = sweep(cfg, stim, "vdd", [0.0, 2.5])  # vdd=0 is invalid
        assert isinstance(points[0], ValueError)
        assert isinstance(points[1], TraceMetrics)

    @pytest.mark.parametrize("threshold, axis, grid, w", [
        (0.4, "vdd", [-1.0, 0.0, 0.3, 1.5, 3.5], WeightVector((5, 6, 7), 3)),  # 3 fail
        (0.0, "frequency", [1e3, 1e6, 3e7, 1e8, 1e9], WeightVector((5, 6, 7), 3)),
        (0.0, "vdd", [1.0, 2.5], WeightVector((0, 0, 0), 3)),    # every point floats
    ])
    def test_rows_are_the_batch_rows(self, threshold, axis, grid, w):
        # a row per grid point, each steady_states' own: the same metrics bit
        # for bit, or the same exception, in grid order
        cfg = VacConfig.small(compensation_threshold=threshold)
        stim = VacStimulus((0.3, 0.6, 0.9), 100e6, w, v0=0.2, phases=(0.0, 1e-10, 4e-10))
        rows = sweep(cfg, stim, axis, grid)
        expected = steady_states(cfg, [dataclasses.replace(stim, **{axis: v}) for v in grid])
        assert len(rows) == len(grid)
        for got, want in zip(rows, expected):
            # repr round-trips each float exactly, and holds an exception's message
            assert type(got) is type(want) and repr(got) == repr(want)
        if w.weights == (0, 0, 0):
            assert all(isinstance(m, FloatingNodeError) for m in rows)
        elif axis == "vdd":
            assert [type(m) for m in rows] == [ValueError] * 3 + [TraceMetrics] * 2

    def test_grid_validation(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5,) * 3, frequency=1e8, w=W777)
        with pytest.raises(ValueError):
            sweep(cfg, stim, "vdd", [])
        with pytest.raises(ValueError):
            sweep(cfg, stim, "vdd", [2.0, 1.0])

    def test_unknown_axis_raised_up_front(self):
        # one error for the call, not one recorded at every point
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5,) * 3, frequency=1e8, w=W777)
        with pytest.raises(ValueError, match="unknown sweep axis 'duty'"):
            sweep(cfg, stim, "duty", [0.1, 0.2])


# the weighted-adder rows of the vac-table experiment
TABLE_ROWS = [(tuple(r["duties"]), WeightVector(tuple(r["weights"]), 3))
              for r in cli.KINDS["vac-table"][0]["rows"].default]
PRESETS = pytest.mark.parametrize("cfg", [VacConfig.small(), VacConfig.large()],
                                  ids=["small", "large"])
W567 = WeightVector((5, 6, 7), 3)
UNCLAMPED = [
    (VacConfig.small(), VacStimulus((0.5,) * 3, 100e6, W777, v0=2.5)),
    (VacConfig.large(), VacStimulus((0.7, 0.8, 0.9), 1e6, W777, v0=2.5)),
    (VacConfig.small(), VacStimulus((0.2, 0.6, 0.8), 30e6, W567, vdd=1.8,
                                    phases=(0.0, 5e-9, 20e-9))),
]
CLAMPED = [
    (VacConfig.small(compensation_threshold=0.7),
     VacStimulus((0.9,) * 3, 100e6, W777, v0=2.5)),
    (VacConfig.small(compensation_threshold=0.4),
     VacStimulus((0.9, 0.8, 0.95), 100e6, W777, phases=(0.0, 3e-9, 7e-9))),
    # pulled to ground all the time: pinned at the threshold
    (VacConfig.small(compensation_threshold=0.7),
     VacStimulus((1.0,) * 3, 100e6, W777, v0=2.5)),
    # about 1,500 periods from v0 to the crossing of the average
    (VacConfig.large(compensation_threshold=0.4),
     VacStimulus((0.9, 0.8, 0.95), 100e6, W777, v0=2.5)),
]


def long_run(cfg, stim, n_tau=30.0):
    """simulate_vac + trace_metrics over at least n_tau time constants, in a
    multiple of 4 periods so that the last-quarter window holds whole ones."""
    period = 1.0 / stim.frequency
    n_periods = 4 * math.ceil(n_tau * cfg.tau / (4 * period))
    supply = ConstantSupply(stim.vdd)
    trace = simulate_vac(cfg, inputs_of(stim), stim.w, supply, n_periods * period,
                         v0=stim.v0)
    return trace_metrics(trace, cfg, supply)


class TestPeriodicSteadyState:
    @PRESETS
    def test_average_equals_vac_equilibrium_without_clamp(self, cfg):
        cases = [((0.5,) * 3, W777, f) for f in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)]
        cases += [(duties, w, 100e6) for duties, w in TABLE_ROWS]
        for duties, w, f in cases:
            m = steady_state(cfg, VacStimulus(duties, f, w))
            assert m.reliable
            assert m.average_v == pytest.approx(
                vac_equilibrium(list(duties), w, 2.5), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg, stim", UNCLAMPED + CLAMPED)
    def test_matches_long_transient(self, cfg, stim):
        pss = steady_state(cfg, stim)
        ref = long_run(cfg, stim)
        assert ref.reliable
        assert abs(pss.average_v - ref.average_v) <= 1e-6
        assert pss.avg_power == pytest.approx(ref.avg_power, rel=1e-6)
        assert pss.charge_time == pytest.approx(ref.charge_time, rel=1e-6)

    @pytest.mark.parametrize("cfg, stim", CLAMPED)
    def test_clamped_fixed_point(self, cfg, stim):
        period = 1.0 / stim.frequency
        supply = ConstantSupply(stim.vdd)
        segments = trace_segments(cfg, inputs_of(stim), stim.w, supply, period)
        v_aff, c = period_map(cfg, transient._prefix(cfg, segments), period,
                              segments[2])
        v_star = max(v_aff, c)
        # F(v*), one period from v*, by the transient solver
        one = simulate_vac(cfg, inputs_of(stim), stim.w, supply, period, v0=v_star)
        assert one.seg_clamped.any()
        assert abs(one.seg_v1[-1] - v_star) <= 1e-12
        v_th = cfg.compensation_threshold
        assert one.seg_v0.min() >= v_th and one.seg_v1.min() >= v_th
        # F(v) = max(A*v + B, C) from every start on [v_th, vdd]
        a = math.exp(-period / cfg.tau)
        b = v_aff * -math.expm1(-period / cfg.tau)
        for v in np.random.default_rng(3).uniform(v_th, stim.vdd, 200):
            end = transient._walk(cfg, segments, v, supply).seg_v1[-1]
            assert abs(end - max(a * v + b, c)) <= 1e-12

    def test_clamped_charge_time_skips_affine_periods(self, monkeypatch):
        # about 14,000 periods from v0 to the crossing: the period index is
        # found by bisection, not walked period by period (which gives
        # 1.4354688127e-5 s). A solve evaluates boundaries for every stimulus
        # of the batch at once: the steady-state period, period m_hi of the
        # contraction bound, and one period per halving of the bracket
        # (-1, m_hi], ceil(log2(m_hi + 1)) halvings for the widest row here
        boundaries = transient._boundaries
        calls = []
        monkeypatch.setattr(transient, "_boundaries",
                            lambda *args: calls.append(np.shape(args[1])) or boundaries(*args))
        m_his = period_bounds(monkeypatch)
        cfg = VacConfig.large(compensation_threshold=0.4)
        stim = VacStimulus((0.9, 0.8, 0.95), 1e9, W777, v0=2.5)
        m = steady_state(cfg, stim)
        assert [m_hi for m_hi, _ in m_his] == [56_531]
        assert len(calls) == 2 + math.ceil(math.log2(56_531 + 1)) == 18
        assert m.charge_time == pytest.approx(1.4354688127e-5, rel=1e-10)
        calls.clear()
        m_his.clear()
        batch = steady_states(cfg, [stim, dataclasses.replace(stim, v0=2.0), stim])
        assert len(calls) == 2 + math.ceil(math.log2(max(m_his)[0] + 1))
        assert all(shape[0] == 3 for shape in calls)
        assert batch[0] == batch[2] == m

    def test_subnormal_period_charge_time_within_the_bound(self, monkeypatch):
        # at 1e308 Hz the period is subnormal and the bound m_hi is about
        # 1.7e302 periods: past 2^53 the floats cannot split the bracket down
        # to one period, and the search ends at a period that reaches
        m_his = period_bounds(monkeypatch)
        stim = VacStimulus((0.9, 0.2, 0.5), 1e308, WeightVector((7, 3, 5), 3), v0=2.5)
        m = steady_state(VacConfig.small(), stim)
        ((m_hi, period),) = m_his
        assert m_hi > 2 ** 53
        assert m.charge_time is not None and 0.0 < m.charge_time <= m_hi * period

    @pytest.mark.parametrize("duties, f", [((0.2, 0.5, 0.25), 1e9), ((0.3, 0.5, 0.25), 1e6)])
    def test_charge_time_from_the_average_is_positive_zero(self, duties, f):
        # v0 on the steady state's average: the crossing is at the start,
        # where the contraction bound's ceil can be -0.0; a CSV would write
        # the time as "-0.0"
        w = WeightVector((3, 5, 7), 3)
        m = steady_state(VacConfig.small(), VacStimulus(duties, f, w,
                                                        v0=vac_equilibrium(duties, w, 2.5)))
        assert m.charge_time == 0.0 and math.copysign(1.0, m.charge_time) == 1.0


class TestNetworkWidth:
    """Rows of one neuron of a 784-input layer: byte duties on a share of
    the inputs from 20 % to 95 %, 6-bit weights from 0-63 up to 56-63,
    100 MHz, 1.5 V."""

    ROWS = 20

    def batch(self):
        rng = np.random.default_rng(26)
        dense = rng.random((self.ROWS, 784)) < np.linspace(0.2, 0.95, self.ROWS)[:, None]
        duties = rng.integers(0, 256, (self.ROWS, 784)) * dense / 255.0
        least = np.linspace(0, 56, self.ROWS).astype(int)[:, None]
        weights = rng.integers(least, 64, (self.ROWS, 784)).astype(np.float64)
        return transient.StimulusBatch(np.full(self.ROWS, 1e8), np.full(self.ROWS, 1.5),
                                       np.zeros(self.ROWS), duties, np.zeros((self.ROWS, 784)),
                                       weights, np.array([784, 784, 784, 6]))

    def test_one_pulse_per_input(self):
        # phases 0 and no pulse passes the period's end: the edge rule gives
        # each input its one pulse of the period, and no other
        b = self.batch()
        period = 1.0 / b.frequency[:, None]
        assert pwm_edges(period, b.duties, b.phases, 0.0, period).shape == (self.ROWS, 784, 1, 2)

    def test_unclamped_average_is_the_closed_form(self):
        b = self.batch()
        errors, (average, *_) = b.solve(VacConfig.small(n=784, k=6))
        assert errors == {}
        want = [vac_equilibrium(list(d), WeightVector(tuple(w), 6), 1.5)
                for d, w in zip(b.duties, b.weights)]
        assert np.max(np.abs(average - want)) <= 1e-14 * 1.5

    def test_clamped_rows_are_their_one_row_batches(self):
        cfg = VacConfig.small(n=784, k=6, compensation_threshold=0.4)
        b = self.batch()
        errors, columns = b.solve(cfg)
        assert errors == {}
        # the densest rows pull below the threshold: their average is above
        # the closed form's
        assert vac_equilibrium(list(b.duties[-1]), WeightVector(tuple(b.weights[-1]), 6),
                               1.5) < columns[0][-1]
        for i in range(self.ROWS):
            one = transient.StimulusBatch(*(x[i:i + 1] for x in (
                b.frequency, b.vdd, b.v0, b.duties, b.phases, b.weights)), b.sizes)
            _, alone = one.solve(cfg)
            for got, want in zip(columns, alone):
                assert got[i:i + 1].tobytes() == want.tobytes()


class TestEnergyBalance:
    @PRESETS
    @pytest.mark.parametrize("v_th", [0.0, 0.4])
    def test_supply_power_equals_dissipation(self, cfg, v_th):
        # over one period from v*, the capacitor ends where it started, so the
        # supply delivers exactly what the resistors and the clamp dissipate:
        # g*[up*(vdd - v)^2 + (N - up)*v^2], plus I_clamp*(vdd - v_th) on
        # clamped pieces. Dense quadrature of simulate_vac's samples against
        # the batch's closed-form power
        cfg = dataclasses.replace(cfg, compensation_threshold=v_th)
        freq = 0.2 / cfg.tau                     # a period of 5 tau
        stims = [VacStimulus((0.9, 0.8, 0.95), freq, W777,
                             phases=(0.0, 0.3 / freq, 0.7 / freq)),
                 VacStimulus((0.5,) * 3, freq, W777, vdd=1.8, v0=1.0),
                 VacStimulus((0.2, 0.6, 0.8), freq, W567, vdd=3.3)]
        nodes, weights = np.polynomial.legendre.leggauss(16)
        g, n_units = 1.0 / cfg.r_unit, cfg.total_units
        clamped = []
        for stim, m in zip(stims, steady_states(cfg, stims)):
            period = 1.0 / stim.frequency
            supply = ConstantSupply(stim.vdd)
            segments = trace_segments(cfg, inputs_of(stim), stim.w, supply, period)
            v_aff, c = period_map(cfg, transient._prefix(cfg, segments), period,
                                  segments[2])
            trace = simulate_vac(cfg, inputs_of(stim), stim.w, supply, period,
                                 v0=v_aff if c is None else max(v_aff, c))
            t0, t1 = trace.seg_t0[:, None], trace.seg_t1[:, None]
            ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes
            v = trace.sample(ts.ravel()).reshape(ts.shape)
            up, vdd = trace.seg_up[:, None], stim.vdd
            i_clamp = np.where(trace.seg_clamped[:, None],
                               g * ((n_units - up) * v - up * (vdd - v)), 0.0)
            power = g * (up * (vdd - v) ** 2 + (n_units - up) * v ** 2) + i_clamp * (vdd - v)
            energy = float(np.sum(0.5 * (t1 - t0)[:, 0] * (power @ weights)))
            assert m.avg_power == pytest.approx(energy / period, rel=1e-12)
            clamped.append(bool(trace.seg_clamped.any()))
        # the first stimulus pulls every input low at once: the clamp engages
        assert clamped[0] == (v_th > 0.0)


def test_large_preset_vac_table_is_exact(tmp_path):
    spec = cli.ExperimentSpec(kind="vac-table", parameters={"preset": "large"},
                              output_dir=tmp_path, seed=0)
    assert cli.run(spec)["status"] == "ok"
    header, *rows = (tmp_path / "vac_table.csv").read_text().splitlines()
    col = header.split(",").index("rel_diff_pct")
    rel = [float(row.split(",")[col]) for row in rows]
    assert len(rel) == 6 and max(rel) < 1e-6


def test_trace_csv_roundtrip(tmp_path):
    cfg = VacConfig.small()
    trace = simulate_vac(cfg, [PwmSignal(1e8, 0.5)] * 3, W777, SUP25, 1e-6)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,v_cap_V,vdd_V"
    assert len(lines) == len(trace.times) + 1
    t, v, s = lines[1].split(",")
    assert float(t) == trace.times[0]
    assert float(v) == trace.v_cap[0]
    assert float(s) == 2.5


def test_trace_csv_bytes_are_its_rows(tmp_path):
    # more rows than one chunk, written chunk by chunk
    trace = simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3, W777, SUP25, 2e-6)
    assert len(trace.times) > transient.CSV_CHUNK
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == "time_s,v_cap_V,vdd_V\n" + "".join(
        f"{t!r},{v!r},{s!r}\n" for t, v, s in zip(
            trace.times.tolist(), trace.v_cap.tolist(), trace.vdd.tolist()))


@dataclasses.dataclass(frozen=True)
class LongReprSupply(SupplyProfile):
    """A test supply whose values have reprs of up to 24 characters, the
    longest a float has; `scale` makes supplies that differ at every time."""

    scale: float

    def value_at(self, t):
        return -self.scale * 1.2345678901234567e-300 * (1.0 + 7e6 * t)


def test_shared_cells_write_each_trace_as_alone(tmp_path):
    trace = simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.5)] * 3, W777, SUP25, 1e-7)
    first = dataclasses.replace(trace, supply=LongReprSupply(1.0))
    # 0.0 against -0.0, times the first trace lacks (inside and past its
    # end), and shared rows, under the first's supply
    times = first.times
    later = dataclasses.replace(first)
    later._waveform = (np.array([-0.0, times[1], times[1] * 1.5, times[2], 1.0]),
                       np.linspace(0.1, 0.5, 5))
    # a different supply at every time of the first
    other = dataclasses.replace(first, supply=LongReprSupply(2.0))
    cells = transient.TraceCells()
    # the first again, last: each trace under another supply than the kept
    # cells' replaces them, and the first then takes the later trace's
    for name, tr in (("first", first), ("later", later), ("other", other),
                     ("later", later), ("first", first)):
        tr.write_csv(tmp_path / f"{name}.csv", cells)
        tr.write_csv(tmp_path / f"{name}-alone.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}-alone.csv").read_bytes()
    assert (tmp_path / "later.csv").read_text().splitlines()[1].startswith("-0.0,")
    rows = (tmp_path / "first.csv").read_text().splitlines()[1:]
    assert max(len(row.rsplit(",", 1)[1]) for row in rows) == 24


# ---------------------------------------------------------------------------
# Samples on first read: the supply is called where a sample is read
# ---------------------------------------------------------------------------

CLAMP_SIGNALS = [PwmSignal(1e8, d, p) for d, p in zip((0.9, 0.8, 0.95), (0.0, 3e-9, 7e-9))]
SAMPLED_SUPPLIES = [SinusoidSupply(2.5, 0.7, 1e-6),
                    PiecewiseLinearSupply(((0.0, 2.0), (1e-6, 3.0), (2e-6, 1.9)))]


@pytest.fixture
def supply_calls(monkeypatch):
    """The times of every value_at call of the time-varying supplies."""
    calls = []
    for cls in (SinusoidSupply, PiecewiseLinearSupply):
        def value_at(self, t, real=cls.value_at):
            calls.append(t)
            return real(self, t)
        monkeypatch.setattr(cls, "value_at", value_at)
    return calls


def eager_samples(trace, supply, horizon):
    """The samples as simulate_vac took them before the trace took them on
    first read: the segment boundaries plus 512 uniform times, the capacitor
    voltage there, and the supply at every time."""
    boundary_ts = np.append(trace.seg_t0, horizon)
    boundary_vs = np.append(trace.seg_v0, trace.seg_v1[-1])
    uniform_ts = np.linspace(0.0, horizon, 512)
    extra_ts = uniform_ts[~np.isin(uniform_ts, boundary_ts)]
    order = np.argsort(np.concatenate([boundary_ts, extra_ts]), kind="stable")
    times = np.concatenate([boundary_ts, extra_ts])[order]
    v_cap = np.concatenate([boundary_vs, trace.sample(extra_ts)])[order]
    return times, v_cap, np.array([supply.value_at(t) for t in times.tolist()])


@pytest.mark.parametrize("supply", SAMPLED_SUPPLIES, ids=["sinusoid", "pwl"])
def test_simulate_vac_calls_the_supply_only_at_the_timeline(supply, supply_calls):
    cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
    t0s = trace_segments(cfg, CLAMP_SIGNALS, W777, supply, 3e-6)[0]
    del supply_calls[:]
    trace = simulate_vac(cfg, CLAMP_SIGNALS, W777, supply, 3e-6)
    assert trace.seg_clamped.any()
    assert supply_calls == t0s.tolist()


@pytest.mark.parametrize("supply", SAMPLED_SUPPLIES, ids=["sinusoid", "pwl"])
@pytest.mark.parametrize("name", ["times", "v_cap", "vdd"])
def test_first_read_samples_every_time(supply, name, supply_calls):
    cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
    trace = simulate_vac(cfg, CLAMP_SIGNALS, W777, supply, 3e-6)
    want = eager_samples(trace, supply, 3e-6)
    del supply_calls[:]
    getattr(trace, name)
    assert supply_calls == trace.times.tolist()
    for attr, values in zip(("times", "v_cap", "vdd"), want):
        assert getattr(trace, attr).tolist() == values.tolist(), attr
    assert len(supply_calls) == len(trace.times)      # once, on the first read


@pytest.mark.parametrize("weights_a, weights_b", [((7, 7, 7), (2, 2, 2)),
                                                  ((2, 2, 2), (7, 7, 7))])
def test_shared_cells_call_the_supply_at_unshared_rows(tmp_path, supply_calls,
                                                       weights_a, weights_b):
    # the dynamic-vdd regions: B under A's supply calls it at its timeline
    # and at the rows whose time A lacks, bit for bit, and no more
    cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
    supply = SinusoidSupply(2.5, 0.7, 1e-6)
    cells = transient.TraceCells()
    a = simulate_vac(cfg, CLAMP_SIGNALS, WeightVector(weights_a, 3), supply, 3e-6)
    a.write_csv(tmp_path / "a.csv", cells)
    t0s = trace_segments(cfg, CLAMP_SIGNALS, WeightVector(weights_b, 3), supply, 3e-6)[0]
    del supply_calls[:]
    b = simulate_vac(cfg, CLAMP_SIGNALS, WeightVector(weights_b, 3), supply, 3e-6)
    b.write_csv(tmp_path / "b.csv", cells)
    # the waveforms' times: reading b.times would call the supply again
    (a_times, _), (b_times, _) = a._waveform, b._waveform
    unshared = b_times[~np.isin(b_times.view(np.int64), a_times.view(np.int64))]
    assert supply_calls == t0s.tolist() + unshared.tolist()
    b.write_csv(tmp_path / "b-alone.csv")
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "b-alone.csv").read_bytes()


def test_trace_csv_formats_each_distinct_float_once(tmp_path, monkeypatch):
    cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
    trace = simulate_vac(cfg, CLAMP_SIGNALS, W777, SAMPLED_SUPPLIES[0], 3e-6)
    assert trace.seg_clamped.any()
    columns = trace.times, trace.v_cap, trace.vdd
    distinct = [len(np.unique(x.view(np.int64))) for x in columns]
    assert distinct[1] < len(trace.times)       # rows held at the clamp
    formatted = []
    monkeypatch.setattr(transient, "repr", lambda x: formatted.append(x) or builtins.repr(x),
                        raising=False)
    trace.write_csv(tmp_path / "trace.csv")
    assert len(formatted) == sum(distinct)


# ---------------------------------------------------------------------------
# The prefix scan against the sequential walk it replaced
# ---------------------------------------------------------------------------

def trace_segments(cfg, inputs, w, supply, horizon):
    """The timeline simulate_vac solves: the builder's one row over
    [0, horizon], with the supply's cuts."""
    period, duty, phase = np.array([(s.period, s.duty, s.phase) for s in inputs]).T[:, None]
    rows, _ = transient._timeline(cfg, [horizon], period, duty, phase,
                                  np.array([w.weights]), supply)
    return tuple(x[0] for x in rows)


def sequential_walk(cfg, segments, v0):
    """Reference: the segment rule v -> max(veq + (v - veq)*e^(-dt/tau),
    floor) applied one segment after another, a segment that reaches the
    floor cut into a free part up to the crossing and a clamped rest."""
    t0s, t1s, veqs, vdds, ups = segments
    tau = cfg.tau
    v_th = cfg.compensation_threshold
    floor = v_th if v_th > 0.0 else -math.inf
    v = max(float(v0), floor)
    pieces = []
    for i, (a, b, veq) in enumerate(zip(t0s.tolist(), t1s.tolist(), veqs.tolist())):
        dt = b - a
        t_free = dt
        if veq < floor:
            t_free = tau * math.log((v - veq) / (v_th - veq)) if v > v_th else 0.0
        if t_free < dt:
            if t_free > 0.0:
                pieces.append((i, a, a + t_free, v, v_th, False))
            a, v, v_end, clamped = a + t_free, v_th, v_th, True
        else:
            v_end, clamped = veq + (v - veq) * math.exp(-dt / tau), False
        pieces.append((i, a, b, v, v_end, clamped))
        v = v_end
    seg, t0, t1, v0s, v1s, clamped = (np.array(c) for c in zip(*pieces))
    return dict(seg_t0=t0, seg_t1=t1, seg_v0=v0s, seg_v1=v1s,
                seg_veq=veqs[seg], seg_vdd=vdds[seg], seg_up=ups[seg],
                seg_clamped=clamped)


def loop_window_integrals(trace, cfg, w_lo, w_hi):
    """Reference: integral of v, of supply power, and extremes over
    [w_lo, w_hi], one piece after another."""
    tau, g = trace.cfg.tau, 1.0 / cfg.r_unit
    v_int = p_int = 0.0
    vmin, vmax = math.inf, -math.inf
    for i in range(len(trace.seg_t0)):
        a = max(float(trace.seg_t0[i]), w_lo)
        b = min(float(trace.seg_t1[i]), w_hi)
        if b <= a:
            continue
        vdd = float(trace.seg_vdd[i])
        if trace.seg_clamped[i]:
            v_th = float(trace.seg_v0[i])
            v_int += v_th * (b - a)
            dn = cfg.total_units - float(trace.seg_up[i])
            p_int += vdd * dn * g * v_th * (b - a)
            vmin, vmax = min(vmin, v_th), max(vmax, v_th)
            continue
        veq = float(trace.seg_veq[i])
        va = veq + (float(trace.seg_v0[i]) - veq) * math.exp(-(a - float(trace.seg_t0[i])) / tau)
        # 1 - e^(-x) from expm1: where v starts near 0 and x is small the
        # integral cancels, and 1 - exp would cost it about 1e-12 relative
        decay = -math.expm1(-(b - a) / tau)
        v_int += veq * (b - a) + tau * (va - veq) * decay
        p_int += vdd * float(trace.seg_up[i]) * g * (
            (vdd - veq) * (b - a) - tau * (va - veq) * decay)
        vb = veq + (va - veq) * (1.0 - decay)
        vmin, vmax = min(vmin, va, vb), max(vmax, va, vb)
    return v_int, p_int, vmin, vmax


SCAN_SUPPLIES = {
    "constant": ConstantSupply(2.5),
    "sinusoid": SinusoidSupply(2.5, 0.7, 2e-6),
    "pwl": PiecewiseLinearSupply(((0.0, 2.5), (1e-6, 3.1), (2.5e-6, 1.9),
                                  (4e-6, 2.8), (6e-6, 2.2))),
}


def assert_matches_sequential(cfg, sigs, w, supply, horizon, v0):
    segments = trace_segments(cfg, sigs, w, supply, horizon)
    trace = transient._walk(cfg, segments, v0, supply)
    ref = sequential_walk(cfg, segments, v0)
    np.testing.assert_array_equal(trace.seg_clamped, ref["seg_clamped"])
    v_tol = 1e-12 * supply.max_value()
    for name in ("seg_v0", "seg_v1"):
        np.testing.assert_allclose(getattr(trace, name), ref[name], rtol=0, atol=v_tol)
    for name in ("seg_t0", "seg_t1"):
        np.testing.assert_allclose(getattr(trace, name), ref[name], rtol=0,
                                   atol=1e-12 * horizon)
    for name in ("seg_veq", "seg_vdd", "seg_up"):
        np.testing.assert_array_equal(getattr(trace, name), ref[name])
    return trace


class TestPrefixScan:
    @pytest.mark.parametrize("supply", sorted(SCAN_SUPPLIES))
    def test_clamped_time_varying_supply(self, supply):
        # the supply-clamp configuration: the clamp engages every period
        cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
        sigs = [PwmSignal(1e8, d, p) for d, p in zip((0.9, 0.8, 0.95), (0.0, 3e-9, 7e-9))]
        trace = assert_matches_sequential(cfg, sigs, W777, SCAN_SUPPLIES[supply], 6e-6, 0.0)
        assert trace.seg_clamped.sum() > 500

    @pytest.mark.parametrize("v_th", [0.0, 0.4])
    def test_thousands_of_tau(self, v_th):
        # segments of over 800 tau, where e^(-dt/tau) underflows to 0, and a
        # horizon of 150,000 tau: the prefix product is 0 from the first
        # segment on
        cfg = VacConfig.small(compensation_threshold=v_th)
        sigs = [PwmSignal(5e3, 0.3), PwmSignal(5e3, 0.6, 1e-5), PwmSignal(2e3, 0.5)]
        horizon = 150_000 * cfg.tau
        trace = assert_matches_sequential(cfg, sigs, W777, SUP25, horizon, 2.5)
        assert np.max(trace.seg_t1 - trace.seg_t0) > 800 * cfg.tau
        assert transient._prefix(cfg, trace_segments(
            cfg, sigs, W777, SUP25, horizon))[0][0] == 0.0
        m = trace_metrics(simulate_vac(cfg, sigs, W777, SUP25, horizon, v0=2.5),
                          cfg, SUP25)
        assert math.isfinite(m.average_v) and math.isfinite(m.drift)

def test_charge_time_when_the_average_is_an_equilibrium():
    # the last quarter settles exactly onto veq = vdd, so the average is
    # that segment's equilibrium, which the voltage reaches at the segment end
    cfg = VacConfig.small()
    for duty in (0.5, 0.2, 0.6):
        trace = simulate_vac(cfg, [PwmSignal(50e3, duty)] * 3, W777, SUP25, 20e-6, v0=1.0)
        m = trace_metrics(trace, cfg, SUP25)
        assert m.average_v == 2.5
        assert m.charge_time == pytest.approx(20e-6, rel=1e-12)


# ---------------------------------------------------------------------------
# The timeline builder against a timeline built by hand
# ---------------------------------------------------------------------------

def reference_timeline(cfg, inputs, w, supply, window):
    """Reference: one row of [0, window], cut at every edge of each input,
    found by a loop over its pulses, and at the supply's cuts; an input
    pulls its cells down on a segment whose start t0 lies in one of its
    pulses, rise <= t0 < fall (always at duty 1), and the rest pull up; the
    supply is value_at at the start."""
    times = {0.0, window, *supply.cuts(window).tolist()}
    pulses = []                      # (rise, fall, weight) of each pulse
    for sig, wi in zip(inputs, w.weights):
        if sig.duty == 1.0:
            pulses.append((0.0, math.inf, wi))
        if sig.duty in (0.0, 1.0):
            continue
        # the phase lies in [0, period): no earlier period reaches 0
        m = -2
        while sig.phase + m * sig.period < window:
            rise = sig.phase + m * sig.period
            fall = rise + sig.duty * sig.period
            pulses.append((rise, fall, wi))
            times.update(t for t in (rise, fall) if 0.0 <= t < window)
            m += 1
    bounds = np.array(sorted(times))
    t0, t1 = bounds[:-1], bounds[1:]
    starts = t0.tolist()
    down = np.zeros(len(starts), dtype=np.asarray(w.weights).dtype)
    for rise, fall, wi in pulses:
        # the segments whose start lies in [rise, fall)
        down[bisect.bisect_left(starts, rise):bisect.bisect_left(starts, fall)] += wi
    up = cfg.total_units - down
    vdd = np.array([supply.value_at(t) for t in t0.tolist()])
    return t0, t1, vdd * (up / cfg.total_units), up


def assert_rows_match_reference(cfg, rows, window, got, n_seg):
    """Each row of the builder's `got` is its reference timeline bit for
    bit, then zero-length segments at its window's end."""
    for i, (inputs, w, supply) in enumerate(rows):
        want = reference_timeline(cfg, inputs, w, supply, window[i])
        k = len(want[0])
        assert n_seg[i] == k
        for name, g, r in zip(("t0", "t1", "veq", "up"), (got[0], got[1], got[2], got[4]),
                              want):
            np.testing.assert_array_equal(g[i, :k], r, err_msg=name)
            assert g[i, :k].tobytes() == r.astype(g.dtype).tobytes(), name
        assert np.all(got[0][i, k:] == window[i]) and np.all(got[1][i, k:] == window[i])


class TestTimeline:
    def batch(self, cfg, stimuli):
        """The builder's rows for stimuli of one input period each, as
        StimulusBatch.solve builds them."""
        b = transient.StimulusBatch.of(stimuli)
        period = 1.0 / b.frequency
        got, n_seg = transient._timeline(cfg, period, period[:, None], b.duties, b.phases,
                                         b.weights, b.vdd)
        rows = [(inputs_of(stim), stim.w, ConstantSupply(stim.vdd)) for stim in stimuli]
        assert_rows_match_reference(cfg, rows, period, got, n_seg)
        return n_seg

    def test_random_phases(self):
        rng = np.random.default_rng(11)
        cfg = VacConfig.small()
        stimuli = []
        for f in 10 ** rng.uniform(3, 9, 40):
            stimuli.append(VacStimulus(tuple(rng.uniform(0, 1, 3)), f, W567,
                                       vdd=float(rng.uniform(1, 3.5)),
                                       phases=tuple(rng.uniform(0, 1, 3) / f)))
        assert set(self.batch(cfg, stimuli)) == {7}

    def test_constant_and_equal_inputs(self):
        cfg = VacConfig.large(compensation_threshold=0.4)
        f = 3e7
        stimuli = [VacStimulus((0.0, 1.0, 0.5), f, W777, phases=(0.0, 1e-8, 2e-8)),
                   VacStimulus((1.0, 1.0, 0.0), f, W567),
                   VacStimulus((0.3,) * 3, f, W777, phases=(5e-9,) * 3),
                   VacStimulus((0.3, 0.3, 0.6), f, W777, phases=(5e-9, 5e-9, 0.0))]
        assert list(self.batch(cfg, stimuli)) == [3, 1, 3, 4]

    def test_rows_of_different_segment_counts(self):
        # n + 1 segments with all phases 0, 2n + 1 with distinct phases, one
        # for constant inputs, fewer where edges coincide, and rows of
        # different periods, in one batch
        cfg = VacConfig.small()
        stimuli = [VacStimulus((0.2, 0.5, 0.7), 1e8, W777),
                   VacStimulus((0.2, 0.5, 0.7), 1e6, W567, phases=(1e-7, 3.5e-7, 9e-7)),
                   VacStimulus((0.0, 1.0, 1.0), 1e9, W777, vdd=1.2),
                   VacStimulus((0.9, 0.1, 0.5), 5e4, W567, phases=(0.0, 1e-5, 1.9e-5))]
        assert list(self.batch(cfg, stimuli)) == [4, 7, 1, 6]

    @pytest.mark.parametrize("supply", ["sinusoid", "pwl"])
    def test_one_row_over_many_periods(self, supply):
        # inputs of three frequencies, one constant, over thousands of their
        # periods, under a supply that adds its own cuts; the sinusoid's cuts
        # land an ulp beside input edges, and both stay
        cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
        inputs = [PwmSignal(1e8, 0.9), PwmSignal(7e7, 0.35, 3e-9), PwmSignal(1e8, 1.0)]
        sup, horizon = SCAN_SUPPLIES[supply], 6e-6
        row = trace_segments(cfg, inputs, W567, sup, horizon)
        got = tuple(x[None] for x in row)
        assert_rows_match_reference(cfg, [(inputs, W567, sup)], [horizon], got,
                                    [len(row[0])])
        np.testing.assert_array_equal(row[3], sup.values(row[0]))
        assert len(row[0]) > 1_000

    def test_sub_ulp_segments_stay(self):
        # the supply-clamp trace: SinusoidSupply.cuts steps by period/200,
        # which rounds up, so cuts land just above input edges. No merge
        # tolerance: those segments, some shorter than 1e-18 s, are kept
        cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
        inputs = [PwmSignal(1e8, d) for d in (0.9, 0.8, 0.95)]
        sup = SinusoidSupply(2.5, 0.7, 1e-5)
        row = trace_segments(cfg, inputs, W777, sup, 20e-6)
        got = tuple(x[None] for x in row)
        assert_rows_match_reference(cfg, [(inputs, W777, sup)], [20e-6], got,
                                    [len(row[0])])
        assert np.min(row[1] - row[0]) < 1e-18

    def test_sliver_after_a_rise_pulls_down(self):
        # the same trace's segment from the inputs' rise at 5 * 1e-8 s, which
        # rounds down to 5e-8, to the supply's cut an ulp later: all three
        # inputs are high there. Its midpoint rounds onto 5e-8, which fmod
        # places just before the rise, where all three are low
        cfg = VacConfig(3, 3, 1e5, 1e-10, compensation_threshold=0.4)
        inputs = [PwmSignal(1e8, d) for d in (0.9, 0.8, 0.95)]
        trace = simulate_vac(cfg, inputs, W777, SinusoidSupply(2.5, 0.7, 1e-5), 20e-6)
        (i,) = np.flatnonzero(trace.seg_t0 == 5e-8)
        assert trace.seg_t1[i] == 5.0000000000000004e-08
        assert trace.seg_up[i] == 0 and trace.seg_up[i - 1] == 21

    def test_window_inside_one_pulse(self):
        # the window [0, 1 ns] has no edge: the pulse from -4 ns to 5 ns
        # pulls every cell down throughout
        trace = simulate_vac(VacConfig.small(), [PwmSignal(1e8, 0.9, 6e-9)] * 3, W777,
                             SUP25, 1e-9)
        assert trace.seg_t0.tolist() == [0.0] and trace.seg_up.tolist() == [0]


# ---------------------------------------------------------------------------
# The batched steady state against the one-stimulus solve it replaced
# ---------------------------------------------------------------------------

def reference_check(cfg, stimulus):
    """Reference: the checks of one stimulus as scalar tests, one after
    another: the constant supply's, the phase count, each input's (its
    frequency, duty and phase) and the run's. Raises the first failure."""
    vdd, f, duties, w, v0 = (stimulus.vdd, stimulus.frequency, stimulus.duties,
                             stimulus.w, stimulus.v0)
    if not math.isfinite(vdd):
        raise ValueError(f"vdd must be finite, got {vdd}")
    if not vdd > 0:
        raise ValueError(f"supply must be > 0, got {vdd}")
    phases = (0.0,) * len(duties) if stimulus.phases is None else stimulus.phases
    if len(phases) != len(duties):
        raise ValueError(f"phases has {len(phases)} entries for {len(duties)} duties")
    for d, p in zip(duties, phases):
        if not f > 0:
            raise ValueError(f"frequency must be > 0, got {f}")
        # 1/inf is 0, and 1/f overflows to inf below about 5.6e-309
        if not 0.0 < 1.0 / f < math.inf:
            raise ValueError(f"frequency must have a finite period > 0, got {f}")
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {d}")
        if not 0.0 <= p < 1.0 / f:
            raise ValueError(f"phase must be in [0, period={1.0 / f}), got {p}")
    if len(duties) != cfg.n:
        raise ValueError(f"config expects {cfg.n} inputs, got {len(duties)}")
    if w.n != cfg.n or w.k != cfg.k:
        raise ValueError(f"weight vector ({w.n} inputs, k={w.k}) does not match "
                         f"config (n={cfg.n}, k={cfg.k})")
    if not math.isfinite(v0):
        raise ValueError(f"v0 must be finite, got {v0}")
    if not 0.0 <= v0 <= vdd:
        raise ValueError(f"v0={v0} outside [0, {vdd}]")
    if cfg.compensation_threshold >= vdd:
        raise ValueError(
            f"compensation threshold {cfg.compensation_threshold} V must stay "
            f"below the supply (min {vdd} V)")
    if all(wi == 0 for wi in w.weights) and cfg.compensation_threshold == 0.0:
        raise FloatingNodeError(
            "all weights are zero and the compensation clamp is off; "
            "the capacitor node floats")


def reference_steady_state(cfg, stimulus):
    """Reference: the periodic steady state of one stimulus, on the 1-D
    timeline of simulate_vac, with the scalar period map and charge-time
    search."""
    reference_check(cfg, stimulus)
    supply = ConstantSupply(stimulus.vdd)
    inputs = inputs_of(stimulus)
    period = 1.0 / stimulus.frequency
    segments = trace_segments(cfg, inputs, stimulus.w, supply, period)
    prefix = transient._prefix(cfg, segments)
    v_aff, c = period_map(cfg, prefix, period, segments[2])
    pss = transient._boundaries(prefix, v_aff if c is None else max(v_aff, c))
    t_free, _ = transient._clamp(cfg, segments, pss)
    t0s, t1s, veq, vdd, up = segments
    v_int, p_int = transient._integrals(cfg, t_free, t1s - t0s, pss[:-1], veq, vdd, up)
    average_v = float(v_int.sum()) / period
    drift = abs(float(pss[-1] - pss[0])) / max(abs(average_v), 1e-30)
    return transient.TraceMetrics(
        average_v=average_v, swing=max(float(pss.max() - pss.min()), 0.0),
        charge_time=reference_charge_time(cfg, segments, prefix, pss, v_aff, c,
                                          average_v, stimulus.v0),
        avg_power=float(p_int.sum()) / period, drift=drift)


def period_map(cfg, prefix, period, veq):
    """The one-period map F(v) = max(A*v + B, C) of a constant supply, as
    (B/(1-A), C); C None when no segment pulls below the threshold (there
    the scan's C is B, which StimulusBatch.solve does not take as a floor
    either)."""
    _, b, c = prefix
    v_aff = float(b[-1]) / -float(np.expm1(-period / cfg.tau))
    return v_aff, float(c[-1]) if (veq < cfg.compensation_threshold).any() else None


def reference_first_crossing(tau, t0, t1, b, veq, level):
    """First time the voltage reaches `level` from b[0] over one timeline;
    None if it never does."""
    reached = (b <= level) if b[0] > level else (b >= level)
    j = int(np.argmax(reached))
    if not reached[j]:
        return None
    if j == 0:
        return float(t0[0])
    i = j - 1
    gap = level - veq[i]
    ratio = (b[i] - veq[i]) / gap if gap else 0.0
    if ratio < 1.0:
        return float(t1[i])
    return float(t0[i] + tau * math.log(ratio))


def period_bounds(monkeypatch):
    """A list that gains (m_hi, period) for each row of each later
    _charge_times call: m_hi is the contraction bound, the last period the
    search looks at, derived as reference_charge_time derives it."""
    bounds, charge_times = [], transient._charge_times

    def spy(cfg, segments, prefix, pss, v_aff, floor, level, v):
        for k in range(len(v)):
            falling = v[k] > level[k]
            delta = float(v[k] - pss[k, 0])
            gap = float(np.max(level[k] - pss[k] if falling else pss[k] - level[k]))
            gap = max(gap, 4.0 * math.ulp(max(abs(float(level[k])), abs(delta))))
            period = float(segments[1][k, -1])
            bounds.append((max(0, math.ceil(math.log(abs(delta) / gap) * cfg.tau / period))
                           if delta else 0, period))
        return charge_times(cfg, segments, prefix, pss, v_aff, floor, level, v)
    monkeypatch.setattr(transient, "_charge_times", spy)
    return bounds


def reference_charge_time(cfg, segments, prefix, pss, v_aff, c, level, v0):
    """First crossing of `level` from v0, the first period that reaches it
    searched in batches of 64 evenly spaced periods."""
    v = max(float(v0), cfg.compensation_threshold)
    if v == level:
        return 0.0
    tau = cfg.tau
    t0s, t1s, veq = segments[:3]
    period = float(t1s[-1])
    falling = v > level
    delta = v - float(pss[0])
    gap = float(np.max((level - pss) if falling else (pss - level)))
    gap = max(gap, 4.0 * math.ulp(max(abs(level), abs(delta))))
    m_hi = max(0, math.ceil(math.log(abs(delta) / gap) * tau / period)) if delta else 0
    rate = -period / tau

    def starts(ms):
        s = v_aff + (v - v_aff) * np.exp(ms * rate)
        if c is not None:
            prev = v_aff + (c - v_aff) * np.exp(np.maximum(ms - 1, 0) * rate)
            np.maximum(s, np.maximum(prev, c), out=s)
        if ms[0] == 0:
            s[0] = v
        return s

    lo, hi = -1, m_hi
    while True:
        step = -(-(hi - lo) // 64)
        ms = np.arange(hi - (hi - lo - 1) // step * step, hi + 1, step)
        rows = transient._boundaries(prefix, starts(ms))
        reached = (rows.min(axis=1) <= level) if falling else (rows.max(axis=1) >= level)
        if not reached[-1]:
            return None
        i = int(np.argmax(reached))
        hi, row = int(ms[i]), rows[i]
        if i:
            lo = int(ms[i - 1])
        if step == 1:
            break
    if (row[0] <= level) if falling else (row[0] >= level):
        return hi * period
    return hi * period + reference_first_crossing(tau, t0s, t1s, row, veq, level)
