import math

import numpy as np
import pytest

from pwmperc import cli, transient
from pwmperc.analytic import WeightVector, vac_equilibrium
from pwmperc.signals import ConstantSupply, PwmSignal, SinusoidSupply
from pwmperc.transient import (FloatingNodeError, VacConfig, VacStimulus,
                               simulate_vac, steady_state, sweep,
                               trace_metrics)

W777 = WeightVector((7, 7, 7), 3)
SUP25 = ConstantSupply(2.5)


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
        m = trace_metrics(trace, cfg, SUP25, cycle_period=1e-8)
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
    def test_sampling_density_does_not_change_solution(self):
        cfg = VacConfig.small()
        sigs = [PwmSignal(1e8, 0.5)] * 3
        a = simulate_vac(cfg, sigs, W777, SUP25, 1e-6, n_uniform_samples=128)
        b = simulate_vac(cfg, sigs, W777, SUP25, 1e-6, n_uniform_samples=1024)
        np.testing.assert_array_equal(a.seg_v1, b.seg_v1)
        for t in np.linspace(0, 1e-6, 17):
            assert a.value_at(float(t)) == b.value_at(float(t))

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
            ratios.append(trace.value_at(float(t)) / supply.value_at(float(t)))
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


class TestSweep:
    def test_vdd_ratio_constant(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        points = sweep(cfg, stim, "vdd", [1.0, 1.5, 2.0, 2.5, 3.0])
        ratios = [p.ratio for p in points]
        assert all(p.error is None for p in points)
        assert max(ratios) - min(ratios) < 0.01 * 0.5

    def test_frequency_sweep_average_stable(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        points = sweep(cfg, stim, "frequency", [1e3, 1e5, 1e7, 1e9])
        for p in points:
            assert p.metrics.average_v == pytest.approx(1.25, rel=0.02)

    def test_failed_point_recorded_not_fatal(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5, 0.5, 0.5), frequency=100e6, w=W777)
        points = sweep(cfg, stim, "vdd", [0.0, 2.5])  # vdd=0 is invalid
        assert points[0].error is not None and points[0].metrics is None
        assert points[1].error is None

    def test_grid_validation(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5,) * 3, frequency=1e8, w=W777)
        with pytest.raises(ValueError):
            sweep(cfg, stim, "vdd", [])
        with pytest.raises(ValueError):
            sweep(cfg, stim, "vdd", [2.0, 1.0])

    def test_parallel_matches_serial(self):
        cfg = VacConfig.small()
        stim = VacStimulus(duties=(0.5,) * 3, frequency=1e8, w=W777)
        grid = [1.0, 2.0, 3.0]
        serial = sweep(cfg, stim, "vdd", grid, jobs=1)
        parallel = sweep(cfg, stim, "vdd", grid, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.metrics.average_v == b.metrics.average_v
            assert a.metrics.avg_power == b.metrics.avg_power


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
    trace = simulate_vac(cfg, stim.signals(), stim.w, supply, n_periods * period,
                         v0=stim.v0)
    return trace_metrics(trace, cfg, supply, cycle_period=period)


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
        segments = transient._segments(cfg, stim.signals(), stim.w, supply, period)
        v_aff, c = transient._period_map(cfg, segments, period)
        v_star = max(v_aff, c)
        # F(v*), one period from v*, by the transient solver
        one = simulate_vac(cfg, stim.signals(), stim.w, supply, period, v0=v_star)
        assert one.seg_clamped.any()
        assert abs(one.seg_v1[-1] - v_star) <= 1e-12
        v_th = cfg.compensation_threshold
        assert one.seg_v0.min() >= v_th and one.seg_v1.min() >= v_th
        # F(v) = max(A*v + B, C) from every start on [v_th, vdd]
        a = math.exp(-period / cfg.tau)
        b = v_aff * -math.expm1(-period / cfg.tau)
        for v in np.random.default_rng(3).uniform(v_th, stim.vdd, 200):
            end = transient._walk(cfg, segments, v).seg_v1[-1]
            assert abs(end - max(a * v + b, c)) <= 1e-12

    def test_clamped_charge_time_skips_affine_periods(self, monkeypatch):
        # about 14,000 periods from v0 to the crossing: the period index is
        # bisected, not walked period by period (which gives 1.4354688127e-5 s)
        walk = transient._walk
        calls = []
        monkeypatch.setattr(transient, "_walk",
                            lambda *args: calls.append(1) or walk(*args))
        cfg = VacConfig.large(compensation_threshold=0.4)
        m = steady_state(cfg, VacStimulus((0.9, 0.8, 0.95), 1e9, W777, v0=2.5))
        assert len(calls) <= 64
        assert m.charge_time == pytest.approx(1.4354688127e-5, rel=1e-10)


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
