import numpy as np
import pytest

from pwmperc.analytic import WeightVector
from pwmperc.converter import (ConverterModel, is_no_oscillation,
                               stage_map)
from pwmperc.nn import ActivationKind, Layer, Network, NetworkConfig
from pwmperc.perceptron import (PerceptronConfig, chain_eval,
                                dynamic_duty_trace, perceptron_eval,
                                response_curve)
from pwmperc.signals import ConstantSupply, SinusoidSupply
from pwmperc.transient import VacConfig

W777 = WeightVector((7, 7, 7), 3)
BEHAVIORAL = PerceptronConfig.behavioral()
STABLE_FP = 0.2503353458551807


class TestPerceptronEval:
    def test_mid_duty_compensated(self):
        out = perceptron_eval(BEHAVIORAL, [0.5, 0.5, 0.5], W777, 2.5)
        assert out == pytest.approx(0.3999625, abs=1e-12)

    def test_high_duty_raw_stalls(self):
        # duties 0.8 -> v_cap = 0.5 V < 0.7 V linear-region floor
        cfg = PerceptronConfig.behavioral(converter=ConverterModel.raw())
        out = perceptron_eval(cfg, [0.8, 0.8, 0.8], W777, 2.5)
        assert is_no_oscillation(out)

    def test_zero_duties_give_offset_floor(self):
        for w in (W777, WeightVector((1, 2, 4), 3)):
            out = perceptron_eval(BEHAVIORAL, [0.0, 0.0, 0.0], w, 2.5)
            assert out == pytest.approx(0.1344, abs=1e-12)

    def test_compensated_never_stalls(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            duties = rng.uniform(0, 1, 3).tolist()
            out = perceptron_eval(BEHAVIORAL, duties, W777, 2.5)
            assert not is_no_oscillation(out)
            assert 0.0 <= out <= 0.98

    def test_supply_invariance_behavioral(self):
        # algebraically the vdd factor cancels; floats round-trip through the
        # volts domain, so equality holds to the last couple of ulps
        rng = np.random.default_rng(18)
        for _ in range(20):
            duties = rng.uniform(0, 1, 3).tolist()
            outs = [perceptron_eval(BEHAVIORAL, duties, W777, vdd)
                    for vdd in (1.0, 2.5, 3.3)]
            assert max(outs) - min(outs) <= 1e-12

    def test_monotone_in_each_duty(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            duties = rng.uniform(0, 0.9, 3).tolist()
            base = perceptron_eval(BEHAVIORAL, duties, W777, 2.5)
            i = int(rng.integers(0, 3))
            bumped = list(duties)
            bumped[i] += float(rng.uniform(0, 0.1))
            assert perceptron_eval(BEHAVIORAL, bumped, W777, 2.5) >= base - 1e-12

    def test_transient_path_agrees_with_behavioral(self):
        trans = PerceptronConfig(vac=VacConfig.small(), path="transient",
                                 converter=ConverterModel.compensated(),
                                 frequency=100e6)
        for duties in ([0.5] * 3, [0.2, 0.6, 0.8], [0.9] * 3):
            b = perceptron_eval(BEHAVIORAL, duties, W777, 2.5)
            t = perceptron_eval(trans, duties, W777, 2.5)
            # ripple bound: swing/2 at 100 MHz is ~0.066 V -> ~0.026 duty
            assert t == pytest.approx(b, abs=0.066 / 2 / 2.5 + 0.01)

    def test_array_duties_equal_scalar_calls(self):
        rng = np.random.default_rng(20)
        duties = rng.uniform(0, 1, (3, 50))
        for cfg in (BEHAVIORAL,
                    PerceptronConfig.behavioral(converter=ConverterModel.raw())):
            got = perceptron_eval(cfg, list(duties), W777, 2.5)
            want = [perceptron_eval(cfg, duties[:, j].tolist(), W777, 2.5)
                    for j in range(duties.shape[1])]
            np.testing.assert_array_equal(got, want)

    def test_transient_path_takes_arrays(self):
        trans = PerceptronConfig(vac=VacConfig.small(), path="transient",
                                 converter=ConverterModel.compensated())
        xs = np.array([0.2, 0.6])
        got = perceptron_eval(trans, [xs] * 3, W777, 2.5)
        want = [perceptron_eval(trans, [float(x)] * 3, W777, 2.5) for x in xs]
        assert isinstance(want[0], float)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("n", [3, 9])
def test_network_computes_the_circuit(n, k):
    """A one-layer integer-mode pwm_percept network is the behavioral
    perceptron: its MAC is the VAC's weighted sum, its activation the stage."""
    top = 2 ** k - 1
    rng = np.random.default_rng(100 * n + k)
    weights = rng.integers(0, top + 1, size=(4, n)).astype(np.float64)
    cfg = NetworkConfig(layer_sizes=(n, 4), activation=ActivationKind.PWM_PERCEPT,
                        learning_rate=0.01, mode="integer", max_weight=top)
    net = Network([Layer(weights=weights, normalizer=float(n * top))], cfg)
    pcfg = PerceptronConfig.behavioral(n=n, k=k)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, (64, n))
        scores = net.forward(x)
        for row, w in enumerate(weights):
            circuit = perceptron_eval(pcfg, list(x.T),
                                      WeightVector(tuple(w), k), 2.5)
            np.testing.assert_allclose(scores[:, row], circuit, rtol=0, atol=1e-12)


class TestChain:
    def test_depth_one_is_stage_map(self):
        assert chain_eval(BEHAVIORAL, 1, 0.5) == pytest.approx(0.3999625, abs=1e-12)

    def test_depth_three_contracts_toward_stable_point(self):
        d1 = chain_eval(BEHAVIORAL, 1, 0.3)
        d3 = chain_eval(BEHAVIORAL, 3, 0.3)
        assert abs(d3 - STABLE_FP) < abs(d1 - STABLE_FP)

    def test_depth_three_amplifies_above_unstable_point(self):
        stage_outs = [chain_eval(BEHAVIORAL, d, 0.9) for d in (1, 2, 3)]
        assert stage_outs[0] >= 0.90
        assert all(b >= a - 1e-12 for a, b in zip(stage_outs, stage_outs[1:]))
        assert stage_outs[2] >= 0.90

    def test_depth_two_equals_composition(self):
        for x in np.linspace(0, 1, 21):
            expect = stage_map(stage_map(float(x)))
            assert chain_eval(BEHAVIORAL, 2, float(x)) == pytest.approx(
                expect, abs=1e-12)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            chain_eval(BEHAVIORAL, 0, 0.5)


class TestResponseCurve:
    def test_deviation_grows_with_depth(self):
        grid = np.linspace(0, 1, 21).tolist()
        dev1 = response_curve(BEHAVIORAL, grid, 1).deviation
        dev3 = response_curve(BEHAVIORAL, grid, 3).deviation
        assert dev3 > dev1

    def test_identity_converter_zero_deviation(self):
        cfg = PerceptronConfig.behavioral(converter=ConverterModel.identity())
        grid = np.linspace(0, 1, 21).tolist()
        for depth in (1, 2, 3):
            assert response_curve(cfg, grid, depth).deviation == pytest.approx(
                0.0, abs=1e-12)

    def test_rows_align_with_grid(self):
        grid = [0.0, 0.5, 1.0]
        curve = response_curve(BEHAVIORAL, grid, 1)
        xs = [x for x, _ in curve.rows()]
        assert xs == grid


class TestDynamicSupply:
    def test_raw_converter_excursions_near_threshold_fraction(self):
        # weights 2: equilibrium ratio 6/21 from the top -> v/vdd ~ 0.857,
        # close to the 0.92 stall edge; the RC lag pushes it over when the
        # supply dips. weights 7 sit at 0.5 and stay clean.
        cfg = PerceptronConfig(
            vac=VacConfig(n=3, k=3, r_unit=100e3, c_out=100e-12),
            converter=ConverterModel.raw(), frequency=100e6)
        supply = SinusoidSupply(2.5, 0.7, 10e-6)
        w_b = WeightVector((2, 2, 2), 3)
        _, duty_a = dynamic_duty_trace(cfg, [0.5] * 3, W777, supply, 40e-6)
        _, duty_b = dynamic_duty_trace(cfg, [0.5] * 3, w_b, supply, 40e-6)
        # settled half only
        a = duty_a[len(duty_a) // 2:]
        b = duty_b[len(duty_b) // 2:]
        assert not np.isnan(a).any()          # region A keeps oscillating
        assert np.isnan(b).any()              # region B drops out at the dips
        assert (np.nanmax(a) - np.nanmin(a)) < 0.2

    def test_constant_supply_no_excursion(self):
        cfg = PerceptronConfig(
            vac=VacConfig(n=3, k=3, r_unit=100e3, c_out=100e-12),
            converter=ConverterModel.raw(), frequency=100e6)
        _, duty = dynamic_duty_trace(cfg, [0.5] * 3, W777, ConstantSupply(2.5),
                                     40e-6)
        settled = duty[len(duty) // 2:]
        assert not np.isnan(settled).any()
        assert np.nanmax(settled) - np.nanmin(settled) < 0.05
