import numpy as np
import pytest

from pwmperc.analytic import WeightVector, vac_equilibrium, weighted_dc_sum


def inverter(duty, vdd):
    """The PWM inverter: one input with every cell enabled."""
    return vac_equilibrium([duty], WeightVector((7,), 3), vdd)


def adder(duties, vdd):
    """The plain adder: every input with every cell enabled."""
    return vac_equilibrium(duties, WeightVector((7,) * len(duties), 3), vdd)


class TestInverter:
    def test_half_duty_gives_half_vdd(self):
        assert inverter(0.5, 2.5) == pytest.approx(1.25)

    def test_constant_low_input(self):
        assert inverter(0.0, 2.5) == 2.5

    def test_constant_high_input(self):
        assert inverter(1.0, 2.5) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="duty"):
            inverter(1.5, 2.5)
        with pytest.raises(ValueError, match="vdd"):
            inverter(0.5, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.2])
    def test_rejects_bad_array_duty_by_index(self, bad):
        duties = np.array([0.2, 0.5, bad, 0.7, bad])
        with pytest.raises(ValueError, match=rf"got {bad} at index 2$"):
            adder([np.full(5, 0.5), duties, np.full(5, 0.5)], 2.5)


class TestAdder:
    def test_three_input_mean(self):
        assert adder([0.7, 0.3, 0.5], 2.5) == pytest.approx(1.25)

    def test_all_zero_duties(self):
        assert adder([0.0, 0.0, 0.0], 2.5) == 2.5

    def test_single_input_equals_inverter(self):
        assert adder([1.0], 3.0) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="weights"):
            adder([], 2.5)


class TestWeightedDcSum:
    def test_max_weights(self):
        w = WeightVector((7, 7, 7), k=3)
        assert weighted_dc_sum([0.7, 0.8, 0.9], w) == pytest.approx(0.8)

    def test_binary_weights(self):
        w = WeightVector((1, 2, 4), k=3)
        assert weighted_dc_sum([0.5, 0.5, 0.5], w) == pytest.approx(1.0 / 6.0)

    def test_zero_duties(self):
        w = WeightVector((3, 5, 7), k=3)
        assert weighted_dc_sum([0.0, 0.0, 0.0], w) == 0.0

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 9))
            w = WeightVector(tuple(rng.integers(0, 2 ** k, n)), k)
            duties = rng.uniform(0, 1, n).tolist()
            assert 0.0 <= weighted_dc_sum(duties, w) <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_dc_sum([0.5, 0.5], WeightVector((1, 2, 3), 3))

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            WeightVector((8,), k=3)
        with pytest.raises(ValueError):
            WeightVector((-1,), k=3)
        with pytest.raises(ValueError, match="weights"):
            WeightVector((), k=3)


class TestVacEquilibrium:
    # theoretical column of the 3x3 weighted-adder reference table
    @pytest.mark.parametrize("duties,weights,expect", [
        ([0.7, 0.8, 0.9], (7, 7, 7), 0.50),
        ([0.5, 0.5, 0.5], (1, 2, 4), 2.0833),
        ([0.2, 0.6, 0.8], (5, 6, 7), 1.2857),
    ])
    def test_reference_rows(self, duties, weights, expect):
        w = WeightVector(weights, k=3)
        assert vac_equilibrium(duties, w, 2.5) == pytest.approx(expect, abs=5e-5)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            w = WeightVector(tuple(rng.integers(0, 2 ** k, n)), k)
            duties = rng.uniform(0, 1, n).tolist()
            base = vac_equilibrium(duties, w, 1.0)
            for vdd in (0.5, 2.5, 3.3, 10.0):
                assert vac_equilibrium(duties, w, vdd) / vdd == pytest.approx(
                    base, abs=1e-14)

    def test_monotone_nonincreasing_in_duty_and_weight(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            k = 4
            weights = list(rng.integers(0, 2 ** k, n))
            duties = rng.uniform(0, 0.9, n).tolist()
            w = WeightVector(tuple(weights), k)
            base = vac_equilibrium(duties, w, 2.5)
            i = int(rng.integers(0, n))
            bumped = list(duties)
            bumped[i] = min(1.0, bumped[i] + float(rng.uniform(0, 0.1)))
            assert vac_equilibrium(bumped, w, 2.5) <= base + 1e-12
            if weights[i] < 2 ** k - 1:
                wb = list(weights)
                wb[i] += 1
                assert vac_equilibrium(duties, WeightVector(tuple(wb), k), 2.5) \
                    <= base + 1e-12

    def test_single_full_weight_input_equals_inverter(self):
        for k in (1, 3, 8):
            w = WeightVector((2 ** k - 1,), k)
            for duty in (0.0, 0.3, 1.0):
                assert vac_equilibrium([duty], w, 2.5) == pytest.approx(
                    2.5 * (1.0 - duty), abs=1e-12)

    def test_all_max_weights_equal_adder(self):
        # the plain n-inverter adder is the all-cells-enabled special case
        rng = np.random.default_rng(13)
        for k in (1, 3, 6):
            duties = rng.uniform(0, 1, 4).tolist()
            w = WeightVector((2 ** k - 1,) * 4, k=k)
            assert vac_equilibrium(duties, w, 2.5) == pytest.approx(
                2.5 * (1.0 - np.mean(duties)), abs=1e-12)

    def test_zero_weight_equals_zero_duty_cell(self):
        # a weight-0 input behaves exactly like a full-weight zero-duty input
        k = 3
        full = 2 ** k - 1
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = rng.uniform(0, 1, 2).tolist()
            a = vac_equilibrium([d[0], d[1]], WeightVector((5, 0), k), 2.5)
            b = vac_equilibrium([d[0], 0.0], WeightVector((5, full), k), 2.5)
            assert a == pytest.approx(b, abs=1e-12)
