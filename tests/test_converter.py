import numpy as np
import pytest

from pwmperc.analytic import WeightVector, vac_equilibrium
from pwmperc.converter import (ConverterModel, find_fixed_points, fit_cubic,
                               is_no_oscillation, stage_map, stage_map_deriv,
                               v_to_dc)

MODEL = ConverterModel.compensated()

# oracle values computed by hand from the cubic 107.27x^3 - 53.25x^2 + 52.92x + 13.44
STAGE_AT_HALF = 0.3999625


class TestStageMap:
    def test_zero_input_gives_offset_floor(self):
        assert stage_map(0.0, MODEL) == pytest.approx(0.1344, abs=1e-12)

    def test_midpoint(self):
        assert stage_map(0.5, MODEL) == pytest.approx(STAGE_AT_HALF, abs=1e-12)
        assert stage_map(0.5, MODEL) == pytest.approx(0.4000, abs=5e-4)

    def test_capped_above_entry(self):
        # cubic(0.95) ~ 107.6% > 98%
        assert stage_map(0.95, MODEL) == pytest.approx(0.98, abs=1e-12)

    def test_monotone_nondecreasing_on_fine_grid(self):
        xs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        ys = stage_map(xs, MODEL)
        assert np.all(np.diff(ys) >= -1e-12)

    def test_derivative_positive_below_cap(self):
        xs = np.arange(0.0, 1.0, 1e-3)
        xs = xs[MODEL.cubic_percent(xs) < MODEL.output_cap]
        assert len(xs) > 800
        assert np.all(stage_map_deriv(xs, MODEL) > 0.0)

    def test_derivative_zero_in_cap(self):
        assert stage_map_deriv(0.95, MODEL) == 0.0

    def test_derivative_shapes(self):
        # a list is taken like stage_map takes it; a float or numpy scalar
        # gives a float, an array its own shape
        want = stage_map_deriv(np.array([0.1, 0.5]), MODEL)
        np.testing.assert_array_equal(stage_map_deriv([0.1, 0.5], MODEL), want)
        assert type(stage_map_deriv(0.5, MODEL)) is float
        assert type(stage_map_deriv(np.float64(0.5), MODEL)) is float
        assert stage_map_deriv(np.array(0.5), MODEL).shape == ()
        assert stage_map_deriv(np.full((2, 3), 0.5), MODEL).shape == (2, 3)

    def test_output_range(self):
        xs = np.linspace(0.0, 1.0, 1001)
        ys = stage_map(xs, MODEL)
        assert np.all((ys >= 0.0) & (ys <= 0.98))

    @pytest.mark.parametrize("fn", [stage_map, stage_map_deriv])
    def test_raw_model_rejected(self, fn):
        with pytest.raises(ValueError, match="compensated"):
            fn(0.5, ConverterModel.raw())


@pytest.mark.parametrize("field, kwargs", [
    ("coefficients", {"coefficients": (107.27, float("nan"), 52.92, 13.44)}),
    ("coefficients", {"coefficients": (float("inf"), -53.25, 52.92, 13.44)}),
    ("output_cap", {"output_cap": float("nan")}),
    ("output_cap", {"output_cap": float("inf")}),
], ids=["nan-coefficient", "inf-coefficient", "nan-cap", "inf-cap"])
def test_model_rejects_non_finite(field, kwargs):
    with pytest.raises(ValueError, match=field):
        ConverterModel(**kwargs)


@pytest.mark.parametrize("region", [(0.5, 0.9), (0.1, 0.5), (0.6, 0.9), (0.9, 0.3)])
def test_model_rejects_region_without_midpoint(region):
    with pytest.raises(ValueError, match="linear_region"):
        ConverterModel(mode="raw", linear_region=region)


class TestVToDc:
    def test_compensated_recovers_dc_sum(self):
        assert v_to_dc(1.25, 2.5, MODEL) == pytest.approx(STAGE_AT_HALF, abs=1e-12)

    def test_compensated_equals_stage_of_vac_equilibrium(self):
        # composition with a single full-weight input reproduces the stage map
        rng = np.random.default_rng(5)
        w = WeightVector((7,), 3)
        for duty in rng.uniform(0, 1, 50):
            v = vac_equilibrium([float(duty)], w, 2.5)
            assert v_to_dc(v, 2.5, MODEL) == pytest.approx(
                stage_map(float(duty), MODEL), abs=1e-12)

    def test_raw_below_region_stalls(self):
        assert is_no_oscillation(v_to_dc(0.5, 2.5, ConverterModel.raw()))

    def test_raw_above_region_stalls(self):
        assert is_no_oscillation(v_to_dc(2.4, 2.5, ConverterModel.raw()))

    def test_raw_midpoint_calibration(self):
        assert v_to_dc(1.25, 2.5, ConverterModel.raw()) == pytest.approx(0.5)

    def test_raw_edge_duties(self):
        raw = ConverterModel.raw()
        assert v_to_dc(0.7, 2.5, raw) == pytest.approx(0.9)
        assert v_to_dc(2.3, 2.5, raw) == pytest.approx(0.1)

    def test_raw_monotone_decreasing_in_v(self):
        raw = ConverterModel.raw()
        vs = np.linspace(0.7, 2.3, 100)
        duties = [v_to_dc(float(v), 2.5, raw) for v in vs]
        assert all(b < a for a, b in zip(duties, duties[1:]))

    @pytest.mark.parametrize("model", [MODEL, ConverterModel.raw(),
                                       ConverterModel.identity()],
                             ids=["compensated", "raw", "identity"])
    def test_array_equals_scalar_calls(self, model):
        vs = np.linspace(-0.1, 2.6, 271)
        got = v_to_dc(vs, 2.5, model)
        want = [v_to_dc(float(v), 2.5, model) for v in vs]
        assert all(type(y) is float for y in want)
        np.testing.assert_array_equal(got, want)

    def test_array_supply(self):
        vs = np.array([0.5, 1.25, 2.0])
        vdds = np.array([2.5, 2.5, 2.1])
        got = v_to_dc(vs, vdds, ConverterModel.raw())
        assert is_no_oscillation(got[0]) and is_no_oscillation(got[2])
        assert got[1] == pytest.approx(0.5)
        with pytest.raises(ValueError, match="vdd"):
            v_to_dc(vs, np.array([2.5, 0.0, 2.5]), MODEL)

    def test_no_oscillation_is_distinguishable(self):
        out = v_to_dc(0.1, 2.5, ConverterModel.raw())
        assert is_no_oscillation(out)
        assert not 0.0 <= out <= 1.0          # never a silent duty


class TestFitCubic:
    def test_recovers_exact_cubic(self):
        xs = np.linspace(0.0, 1.0, 50)
        ys = MODEL.cubic_percent(xs) / 100.0
        result = fit_cubic(xs, ys)
        expect = tuple(c / 100.0 for c in MODEL.coefficients)
        for got, want in zip(result.coefficients, expect):
            assert got == pytest.approx(want, abs=1e-6)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_ys_degenerate(self):
        xs = np.linspace(0.0, 1.0, 20)
        result = fit_cubic(xs, np.full(20, 0.5))
        assert result.r_squared == 0.0
        c3, c2, c1, c0 = result.coefficients
        assert abs(c3) < 1e-8 and abs(c2) < 1e-8 and abs(c1) < 1e-8
        assert c0 == pytest.approx(0.5, abs=1e-9)

    def test_too_few_distinct_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_cubic([0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fit_cubic([0.0, 0.0, 0.5, 0.5, 1.0], [0.1, 0.1, 0.2, 0.2, 0.3])

    def test_noisy_fit_r2_below_one(self):
        rng = np.random.default_rng(9)
        xs = np.linspace(0.0, 1.0, 40)
        ys = MODEL.cubic_percent(xs) / 100.0 + rng.normal(0, 0.01, 40)
        result = fit_cubic(xs, ys)
        assert 0.9 < result.r_squared < 1.0


def _bisect_fixed_points_oracle(model, grid=1e-5, tol=1e-9):
    """Independent dense-grid bisection on stage_map(x) - x."""
    xs = np.arange(0.0, 1.0 + grid / 2, grid)
    resid = stage_map(xs, model) - xs
    roots = []
    for i in range(len(xs) - 1):
        if resid[i] == 0.0:
            roots.append(float(xs[i]))
        elif resid[i] * resid[i + 1] < 0:
            a, b = float(xs[i]), float(xs[i + 1])
            f = lambda x: stage_map(x, model) - x
            while b - a > tol:
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return roots


# stage cubics near the paper's: each coefficient scaled by U(0.9, 1.1)
SEEDED_MODELS = [
    ConverterModel(coefficients=tuple(float(c) for c in np.array(MODEL.coefficients) * u))
    for u in np.random.default_rng(21).uniform(0.9, 1.1, (4, 4))]


class TestFixedPoints:
    def test_default_model_roots_match_oracle(self):
        for model in [MODEL] + SEEDED_MODELS:
            got = [p.x for p in find_fixed_points(model).points]
            oracle = _bisect_fixed_points_oracle(model)
            assert len(got) == len(oracle) >= 1
            for g, o in zip(got, oracle):
                assert g == pytest.approx(o, abs=1e-5)
        assert len(find_fixed_points(MODEL).points) == 3

    def test_points_are_exact(self):
        # the last model touches the identity at x = 0.5: a double root
        tangent = ConverterModel(coefficients=(0.0, 100.0, 0.0, 25.0))
        for model in [MODEL] + SEEDED_MODELS + [tangent]:
            xs = [p.x for p in find_fixed_points(model).points]
            assert xs == sorted(set(xs))
            for x in xs:
                assert abs(stage_map(x, model) - x) <= 1e-13
                if model.cubic_percent(x) >= model.output_cap:
                    assert x == model.output_cap / 100.0
        assert find_fixed_points(MODEL).points[-1].x == 0.98
        assert [p.x for p in find_fixed_points(tangent).points] == [0.5, 0.98]

    def test_stable_point_near_quarter(self):
        scan = find_fixed_points(MODEL)
        stable = [p for p in scan.points if p.stability == "stable" and p.x < 0.5]
        assert len(stable) == 1
        assert stable[0].x == pytest.approx(0.2503353, abs=1e-4)

    def test_unstable_point(self):
        scan = find_fixed_points(MODEL)
        unstable = [p for p in scan.points if p.stability == "unstable"]
        assert len(unstable) == 1
        assert unstable[0].x == pytest.approx(0.8411132, abs=1e-4)

    def test_cap_is_a_stable_fixed_point(self):
        scan = find_fixed_points(MODEL)
        caps = [p for p in scan.points if abs(p.x - 0.98) < 1e-6]
        assert caps and caps[0].stability == "stable"

    def test_identity_model_degenerate(self):
        scan = find_fixed_points(ConverterModel.identity())
        assert scan.degenerate
        assert scan.degenerate_interval == (0.0, 1.0)

    def test_raw_model_rejected(self):
        with pytest.raises(ValueError, match="compensated"):
            find_fixed_points(ConverterModel.raw())

    def test_iteration_converges_below_unstable_point(self):
        stable = 0.2503353458551807
        for x0 in (0.0, 0.1, 0.3, 0.5, 0.7, 0.83):
            x = x0
            for _ in range(50):
                x = stage_map(x, MODEL)
            assert abs(x - stable) < 1e-3

    def test_iteration_saturates_above_unstable_point(self):
        for x0 in (0.86, 0.9, 0.99):
            x = x0
            for _ in range(50):
                x = stage_map(x, MODEL)
            assert x == pytest.approx(0.98, abs=1e-12)
