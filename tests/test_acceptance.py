"""Acceptance criteria, one test (or a few sub-tests) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion clause. Clauses that are unattainable as stated (documented spec or
source-table defects: the row-6 table value, the 0.847 fixed-point pin, and
the MNIST error bands) are implemented faithfully at their stated tolerances
and marked xfail with the measured value in the reason, never loosened.

Set PWMPERC_ACCEPT_SUBSAMPLE=1 to run the MNIST criteria on a seeded
10000-image training subsample with bands relaxed by +3 points and the
3-minute runtime bound (criterion 9's quick mode).
"""

import os
import time

import numpy as np
import pytest

from pwmperc import cli, mnist, nn
from pwmperc.analytic import WeightVector, vac_equilibrium
from pwmperc.converter import ConverterModel, find_fixed_points, fit_cubic, stage_map
from pwmperc.nn import ActivationKind, Network, NetworkConfig
from pwmperc.perceptron import PerceptronConfig, perceptron_eval, response_curve
from pwmperc.transient import VacConfig, VacStimulus, steady_state, sweep

SUBSAMPLE_MODE = os.environ.get("PWMPERC_ACCEPT_SUBSAMPLE", "") not in ("", "0")
BAND_RELAX = 3.0 if SUBSAMPLE_MODE else 0.0

W777 = WeightVector((7, 7, 7), 3)

PAPER_TABLE = [
    # duties, weights, theoretical volts as printed in the source table
    ([0.70, 0.80, 0.90], (7, 7, 7), 0.50),
    ([0.50, 0.50, 0.50], (1, 2, 4), 2.08),
    ([0.20, 0.60, 0.80], (5, 6, 7), 1.29),
    ([0.95, 0.90, 0.80], (7, 6, 6), 0.50),
    ([0.30, 0.40, 0.50], (1, 4, 2), 2.16),
    ([0.80, 0.20, 0.50], (7, 3, 4), 1.54),
]


def _line(tag: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}", flush=True)
    return ok


def _simulate_table_row(duties, weights, vdd=2.5, freq=100e6):
    stim = VacStimulus(tuple(duties), freq, WeightVector(weights, 3), vdd=vdd)
    return steady_state(VacConfig.small(), stim).average_v


# --------------------------------------------------------------------------
# 1. VAC table reproduction
# --------------------------------------------------------------------------

def test_criterion_01_vac_table():
    start = time.monotonic()
    analytic_ok = True
    transient_ok = True
    for i, (duties, weights, v_paper) in enumerate(PAPER_TABLE):
        w = WeightVector(weights, 3)
        v_theory = vac_equilibrium(duties, w, 2.5)
        if i != 5:  # row 6 checked separately (source-table defect)
            analytic_ok &= abs(v_theory - v_paper) <= 0.01
        v_sim = _simulate_table_row(duties, weights)
        transient_ok &= abs(v_sim - v_theory) / v_theory <= 0.10
    elapsed = time.monotonic() - start
    ok = analytic_ok and transient_ok and elapsed < 10.0
    assert _line("criterion 1", ok,
                 f"rows 1-5 analytic +-0.01 V: {analytic_ok}; "
                 f"transient within 10%: {transient_ok}; runtime {elapsed:.1f}s")


def test_criterion_01_row6_paper_value():
    """Row 6 of the source table against its own printed 1.54 V."""
    duties, weights, v_paper = PAPER_TABLE[5]
    v_theory = vac_equilibrium(duties, WeightVector(weights, 3), 2.5)
    diff = abs(v_theory - v_paper)
    _line("criterion 1 (row 6)", diff <= 0.01,
          f"analytic {v_theory:.4f} V vs printed {v_paper} V, diff {diff:.4f}")
    if diff > 0.01:
        pytest.xfail(
            f"source-table defect: the printed 1.54 V contradicts its own "
            f"formula, (0.8*7+0.2*3+0.5*4)/21 gives {v_theory:.4f} V "
            f"(diff {diff:.4f} V > 0.01 V); see decisions ledger")
    assert diff <= 0.01


# --------------------------------------------------------------------------
# 2. Power elasticity
# --------------------------------------------------------------------------

def test_criterion_02_power_elasticity():
    vdd_grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    cfg = VacConfig.small()
    behavioral_ok = True
    transient_ok = True
    for duty in (0.1, 0.5, 0.9):
        ratios_b = [vac_equilibrium([duty] * 3, W777, v) / v for v in vdd_grid]
        behavioral_ok &= (max(ratios_b) - min(ratios_b)) <= 1e-9
        stim = VacStimulus(duties=(duty,) * 3, frequency=100e6, w=W777)
        pts = sweep(cfg, stim, "vdd", vdd_grid)
        ratios_t = [p.ratio for p in pts]
        mean = sum(ratios_t) / len(ratios_t)
        transient_ok &= all(abs(r - mean) <= 0.01 * mean for r in ratios_t)
    ok = behavioral_ok and transient_ok
    assert _line("criterion 2", ok,
                 f"behavioral ratio constant to 1e-9: {behavioral_ok}; "
                 f"transient ratio +-1%: {transient_ok}")


# --------------------------------------------------------------------------
# 3. Frequency elasticity
# --------------------------------------------------------------------------

def test_criterion_03_frequency_elasticity():
    grid = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9]
    average_ok = True
    for preset in (VacConfig.small(), VacConfig.large()):
        stim = VacStimulus(duties=(0.5,) * 3, frequency=100e6, w=W777)
        pts = sweep(preset, stim, "frequency", grid)
        for p in pts:
            average_ok &= abs(p.metrics.average_v - 1.25) <= 0.02 * 1.25
    large = VacConfig.large()
    stim = VacStimulus(duties=(0.5,) * 3, frequency=100e6, w=W777)
    swings = {f: sweep(large, stim, "frequency", [f])[0].metrics.swing
              for f in (1e5, 1e6)}
    crossing_ok = swings[1e5] > 0.2 >= swings[1e6]
    ok = average_ok and crossing_ok
    assert _line("criterion 3", ok,
                 f"average 1.25 V +-2% over 1 kHz-1 GHz both presets: {average_ok}; "
                 f"large-preset swing crosses 0.2 V in (100 kHz, 1 MHz): "
                 f"{crossing_ok} (swing@100kHz {swings[1e5]:.3f} V, "
                 f"@1MHz {swings[1e6]:.3f} V)")


# --------------------------------------------------------------------------
# 4. Charge-time ratio
# --------------------------------------------------------------------------

def test_criterion_04_charge_time():
    start = time.monotonic()

    def charge(cfg, freq):
        stim = VacStimulus((0.5,) * 3, freq, W777, v0=2.5)
        return steady_state(cfg, stim).charge_time

    t_small = charge(VacConfig.small(), 100e6)
    t_large = charge(VacConfig.large(), 1e6)
    ratio = t_large / t_small
    elapsed = time.monotonic() - start
    ok = (abs(t_small - 0.14e-6) <= 0.5 * 0.14e-6
          and abs(t_large - 14.5e-6) <= 0.5 * 14.5e-6
          and abs(ratio - 100.0) <= 10.0
          and elapsed < 30.0)
    assert _line("criterion 4", ok,
                 f"small {t_small * 1e6:.3f} us (target 0.14 +-50%), "
                 f"large {t_large * 1e6:.2f} us (target 14.5 +-50%), "
                 f"ratio {ratio:.1f} (target 100 +-10%), runtime {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Power band
# --------------------------------------------------------------------------

def test_criterion_05_power_band():
    powers = {}
    for name, cfg in (("small", VacConfig.small()), ("large", VacConfig.large())):
        freq = 100e6 if name == "small" else 1e6
        stim = VacStimulus((0.5,) * 3, freq, W777)
        powers[name] = steady_state(cfg, stim).avg_power
    in_band = all(14e-6 <= p <= 1080e-6 for p in powers.values())
    ratio = powers["small"] / powers["large"]
    ratio_ok = abs(ratio - 10.0) <= 5.0
    ok = in_band and ratio_ok
    assert _line("criterion 5", ok,
                 f"small {powers['small'] * 1e6:.1f} uW, large "
                 f"{powers['large'] * 1e6:.1f} uW in [14, 1080] uW: {in_band}; "
                 f"ratio {ratio:.2f} ~ 10 +-50%: {ratio_ok}")


# --------------------------------------------------------------------------
# 6. Stage-map analysis
# --------------------------------------------------------------------------

def _oracle_roots(model, grid=1e-5, tol=1e-9):
    xs = np.arange(0.0, 1.0 + grid / 2, grid)
    resid = stage_map(xs, model) - xs
    roots = []
    for i in range(len(xs) - 1):
        if resid[i] == 0.0:
            roots.append(float(xs[i]))
        elif resid[i] * resid[i + 1] < 0:
            a, b = float(xs[i]), float(xs[i + 1])
            while b - a > tol:
                m = 0.5 * (a + b)
                if (stage_map(a, model) - a) * (stage_map(m, model) - m) <= 0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return roots


def test_criterion_06_fixed_points_and_depth():
    model = ConverterModel.compensated()
    scan = find_fixed_points(model)
    oracle = _oracle_roots(model)
    impl = sorted(p.x for p in scan.points)
    oracle_ok = len(impl) == len(oracle) and all(
        abs(a - b) <= 1e-5 for a, b in zip(impl, oracle))

    stable = [p for p in scan.points if p.stability == "stable" and p.x < 0.5]
    stable_ok = len(stable) == 1 and abs(stable[0].x - 0.250) <= 0.005

    grid = np.linspace(0, 1, 21).tolist()
    cfg = PerceptronConfig.behavioral()
    dev1 = response_curve(cfg, grid, 1).deviation
    dev3 = response_curve(cfg, grid, 3).deviation
    depth_ok = dev3 > dev1

    ok = oracle_ok and stable_ok and depth_ok
    assert _line("criterion 6", ok,
                 f"implementation matches dense-grid oracle: {oracle_ok}; "
                 f"stable point {stable[0].x:.4f} in 0.250+-0.005: {stable_ok}; "
                 f"3-stage deviation {dev3:.3f} > 1-stage {dev1:.3f}: {depth_ok}")


def test_criterion_06_unstable_point_pinned_value():
    """The criterion pins the unstable fixed point at 0.847 +- 0.005."""
    scan = find_fixed_points(ConverterModel.compensated())
    unstable = [p for p in scan.points if p.stability == "unstable"]
    assert len(unstable) == 1
    x = unstable[0].x
    oracle = [r for r in _oracle_roots(ConverterModel.compensated())
              if 0.5 < r < 0.95][0]
    diff = abs(x - 0.847)
    _line("criterion 6 (0.847 pin)", diff <= 0.005,
          f"unstable point {x:.6f} (oracle {oracle:.6f}) vs pinned 0.847, "
          f"diff {diff:.4f}")
    if diff > 0.005:
        pytest.xfail(
            f"spec-defect pin: the exact root of the stage cubic minus the "
            f"identity is {oracle:.6f} (implementation {x:.6f}, dense-grid "
            f"oracle agrees); 0.847 +- 0.005 excludes it by "
            f"{diff - 0.005:.4f}; see decisions ledger")
    assert diff <= 0.005


# --------------------------------------------------------------------------
# 7. Fit quality
# --------------------------------------------------------------------------

def test_criterion_07_fit_quality():
    # behavioral single-stage response over the uncapped input range
    cfg = PerceptronConfig.behavioral()
    xs = np.linspace(0.0, 0.9, 21)
    ys = np.array([perceptron_eval(cfg, [float(x)] * 3, W777, 2.5) for x in xs])
    fit_b = fit_cubic(xs, ys)
    expect = tuple(c / 100.0 for c in ConverterModel.compensated().coefficients)
    coeff_ok = all(abs(g - w) <= 1e-6
                   for g, w in zip(fit_b.coefficients, expect))
    r2_b_ok = fit_b.r_squared >= 1.0 - 1e-12

    trans = PerceptronConfig(vac=VacConfig.small(), path="transient",
                             converter=ConverterModel.compensated(),
                             frequency=100e6)
    ys_t = np.array([perceptron_eval(trans, [float(x)] * 3, W777, 2.5)
                     for x in np.linspace(0.0, 0.9, 20)])
    fit_t = fit_cubic(np.linspace(0.0, 0.9, 20), ys_t)
    r2_t_ok = fit_t.r_squared >= 0.97

    ok = coeff_ok and r2_b_ok and r2_t_ok
    assert _line("criterion 7", ok,
                 f"behavioral fit recovers coefficients to 1e-6: {coeff_ok}, "
                 f"r2 = {fit_b.r_squared:.12f}; transient-path fit r2 = "
                 f"{fit_t.r_squared:.5f} >= 0.97: {r2_t_ok}")


# --------------------------------------------------------------------------
# 8. Gradient checks
# --------------------------------------------------------------------------

BREAKPOINTS = {
    ActivationKind.RELU: [0.0],
    ActivationKind.CAP_RELU: [0.0, 1.0],
    ActivationKind.OFT_RELU: [0.0, 0.8656],
    ActivationKind.PWM_PERCEPT: [0.0, 0.9084854306392032, 1.0],
}


def test_criterion_08_gradient_checks():
    h = 1e-6
    worst = 0.0
    for kind in ActivationKind:
        rng = np.random.default_rng(hash(kind.value) % (2 ** 31))
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 5000:
            attempts += 1
            cfg = NetworkConfig(layer_sizes=(2, 3, 2), activation=kind,
                                learning_rate=0.01, seed=int(rng.integers(1e6)))
            net = Network.from_config(cfg)
            for layer in net.layers:
                layer.weights[:] = rng.uniform(-1.0, 1.0, layer.weights.shape)
            x = rng.uniform(0.0, 1.0, (1, 2))
            t = np.zeros((1, 2)); t[0, int(rng.integers(2))] = 1.0
            pres, _ = net.forward_trace(x)
            if any(np.any(np.abs(z - b) < 5e-4)
                   for z in pres for b in BREAKPOINTS[kind]):
                continue
            _, grads = nn.loss_and_grads(net, x, t)
            li = int(rng.integers(len(net.layers)))
            layer = net.layers[li]
            i = int(rng.integers(layer.weights.shape[0]))
            j = int(rng.integers(layer.weights.shape[1]))

            def loss_with(d):
                layer.weights[i, j] += d
                loss, _ = nn.loss_and_grads(net, x, t)
                layer.weights[i, j] -= d
                return loss

            numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
            analytic = grads[li][i, j]
            if abs(numeric) < 1e-12 and abs(analytic) < 1e-12:
                checked += 1
                continue
            rel = abs(analytic - numeric) / max(abs(numeric), abs(analytic))
            worst = max(worst, rel)
            assert rel <= 1e-4, (kind, rel)
            checked += 1
        assert checked == 100, f"could not find 100 smooth points for {kind}"
    assert _line("criterion 8", True,
                 f"4 activations x 100 smooth points, worst relative error "
                 f"{worst:.2e} <= 1e-4")


# --------------------------------------------------------------------------
# 9/10. MNIST (heavy; shared fixture; bands per ledger)
# --------------------------------------------------------------------------

# learning rates are the best of the 0.001-0.1 sweep range under this
# package's loss normalization, screened at 10 epochs (see decisions ledger)
RUN_SPECS = {
    "relu_1": dict(sizes=(784, 10), kind=ActivationKind.RELU, lr=0.05),
    "cap_1": dict(sizes=(784, 10), kind=ActivationKind.CAP_RELU, lr=0.05),
    "pwm_1": dict(sizes=(784, 10), kind=ActivationKind.PWM_PERCEPT, lr=0.1),
    "pwm_2": dict(sizes=(784, 300, 10), kind=ActivationKind.PWM_PERCEPT, lr=0.04),
    "pwm_3": dict(sizes=(784, 300, 100, 10), kind=ActivationKind.PWM_PERCEPT,
                  lr=0.090),
}


@pytest.fixture(scope="module")
def mnist_runs(mnist_dir):
    train_full = mnist.load_mnist(mnist_dir, "train")
    test_ds = mnist.load_mnist(mnist_dir, "test")
    train_ds = (mnist.subsample(train_full, 10000, seed=0)
                if SUBSAMPLE_MODE else train_full)
    reports = {}
    start = time.monotonic()
    for name, spec in RUN_SPECS.items():
        cfg = NetworkConfig(layer_sizes=spec["sizes"], activation=spec["kind"],
                            learning_rate=spec["lr"], epochs=30, batch=32,
                            seed=0, mode="fp")
        net = Network.from_config(cfg)
        reports[name] = nn.train(net, train_ds, test_ds, cfg)
        print(f"  [run] {name}: train {reports[name].train_error:.2f}% "
              f"test {reports[name].test_error:.2f}% "
              f"({time.monotonic() - start:.0f}s cum)", flush=True)
    wall = time.monotonic() - start
    return {"reports": reports, "wall": wall,
            "train_ds": train_ds, "test_ds": test_ds}


def _band_check(tag, report, band):
    band += BAND_RELAX
    err = report.test_error
    ok = err <= band
    _line(tag, ok, f"test error {err:.2f}% (train {report.train_error:.2f}%) "
                   f"vs band <= {band:.0f}%")
    if not ok:
        pytest.xfail(
            f"band unattainable by the specified procedure: measured "
            f"{err:.2f}% test ({report.train_error:.2f}% train) vs <= "
            f"{band:.0f}%; single-weight-matrix decisions are linear "
            f"(floor ~7.5% on this data); see decisions ledger")


def test_criterion_09_relu_band(mnist_runs):
    _band_check("criterion 9 (ReLU 784/10)", mnist_runs["reports"]["relu_1"], 5.0)


def test_criterion_09_cap_band(mnist_runs):
    _band_check("criterion 9 (Cap.ReLU 784/10)", mnist_runs["reports"]["cap_1"], 5.0)


def test_criterion_09_pwm_band(mnist_runs):
    _band_check("criterion 9 (PWM percept 784/10)",
                mnist_runs["reports"]["pwm_1"], 12.0)


def test_criterion_09_depth_trend_leg1(mnist_runs):
    r = mnist_runs["reports"]
    e1, e2 = r["pwm_1"].test_error, r["pwm_2"].test_error
    ok = e1 < e2
    _line("criterion 9 (depth leg 784/10 < 784/300/10)", ok,
          f"{e1:.2f}% vs {e2:.2f}%")
    if not ok:
        pytest.xfail(
            f"trend leg inverted under faithful training: the hidden layer "
            f"helps ({e2:.2f}%) relative to the linear net ({e1:.2f}%) at any "
            f"fair learning rate; see decisions ledger")
    assert ok


def test_criterion_09_depth_trend_leg2(mnist_runs):
    r = mnist_runs["reports"]
    e2, e3 = r["pwm_2"].test_error, r["pwm_3"].test_error
    ok = e2 < e3
    assert _line("criterion 9 (depth leg 784/300/10 < 784/300/100/10)", ok,
                 f"{e2:.2f}% vs {e3:.2f}%")


def test_criterion_09_runtime(mnist_runs):
    budget = 180.0 if SUBSAMPLE_MODE else 900.0
    wall = mnist_runs["wall"]
    ok = wall <= budget
    assert _line("criterion 9 (runtime)", ok,
                 f"5 training runs took {wall:.0f}s <= {budget:.0f}s "
                 f"({'subsample' if SUBSAMPLE_MODE else 'full'} mode)")


@pytest.fixture(scope="module")
def integer_run(mnist_runs):
    cfg = NetworkConfig(layer_sizes=(784, 10), activation=ActivationKind.CAP_RELU,
                        learning_rate=0.04, epochs=30, batch=32, seed=0,
                        mode="integer", max_weight=63, initial_weight=3)
    net = Network.from_config(cfg)
    report = nn.train(net, mnist_runs["train_ds"], mnist_runs["test_ds"], cfg)
    return net, report


def test_criterion_10_integer_band(integer_run):
    _, report = integer_run
    band = 12.0 + BAND_RELAX
    err = report.test_error
    ok = err <= band
    _line("criterion 10 (integer Cap.ReLU 784/10, max 63)", ok,
          f"test error {err:.2f}% (train {report.train_error:.2f}%) vs band "
          f"<= {band:.0f}%")
    if not ok:
        pytest.xfail(
            f"band unattainable by the specified integer dynamics: measured "
            f"{err:.2f}%; the forward normalizer caps pre-activations near "
            f"the mean input duty (~0.13) so one-hot targets stay "
            f"unreachable and rounded updates ratchet weights to the rails; "
            f"a quantized FP solution inside the same box scores ~8%, so "
            f"capacity is not the limit; see decisions ledger")
    assert ok


def test_criterion_10_weight_bound_invariant(integer_run):
    net, _ = integer_run
    # train() asserts the bound after every update step; re-check final state
    top = max(float(np.max(np.abs(l.weights))) for l in net.layers)
    integral = all(np.all(l.weights == np.round(l.weights)) for l in net.layers)
    ok = top <= 63 and integral
    assert _line("criterion 10 (weight bound)", ok,
                 f"per-step bound asserted during training; final max |w| = "
                 f"{top:.0f} <= 63, integral: {integral}")


def test_criterion_10_update_starvation():
    delta = nn.integer_weight_delta(np.array([0.0004]), 21.0)
    ok = delta[0] == 0.0
    assert _line("criterion 10 (update starvation)", ok,
                 "round(0.0004 * 21) == 0, small updates vanish")


# --------------------------------------------------------------------------
# 11. Determinism
# --------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    params = {"grid": [1.0, 2.0, 3.0]}
    outs = []
    for jobs, sub in ((1, "a"), (3, "b")):
        spec = cli.ExperimentSpec(kind="sweep-vdd", parameters=dict(params),
                                  output_dir=tmp_path / sub, seed=7, jobs=jobs)
        manifest = cli.run(spec)
        assert manifest["status"] == "ok"
        outs.append((spec.output_dir / "sweep_vdd.csv").read_bytes())
    sweep_ok = outs[0] == outs[1]

    curves = []
    for sub in ("c", "d"):
        spec = cli.ExperimentSpec(kind="response-curve",
                                  parameters={"grid_points": 11},
                                  output_dir=tmp_path / sub, seed=7)
        cli.run(spec)
        curves.append((spec.output_dir / "response_curve.csv").read_bytes())
    rerun_ok = curves[0] == curves[1]

    ok = sweep_ok and rerun_ok
    assert _line("criterion 11", ok,
                 f"--jobs 1 vs 3 byte-identical: {sweep_ok}; "
                 f"re-run byte-identical: {rerun_ok}")
