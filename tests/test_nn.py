import numpy as np
import pytest

from pwmperc.mnist import Dataset
from pwmperc.nn import (ActivationKind, Network, NetworkConfig,
                        TrainingDivergedError, activation, activation_deriv,
                        evaluate, integer_weight_delta, loss_and_grads, train)

ALL_KINDS = list(ActivationKind)

# breakpoints where each activation is non-smooth; finite differences and the
# gradient checks must stay clear of these
BREAKPOINTS = {
    ActivationKind.RELU: [0.0],
    ActivationKind.CAP_RELU: [0.0, 1.0],
    ActivationKind.OFT_RELU: [0.0, 0.8656],
    ActivationKind.PWM_PERCEPT: [0.0, 0.9084854306392032, 1.0],
}


def make_dataset(images, labels, split="train"):
    return Dataset(images=np.asarray(images, dtype=np.float64),
                   labels=np.asarray(labels, dtype=np.int64), split=split)


class TestActivations:
    def test_relu(self):
        assert activation(ActivationKind.RELU, -0.3) == 0.0
        assert activation(ActivationKind.RELU, 0.7) == 0.7

    def test_cap_relu(self):
        assert activation(ActivationKind.CAP_RELU, 2.0) == 1.0
        assert activation(ActivationKind.CAP_RELU, -1.0) == 0.0
        assert activation(ActivationKind.CAP_RELU, 0.4) == 0.4

    def test_oft_relu(self):
        assert activation(ActivationKind.OFT_RELU, 0.5) == pytest.approx(0.6344)
        assert activation(ActivationKind.OFT_RELU, 0.9) == 1.0
        assert activation(ActivationKind.OFT_RELU, -0.1) == 0.0

    def test_pwm_percept(self):
        assert activation(ActivationKind.PWM_PERCEPT, 0.0) == pytest.approx(0.1344)
        assert activation(ActivationKind.PWM_PERCEPT, 0.5) == pytest.approx(
            0.3999625, abs=1e-12)
        assert activation(ActivationKind.PWM_PERCEPT, -0.2) == 0.0
        # pre-activations beyond 1 clamp into the fitted domain
        assert activation(ActivationKind.PWM_PERCEPT, 1.7) == activation(
            ActivationKind.PWM_PERCEPT, 1.0)

    def test_all_nondecreasing(self):
        xs = np.linspace(-1.5, 2.5, 4001)
        for kind in ALL_KINDS:
            ys = activation(kind, xs)
            assert np.all(np.diff(ys) >= -1e-12), kind

    def test_bounded_kinds_stay_in_unit_interval(self):
        xs = np.linspace(-5, 5, 2001)
        for kind in (ActivationKind.CAP_RELU, ActivationKind.OFT_RELU,
                     ActivationKind.PWM_PERCEPT):
            ys = activation(kind, xs)
            assert ys.min() >= 0.0 and ys.max() <= 1.0

    def test_pwm_floor_for_nonnegative_inputs(self):
        xs = np.linspace(0.0, 2.0, 501)
        ys = activation(ActivationKind.PWM_PERCEPT, xs)
        assert ys.min() >= 0.1344 - 1e-12


class TestActivationDerivs:
    def test_relu_deriv(self):
        assert activation_deriv(ActivationKind.RELU, 1.0) == 1.0
        assert activation_deriv(ActivationKind.RELU, -1.0) == 0.0

    def test_pwm_deriv_at_half(self):
        # d/dx of the cubic at 0.5: (3*107.27*0.25 - 2*53.25*0.5 + 52.92)/100
        assert activation_deriv(ActivationKind.PWM_PERCEPT, 0.5) == pytest.approx(
            0.801225, abs=1e-12)

    def test_clamped_regions_zero(self):
        assert activation_deriv(ActivationKind.CAP_RELU, 1.5) == 0.0
        assert activation_deriv(ActivationKind.OFT_RELU, 0.9) == 0.0
        assert activation_deriv(ActivationKind.PWM_PERCEPT, 0.95) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_central_difference_at_smooth_points(self, kind):
        rng = np.random.default_rng(31)
        h = 1e-6
        checked = 0
        while checked < 100:
            x = float(rng.uniform(-1.2, 1.6))
            if any(abs(x - b) < 1e-3 for b in BREAKPOINTS[kind]):
                continue
            numeric = (activation(kind, x + h) - activation(kind, x - h)) / (2 * h)
            assert abs(activation_deriv(kind, x) - numeric) <= 1e-5
            checked += 1


class TestForward:
    def test_single_layer_pwm_stage(self):
        cfg = NetworkConfig(layer_sizes=(3, 1),
                            activation=ActivationKind.PWM_PERCEPT,
                            learning_rate=0.01, mode="integer", max_weight=7,
                            initial_weight=0)
        net = Network.from_config(cfg)
        net.layers[0].weights[:] = 7.0
        out = net.forward(np.array([0.7, 0.8, 0.9]))
        assert out[0] == pytest.approx(0.766, abs=1e-3)

    def test_zero_weights_relu_all_zero(self):
        cfg = NetworkConfig(layer_sizes=(4, 3, 2), activation=ActivationKind.RELU,
                            learning_rate=0.01, initial_weight=0.0)
        net = Network.from_config(cfg)
        out = net.forward(np.array([0.1, 0.5, 0.9, 1.0]))
        assert np.all(out == 0.0)

    def test_normalizer_cancels_for_full_weight_identity(self):
        for k in (3, 6):
            maxw = 2 ** k - 1
            cfg = NetworkConfig(layer_sizes=(1, 1),
                                activation=ActivationKind.CAP_RELU,
                                learning_rate=0.01, mode="integer",
                                max_weight=maxw, initial_weight=0)
            net = Network.from_config(cfg)
            net.layers[0].weights[:] = maxw
            assert net.forward(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        cfg = NetworkConfig(layer_sizes=(4, 2),
                            activation=ActivationKind.RELU, learning_rate=0.01)
        net = Network.from_config(cfg)
        with pytest.raises(ValueError):
            net.forward(np.ones((2, 3)))


class TestGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_backprop_matches_finite_differences(self, kind):
        # 2-3-2 net, central differences, relative error <= 1e-4 at smooth points
        rng = np.random.default_rng(41)
        h = 1e-6
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 4000:
            attempts += 1
            cfg = NetworkConfig(layer_sizes=(2, 3, 2), activation=kind,
                                learning_rate=0.01, seed=int(rng.integers(1e6)))
            net = Network.from_config(cfg)
            for layer in net.layers:
                layer.weights[:] = rng.uniform(-1.0, 1.0, layer.weights.shape)
            x = rng.uniform(0.0, 1.0, (1, 2))
            t = np.zeros((1, 2))
            t[0, int(rng.integers(2))] = 1.0

            # stay away from activation breakpoints for every pre-activation
            pres, _ = net.forward_trace(x)
            margin = 5e-4
            if any(np.any(np.abs(z - b) < margin)
                   for z in pres for b in BREAKPOINTS[kind]):
                continue

            _, grads = loss_and_grads(net, x, t)
            li = int(rng.integers(len(net.layers)))
            layer = net.layers[li]
            i = int(rng.integers(layer.weights.shape[0]))
            j = int(rng.integers(layer.weights.shape[1]))

            def loss_with(delta):
                layer.weights[i, j] += delta * layer.normalizer
                loss, _ = loss_and_grads(net, x, t)
                layer.weights[i, j] -= delta * layer.normalizer
                return loss

            numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
            analytic = grads[li][i, j]
            if abs(numeric) < 1e-12 and abs(analytic) < 1e-12:
                checked += 1
                continue
            rel = abs(analytic - numeric) / max(abs(numeric), abs(analytic))
            assert rel <= 1e-4, (kind, li, i, j, analytic, numeric)
            checked += 1
        assert checked == 100


class TestIntegerUpdates:
    def test_small_update_starves_to_zero(self):
        # delta_fp 0.0004 against normalizer 21 rounds to nothing
        assert integer_weight_delta(np.array([0.0004]), 21.0)[0] == 0.0

    def test_update_rounds_to_nearest(self):
        assert integer_weight_delta(np.array([0.03]), 21.0)[0] == 1.0
        assert integer_weight_delta(np.array([-0.08]), 21.0)[0] == -2.0

    def test_cap_clamps_at_max_weight(self):
        images = np.array([[1.0, 0.0], [0.0, 1.0]] * 8)
        labels = np.array([0, 1] * 8)
        ds = make_dataset(images, labels)
        cfg = NetworkConfig(layer_sizes=(2, 2), activation=ActivationKind.CAP_RELU,
                            learning_rate=5.0, epochs=3, batch=4, seed=1,
                            mode="integer", max_weight=7, initial_weight=6)
        net = Network.from_config(cfg)
        train(net, ds, ds, cfg)
        top = max(float(np.max(np.abs(l.weights))) for l in net.layers)
        assert top <= 7.0

    def test_manual_clamp_example(self):
        # w = 6, delta_int = +3, max 7 -> 7
        w = np.array([6.0])
        w += integer_weight_delta(np.array([3.0 / 21.0 * 1.0]), 21.0) * 0 + 3.0
        np.clip(w, -7, 7, out=w)
        assert w[0] == 7.0

    def test_weights_stay_integral_and_bounded_throughout(self):
        rng = np.random.default_rng(55)
        images = rng.uniform(0, 1, (64, 6))
        labels = rng.integers(0, 3, 64)
        ds = make_dataset(images, labels)
        cfg = NetworkConfig(layer_sizes=(6, 3), activation=ActivationKind.CAP_RELU,
                            learning_rate=0.05, epochs=5, batch=8, seed=2,
                            mode="integer", max_weight=15, initial_weight=3)
        net = Network.from_config(cfg)
        train(net, ds, ds, cfg)
        w = net.layers[0].weights
        assert np.all(w == np.round(w))
        assert np.max(np.abs(w)) <= 15


class TestTraining:
    def _toy(self, n=128, seed=3):
        # two linearly separable blobs in 4-d duty space
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        images = rng.uniform(0, 0.2, (n, 4))
        images[labels == 1, :2] += 0.7
        images[labels == 0, 2:] += 0.7
        return make_dataset(images, labels)

    def test_fp_training_learns_toy_problem(self):
        ds = self._toy()
        cfg = NetworkConfig(layer_sizes=(4, 2), activation=ActivationKind.CAP_RELU,
                            learning_rate=0.1, epochs=20, batch=8, seed=4)
        net = Network.from_config(cfg)
        report = train(net, ds, ds, cfg)
        assert report.train_error <= 2.0
        assert len(report.per_epoch) == 20

    def test_deterministic_reports(self):
        ds = self._toy()
        cfg = NetworkConfig(layer_sizes=(4, 2), activation=ActivationKind.RELU,
                            learning_rate=0.05, epochs=5, batch=8, seed=9)
        nets, reports = [], []
        for _ in range(2):
            nets.append(Network.from_config(cfg))
            reports.append(train(nets[-1], ds, ds, cfg))
        a, b = reports
        assert a.per_epoch == b.per_epoch
        assert a.test_error == b.test_error
        for la, lb in zip(nets[0].layers, nets[1].layers):
            assert la.weights.tobytes() == lb.weights.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_detected(self):
        # init far beyond float range: the squared error overflows to inf
        ds = self._toy()
        cfg = NetworkConfig(layer_sizes=(4, 2), activation=ActivationKind.RELU,
                            learning_rate=0.01, epochs=3, batch=8, seed=5,
                            initial_weight=1e200)
        net = Network.from_config(cfg)
        with pytest.raises(TrainingDivergedError):
            train(net, ds, ds, cfg)


class TestEvaluate:
    def test_perfect_net_zero_error(self):
        images = np.eye(3)
        labels = np.array([0, 1, 2])
        ds = make_dataset(images, labels)
        cfg = NetworkConfig(layer_sizes=(3, 3), activation=ActivationKind.RELU,
                            learning_rate=0.01, initial_weight=0.0)
        net = Network.from_config(cfg)
        net.layers[0].weights[:] = np.eye(3)
        assert evaluate(net, ds) == 0.0

    def test_constant_output_chance_level(self):
        rng = np.random.default_rng(6)
        n = 5000
        images = rng.uniform(0, 1, (n, 8))
        labels = rng.integers(0, 10, n)
        ds = make_dataset(images, labels)
        cfg = NetworkConfig(layer_sizes=(8, 10), activation=ActivationKind.RELU,
                            learning_rate=0.01, initial_weight=0.0)
        net = Network.from_config(cfg)       # zero weights -> constant output
        err = evaluate(net, ds)
        # ties resolve to class 0, so error ~ fraction of non-zero labels
        chance = 100.0 * float(np.mean(labels != 0))
        assert err == pytest.approx(chance, abs=1e-9)

    def test_empty_dataset_rejected(self):
        cfg = NetworkConfig(layer_sizes=(2, 2), activation=ActivationKind.RELU,
                            learning_rate=0.01)
        net = Network.from_config(cfg)
        ds = make_dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(net, ds)

    def test_argmax_scale_invariance_fp_relu(self):
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (64, 5))
        labels = rng.integers(0, 3, 64)
        ds = make_dataset(images, labels)
        cfg = NetworkConfig(layer_sizes=(5, 4, 3), activation=ActivationKind.RELU,
                            learning_rate=0.01, seed=8)
        net = Network.from_config(cfg)
        before = net.predict(images)
        net.layers[-1].weights *= 3.7
        after = net.predict(images)
        np.testing.assert_array_equal(before, after)


def reference_train(cfg, images, labels):
    """Final weights of one epoch of nn.train, stepped with the formulas of
    the float-dataset code: duties = bytes / 255 up front, separate
    activation and activation_deriv, and the update -lr * grad then +=."""
    net = Network.from_config(cfg)
    duties = images / 255.0
    targets = np.eye(cfg.layer_sizes[-1])[labels]
    order = np.random.default_rng(cfg.seed + 1).permutation(len(images))
    for start in range(0, len(images), cfg.batch):
        sel = order[start:start + cfg.batch]
        x, t = duties[sel], targets[sel]
        pres, acts = [], [x]
        for layer in net.layers:
            pres.append((acts[-1] @ layer.weights.T) / layer.normalizer)
            acts.append(activation(cfg.activation, pres[-1]))
        out = acts[-1]
        delta = 2.0 * (out - t) / out.size
        delta = delta * activation_deriv(cfg.activation, pres[-1])
        grads = [None] * len(net.layers)
        for li in range(len(net.layers) - 1, -1, -1):
            grads[li] = delta.T @ acts[li]
            if li > 0:
                layer = net.layers[li]
                back = delta @ (layer.weights / layer.normalizer)
                delta = back * activation_deriv(cfg.activation, pres[li - 1])
        for layer, grad in zip(net.layers, grads):
            delta_fp = -cfg.learning_rate * grad
            if cfg.mode == "integer":
                layer.weights += np.round(delta_fp * layer.normalizer)
                np.clip(layer.weights, -cfg.max_weight, cfg.max_weight,
                        out=layer.weights)
            else:
                layer.weights += delta_fp
    return [layer.weights for layer in net.layers]


def pixel_dataset(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(images=rng.integers(0, 256, (n, 784), dtype=np.uint8),
                   labels=rng.integers(0, 10, n), split="train")


class TestOracle:
    @pytest.mark.parametrize("cfg", [
        NetworkConfig(layer_sizes=(784, 30, 10), activation=ActivationKind.PWM_PERCEPT,
                      learning_rate=0.2, epochs=1, batch=16, seed=3),
        NetworkConfig(layer_sizes=(784, 10), activation=ActivationKind.CAP_RELU,
                      learning_rate=0.04, epochs=1, batch=16, seed=4,
                      mode="integer", max_weight=63, initial_weight=3),
    ], ids=["pwm_percept-fp", "cap_relu-integer"])
    def test_training_on_pixel_bytes_matches_reference_bit_for_bit(self, cfg):
        ds = pixel_dataset(16 * 300, seed=cfg.seed)
        net = Network.from_config(cfg)
        train(net, ds, ds, cfg)
        expected = reference_train(cfg, ds.images, ds.labels)
        for layer, weights in zip(net.layers, expected):
            assert layer.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_forward_on_bytes_equals_forward_on_duties(self, kind):
        cfg = NetworkConfig(layer_sizes=(784, 30, 10), activation=kind,
                            learning_rate=0.1, seed=6)
        net = Network.from_config(cfg)
        images = pixel_dataset(64, seed=7).images
        assert net.forward(images).tobytes() == net.forward(images / 255.0).tobytes()
        assert net.forward(images[0]).tobytes() == \
            net.forward(images[0] / 255.0).tobytes()
