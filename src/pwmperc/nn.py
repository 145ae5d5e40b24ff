"""Multi-layer network built on the duty-cycle MAC, with floating-point and
integer-weight training.

The MAC of one layer is pre = (W @ x) / (n_in * max_weight) in integer mode
(the hardware normalization), or plain W @ x in FP mode where the normalizer
is folded into the init scale. Four activations: ReLU, the [0,1]-capped ReLU,
the capped ReLU with the 13.44% hardware offset, and the cubic stage map of
the PWM perceptron itself.

Integer training follows the hardware recipe: the floating-point update for
the normalized weight is rescaled by the normalizer, rounded to an integer
delta, applied, and clamped to +-max_weight. Rounding makes small updates
vanish (round(delta_fp * normalizer) == 0), which is why small initial
weights matter.

No bias terms anywhere: the accumulator bank has no bias path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .converter import ConverterModel, stage_map, stage_map_deriv

__all__ = [
    "ActivationKind",
    "NetworkConfig",
    "Layer",
    "Network",
    "TrainReport",
    "TrainingDivergedError",
    "activation",
    "activation_deriv",
    "integer_weight_delta",
    "train",
    "evaluate",
]

_STAGE = ConverterModel.compensated()


class ActivationKind(Enum):
    RELU = "relu"
    CAP_RELU = "cap_relu"
    OFT_RELU = "oft_relu"
    PWM_PERCEPT = "pwm_percept"


OFT_OFFSET = _STAGE.coefficients[3] / 100.0  # 0.1344, the hardware output floor
OFT_CAP_X = 1.0 - OFT_OFFSET                 # 0.8656, where x + offset reaches 1


def activation(kind: ActivationKind, x):
    """Apply an activation elementwise. Scalars in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    if kind is ActivationKind.RELU:
        y = np.maximum(arr, 0.0)
    elif kind is ActivationKind.CAP_RELU:
        y = np.clip(arr, 0.0, 1.0)
    elif kind is ActivationKind.OFT_RELU:
        y = np.where(arr < 0.0, 0.0, np.minimum(arr + OFT_OFFSET, 1.0))
    elif kind is ActivationKind.PWM_PERCEPT:
        y = np.where(arr < 0.0, 0.0, stage_map(np.clip(arr, 0.0, 1.0), _STAGE))
    else:
        raise ValueError(f"unknown activation {kind}")
    return float(y) if np.isscalar(x) else y


def activation_deriv(kind: ActivationKind, x):
    """Analytic derivative; right-hand value at breakpoints, 0 in clamps."""
    arr = np.asarray(x, dtype=np.float64)
    if kind is ActivationKind.RELU:
        y = (arr >= 0.0).astype(np.float64)
    elif kind is ActivationKind.CAP_RELU:
        y = ((arr >= 0.0) & (arr < 1.0)).astype(np.float64)
    elif kind is ActivationKind.OFT_RELU:
        y = ((arr >= 0.0) & (arr < OFT_CAP_X)).astype(np.float64)
    elif kind is ActivationKind.PWM_PERCEPT:
        y = np.where(arr < 0.0, 0.0, stage_map_deriv(arr, _STAGE))
    else:
        raise ValueError(f"unknown activation {kind}")
    return float(y) if np.isscalar(x) else y


@dataclass(frozen=True)
class NetworkConfig:
    layer_sizes: tuple[int, ...]        # e.g. (784, 300, 10)
    activation: ActivationKind
    learning_rate: float
    epochs: int = 30
    batch: int = 32
    seed: int = 0
    mode: str = "fp"                    # "fp" | "integer"
    max_weight: int | None = None       # integer mode bound (e.g. 63 -> k=6)
    initial_weight: float | None = None  # integer magnitude, or FP init scale

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.mode not in ("fp", "integer"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "integer":
            if self.max_weight is None or self.max_weight < 1:
                raise ValueError("integer mode needs max_weight >= 1")

    def topology(self) -> str:
        return "/".join(str(s) for s in self.layer_sizes)


@dataclass
class Layer:
    """One weight matrix (rows = outputs) plus its MAC normalizer.

    Integer mode stores integral values in a float64 array (exact far below
    2^53); the |w| <= max_weight bound is asserted after every update.
    """

    weights: np.ndarray
    normalizer: float          # n_in * max_weight in integer mode, 1.0 in FP

    def pre_activation(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.weights.T) / self.normalizer


class Network:
    def __init__(self, layers: list[Layer], cfg: NetworkConfig):
        self.layers = layers
        self.cfg = cfg

    @classmethod
    def from_config(cls, cfg: NetworkConfig) -> "Network":
        rng = np.random.default_rng(cfg.seed)
        layers = []
        for n_in, n_out in zip(cfg.layer_sizes, cfg.layer_sizes[1:]):
            if cfg.mode == "integer":
                init = int(cfg.initial_weight if cfg.initial_weight is not None else 1)
                w = rng.integers(-init, init + 1, size=(n_out, n_in)).astype(np.float64)
                norm = float(n_in * cfg.max_weight)
            else:
                scale = (cfg.initial_weight if cfg.initial_weight is not None
                         else 1.0 / math.sqrt(n_in))
                w = rng.uniform(-scale, scale, size=(n_out, n_in))
                norm = 1.0
            layers.append(Layer(weights=w, normalizer=norm))
        return cls(layers, cfg)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores for one input vector or a (batch, n_in) matrix."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            a = activation(self.cfg.activation, layer.pre_activation(a))
        return a[0] if np.asarray(x).ndim == 1 else a

    def forward_trace(self, x: np.ndarray):
        """Forward pass keeping pre-activations, for backprop."""
        a = np.asarray(x, dtype=np.float64)
        acts = [a]
        pres = []
        for layer in self.layers:
            z = layer.pre_activation(a)
            pres.append(z)
            a = activation(self.cfg.activation, z)
            acts.append(a)
        return pres, acts

    def predict(self, x: np.ndarray) -> np.ndarray:
        """argmax class ids; numpy argmax breaks ties by lowest index."""
        scores = self.forward(np.atleast_2d(x))
        return np.argmax(scores, axis=1)

    def assert_weight_bounds(self):
        if self.cfg.mode != "integer":
            return
        for i, layer in enumerate(self.layers):
            top = float(np.max(np.abs(layer.weights)))
            if top > self.cfg.max_weight:
                raise AssertionError(
                    f"layer {i} weight magnitude {top} exceeds {self.cfg.max_weight}")

    def weight_stats(self):
        stats = []
        for layer in self.layers:
            hist, edges = np.histogram(layer.weights, bins=16)
            stats.append({
                "min": float(layer.weights.min()),
                "max": float(layer.weights.max()),
                "histogram": hist.tolist(),
                "bin_edges": [float(e) for e in edges],
            })
        return stats


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainReport:
    test_error: float
    train_error: float
    per_epoch: list[tuple[int, float, float]]  # (epoch, train_error, test_error)
    weight_stats: list[dict]
    config: NetworkConfig

    def csv_row(self) -> dict:
        return {
            "topology": self.config.topology(),
            "activation": self.config.activation.value,
            "mode": self.config.mode,
            "learning_rate": self.config.learning_rate,
            "initial_weight": self.config.initial_weight,
            "max_weight": self.config.max_weight,
            "epochs": self.config.epochs,
            "batch": self.config.batch,
            "seed": self.config.seed,
            "train_error": self.train_error,
            "test_error": self.test_error,
        }


def loss_and_grads(net: Network, x: np.ndarray, targets: np.ndarray):
    """Mean-squared error against one-hot targets and gradients w.r.t. the
    normalized weights of every layer.

    Loss = mean over batch and output classes of (out - target)^2.
    """
    pres, acts = net.forward_trace(x)
    out = acts[-1]
    batch, n_cls = out.shape
    loss = float(np.mean((out - targets) ** 2))
    delta = 2.0 * (out - targets) / (batch * n_cls)
    delta = delta * activation_deriv(net.cfg.activation, pres[-1])
    grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        grads[li] = delta.T @ acts[li]
        if li > 0:
            back = delta @ (net.layers[li].weights / net.layers[li].normalizer)
            delta = back * activation_deriv(net.cfg.activation, pres[li - 1])
    return loss, grads


def integer_weight_delta(delta_fp: np.ndarray, normalizer: float) -> np.ndarray:
    """Scale a floating-point update back to integer steps: round(d * norm).

    Updates smaller than 0.5/normalizer starve to zero - the reason integer
    training starts from small weights.
    """
    return np.round(np.asarray(delta_fp) * normalizer)


def evaluate(net: Network, dataset) -> float:
    """Error percent on a dataset (anything with .images and .labels).

    Argmax decision over the class-score vector; ties go to the lowest class
    index (numpy argmax semantics).
    """
    images = np.asarray(dataset.images)
    labels = np.asarray(dataset.labels)
    if len(images) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    wrong = 0
    for start in range(0, len(images), 8192):
        pred = net.predict(images[start:start + 8192])
        wrong += int(np.sum(pred != labels[start:start + 8192]))
    return 100.0 * wrong / len(images)


def train(net: Network, train_ds, test_ds,
          cfg: NetworkConfig | None = None) -> TrainReport:
    """Mini-batch gradient descent; deterministic given cfg.seed.

    FP mode applies the raw update; integer mode rounds the rescaled update
    and clamps to +-max_weight (asserted every step). Divergence (non-finite
    loss) aborts with a diagnostic.
    """
    cfg = cfg or net.cfg
    train_images = np.asarray(train_ds.images)
    train_labels = np.asarray(train_ds.labels)
    n_cls = cfg.layer_sizes[-1]
    t_train = np.eye(n_cls)[train_labels]
    rng = np.random.default_rng(cfg.seed + 1)  # shuffling stream

    n = len(train_images)
    per_epoch = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            sel = order[start:start + cfg.batch]
            loss, grads = loss_and_grads(net, train_images[sel], t_train[sel])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {start // cfg.batch}: {loss}")
            for layer, grad in zip(net.layers, grads):
                delta_fp = -cfg.learning_rate * grad
                if cfg.mode == "integer":
                    layer.weights += integer_weight_delta(delta_fp, layer.normalizer)
                    np.clip(layer.weights, -cfg.max_weight, cfg.max_weight,
                            out=layer.weights)
                else:
                    layer.weights += delta_fp
            net.assert_weight_bounds()
        tr_err = evaluate(net, train_ds)
        te_err = evaluate(net, test_ds)
        per_epoch.append((epoch + 1, tr_err, te_err))

    if per_epoch:
        final_train, final_test = per_epoch[-1][1], per_epoch[-1][2]
    else:
        final_train, final_test = evaluate(net, train_ds), evaluate(net, test_ds)
    return TrainReport(
        test_error=final_test,
        train_error=final_train,
        per_epoch=per_epoch,
        weight_stats=net.weight_stats(),
        config=cfg,
    )
