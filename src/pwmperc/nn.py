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

Inputs are duty cycles. Pixel bytes (uint8, as ``mnist`` loads them) become
byte/255 one batch or evaluation chunk at a time, so a dataset is held at one
byte per pixel.

Beyond the dataset itself, float64 working memory is bounded by a batch or a
chunk. ``evaluate`` streams ``EVAL_CHUNK`` images at a time through one duty
buffer: on a 784/300/10 network its traced peak is 11.2 MiB whether it
evaluates 2,048 or 20,000 images (8,192-image chunks peaked at 88.9 MiB).
``train`` builds each batch's one-hot targets from that batch's labels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analytic import _whole
from .converter import ConverterModel, _like, stage_map, stage_map_and_slope

__all__ = [
    "ActivationKind",
    "NetworkConfig",
    "Layer",
    "Network",
    "TrainReport",
    "TrainingDivergedError",
    "activation",
    "activation_deriv",
    "activation_and_slope",
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
EVAL_CHUNK = 1024                            # images per evaluate step


def activation(kind: ActivationKind, x):
    """Apply an activation elementwise: a float for a Python or numpy scalar,
    otherwise an array of x's shape."""
    arr = np.asarray(x, dtype=np.float64)
    if kind is ActivationKind.RELU:
        y = np.maximum(arr, 0.0)
    elif kind is ActivationKind.CAP_RELU:
        y = np.clip(arr, 0.0, 1.0)
    elif kind is ActivationKind.OFT_RELU:
        y = np.where(arr < 0.0, 0.0, np.minimum(arr + OFT_OFFSET, 1.0))
    elif kind is ActivationKind.PWM_PERCEPT:
        # no clip, as activation_and_slope explains; the capped map is finite
        # and not negative, so the mask zeroes it as np.where would
        y = stage_map(arr, _STAGE)
        y *= arr >= 0.0
    else:
        raise ValueError(f"unknown activation {kind}")
    return _like(x, y)


def activation_deriv(kind: ActivationKind, x):
    """Analytic derivative; right-hand value at breakpoints, 0 in clamps."""
    return _like(x, activation_and_slope(kind, np.asarray(x, dtype=np.float64))[1])


def activation_and_slope(kind: ActivationKind, x: np.ndarray):
    """``(activation(kind, x), activation_deriv(kind, x))`` for an array, bit
    for bit; the stage cubic is evaluated once, on x as it is. That needs no
    clip: the cubic rises beyond 1 from cubic(1) = 120.38 > cap 98, so there
    the map is the cap and the slope is 0 either way."""
    if kind is ActivationKind.PWM_PERCEPT:
        y, slope = stage_map_and_slope(x, _STAGE)
        below = x < 0.0
        return np.where(below, 0.0, y), np.where(below, 0.0, slope)
    y = activation(kind, x)  # raises for an unknown kind
    if kind is ActivationKind.RELU:
        slope = x >= 0.0
    elif kind is ActivationKind.CAP_RELU:
        slope = (x >= 0.0) & (x < 1.0)
    else:
        slope = (x >= 0.0) & (x < OFT_CAP_X)
    return y, np.asarray(slope, dtype=np.float64)


def _duties(x, out: np.ndarray | None = None) -> np.ndarray:
    """Network input as float64 duty cycles: pixel bytes become byte/255,
    written into ``out`` when it is given; anything else is taken as duties
    already."""
    x = np.asarray(x)
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, out=out)
    return np.asarray(x, dtype=np.float64)


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
        object.__setattr__(self, "layer_sizes", tuple(
            _whole(s, "layer_sizes", i) for i, s in enumerate(self.layer_sizes)))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output sizes")
        if min(self.layer_sizes) < 1:
            raise ValueError(f"layer_sizes must all be >= 1, got {self.layer_sizes}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        for name, low in (("epochs", 0), ("batch", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.mode not in ("fp", "integer"):
            raise ValueError(f"unknown mode {self.mode!r}")
        init = self.initial_weight
        if self.mode == "integer":
            if self.max_weight is None or _whole(self.max_weight, "max_weight") < 1:
                raise ValueError("integer mode needs max_weight >= 1")
            if init is not None and not (0 <= init <= self.max_weight and init == int(init)):
                raise ValueError("integer mode needs a whole initial_weight in "
                                 f"[0, max_weight={self.max_weight}], got {init}")
        elif init is not None and not (math.isfinite(init) and init >= 0):
            raise ValueError(f"initial_weight must be finite and >= 0, got {init}")

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
        z = x @ self.weights.T
        z /= self.normalizer
        return z


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
        """Class scores for one input vector or a (batch, n_in) matrix of
        duties or pixel bytes."""
        a = np.atleast_2d(_duties(x))
        for layer in self.layers:
            a = activation(self.cfg.activation, layer.pre_activation(a))
        return a[0] if np.asarray(x).ndim == 1 else a

    def forward_trace(self, x: np.ndarray):
        """Forward pass keeping pre-activations and activations."""
        pres, acts, _ = self._trace(x)
        return pres, acts

    def _trace(self, x: np.ndarray):
        """Forward pass keeping pre-activations, activations and activation
        slopes, for backprop."""
        a = _duties(x)
        pres, acts, slopes = [], [a], []
        for layer in self.layers:
            z = layer.pre_activation(a)
            a, slope = activation_and_slope(self.cfg.activation, z)
            pres.append(z)
            acts.append(a)
            slopes.append(slope)
        return pres, acts, slopes

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


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainReport:
    test_error: float
    train_error: float
    per_epoch: list[tuple[int, float, float]]  # (epoch, train_error, test_error)
    epoch_seconds: list[float] = field(default_factory=list)  # wall time, evaluation included


def loss_and_grads(net: Network, x: np.ndarray, targets: np.ndarray):
    """Mean-squared error against one-hot targets and gradients w.r.t. the
    normalized weights of every layer.

    Loss = mean over batch and output classes of (out - target)^2.
    """
    _, acts, slopes = net._trace(x)
    out = acts[-1]
    batch, n_cls = out.shape
    err = out - targets
    loss = float(np.mean(err ** 2))
    delta = 2.0 * err / (batch * n_cls)
    delta *= slopes[-1]
    grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        grads[li] = delta.T @ acts[li]
        if li > 0:
            delta = delta @ (net.layers[li].weights / net.layers[li].normalizer)
            delta *= slopes[li - 1]
    return loss, grads


def integer_weight_delta(delta_fp: np.ndarray, normalizer: float) -> np.ndarray:
    """Scale a floating-point update back to integer steps: round(d * norm),
    in place; the float64 array passed in is overwritten and returned.

    Updates smaller than 0.5/normalizer starve to zero - the reason integer
    training starts from small weights.
    """
    delta_fp *= normalizer
    return np.round(delta_fp, out=delta_fp)


def evaluate(net: Network, dataset) -> float:
    """Error percent on a dataset (anything with .images and .labels), its
    images duties or pixel bytes.

    Argmax decision over the class-score vector; ties go to the lowest class
    index (numpy argmax semantics).
    """
    images = np.asarray(dataset.images)
    labels = np.asarray(dataset.labels)
    if len(images) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # one duty array for all chunks: a new one per chunk costs page faults
    duties = np.empty((min(len(images), EVAL_CHUNK), *images.shape[1:]))
    wrong = 0
    for start in range(0, len(images), EVAL_CHUNK):
        chunk = images[start:start + EVAL_CHUNK]
        pred = net.predict(_duties(chunk, duties[:len(chunk)]))
        wrong += int(np.sum(pred != labels[start:start + EVAL_CHUNK]))
    return 100.0 * wrong / len(images)


def train(net: Network, train_ds, test_ds,
          cfg: NetworkConfig | None = None) -> TrainReport:
    """Mini-batch gradient descent under the network's own config;
    deterministic given its seed. `cfg`, where given, must equal net.cfg.

    FP mode applies the raw update; integer mode rounds the rescaled update
    and clamps to +-max_weight (asserted every step). Divergence (non-finite
    loss) aborts with a diagnostic.
    """
    if cfg is not None and cfg != net.cfg:
        raise ValueError(f"cfg {cfg} is not the network's own {net.cfg}")
    cfg = net.cfg
    train_images = np.asarray(train_ds.images)
    train_labels = np.asarray(train_ds.labels)
    one_hot = np.eye(cfg.layer_sizes[-1])
    rng = np.random.default_rng(cfg.seed + 1)  # shuffling stream

    n = len(train_images)
    per_epoch, epoch_seconds = [], []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            sel = order[start:start + cfg.batch]
            loss, grads = loss_and_grads(net, train_images[sel],
                                         one_hot[train_labels[sel]])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {start // cfg.batch}: {loss}")
            for layer, grad in zip(net.layers, grads):
                grad *= -cfg.learning_rate
                if cfg.mode == "integer":
                    layer.weights += integer_weight_delta(grad, layer.normalizer)
                    np.clip(layer.weights, -cfg.max_weight, cfg.max_weight,
                            out=layer.weights)
                else:
                    layer.weights += grad
            net.assert_weight_bounds()
        tr_err = evaluate(net, train_ds)
        te_err = evaluate(net, test_ds)
        per_epoch.append((epoch + 1, tr_err, te_err))
        epoch_seconds.append(time.perf_counter() - t0)

    if per_epoch:
        final_train, final_test = per_epoch[-1][1], per_epoch[-1][2]
    else:
        final_train, final_test = evaluate(net, train_ds), evaluate(net, test_ds)
    return TrainReport(
        test_error=final_test,
        train_error=final_train,
        per_epoch=per_epoch,
        epoch_seconds=epoch_seconds,
    )
