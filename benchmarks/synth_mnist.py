"""Seeded, learnable, MNIST-shaped data set written as standard IDX files.

The 28x28 image is split into a 4x4 grid of 7x7 cells. Each class lights four
cells with a blurred blob, and no two classes share more than one cell, so
the classes stay apart whatever the seed. Train and test images are drawn
from the same class prototypes; each image is its prototype shifted by up to
two pixels, scaled in brightness and overlaid with Gaussian noise.

The package only ever sees the files: ``mnist.load_idx`` parses them.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

SIDE = 28
N_CLASSES = 10
CELLS_PER_CLASS = 4
MAX_SHIFT = 2
NOISE = 0.25
TRAIN_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
TEST_FILES = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
_CHUNK = 10_000


def prototypes(rng: np.random.Generator) -> np.ndarray:
    """(10, 28, 28) float32 class prototypes with peak value 1."""
    combos = list(itertools.combinations(range(16), CELLS_PER_CLASS))
    chosen: list[set] = []
    for i in rng.permutation(len(combos)):
        cells = set(combos[i])
        if all(len(cells & other) <= 1 for other in chosen):
            chosen.append(cells)
            if len(chosen) == N_CLASSES:
                break
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((N_CLASSES, SIDE, SIDE))
    for c, cells in enumerate(chosen):
        for cell in sorted(cells):
            cy = 3.5 + 7 * (cell // 4) + rng.uniform(-0.5, 0.5)
            cx = 3.5 + 7 * (cell % 4) + rng.uniform(-0.5, 0.5)
            protos[c] += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / rng.uniform(3.0, 6.0))
        protos[c] /= protos[c].max()
    return protos.astype(np.float32)


def images(protos: np.ndarray, labels: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """(n, 28, 28) uint8 images of the given labels."""
    n = len(labels)
    out = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    shifts = range(-MAX_SHIFT, MAX_SHIFT + 1)
    for lo in range(0, n, _CHUNK):
        lab = labels[lo:lo + _CHUNK]
        m = len(lab)
        base = protos[lab]
        shift = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(m, 2))
        for dy, dx in itertools.product(shifts, shifts):
            sel = (shift[:, 0] == dy) & (shift[:, 1] == dx)
            base[sel] = np.roll(base[sel], (dy, dx), axis=(1, 2))
        base *= rng.uniform(0.6, 1.0, size=(m, 1, 1)).astype(np.float32)
        base += rng.standard_normal((m, SIDE, SIDE), dtype=np.float32) * np.float32(NOISE)
        out[lo:lo + m] = np.clip(base * np.float32(255.0), 0.0, 255.0)
    return out


def write_idx(directory: Path, names: tuple[str, str], imgs: np.ndarray,
              labels: np.ndarray) -> None:
    """Write one image/label pair in the big-endian IDX format."""
    with open(directory / names[0], "wb") as fh:
        fh.write(struct.pack(">iiii", 0x803, len(imgs), SIDE, SIDE))
        fh.write(imgs.tobytes())
    with open(directory / names[1], "wb") as fh:
        fh.write(struct.pack(">ii", 0x801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def generate(directory: Path, seed: int, n_train: int = 60_000,
             n_test: int = 10_000) -> None:
    """Write the four standard MNIST files under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    protos = prototypes(rng)
    for names, n in ((TRAIN_FILES, n_train), (TEST_FILES, n_test)):
        labels = rng.integers(0, N_CLASSES, size=n)
        write_idx(directory, names, images(protos, labels, rng), labels)
