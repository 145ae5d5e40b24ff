"""MNIST ingestion: IDX container parsing.

Images stay the pixel bytes of the file, one byte per pixel. Pixels map
straight to duty cycles, byte/255 with no centering or whitening (the
hardware cannot represent negative inputs); ``nn`` applies that map to one
batch or evaluation chunk at a time. Files may be the raw IDX files or their
gzip-compressed variants.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DatasetError",
    "BadMagicError",
    "TruncatedFileError",
    "CountMismatchError",
    "load_idx",
    "load_mnist",
    "subsample",
    "find_data_dir",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

DATA_DIR_ENV = "PWMPERC_DATA_DIR"
_DEFAULT_DATA_DIRS = ("/root/data/mnist", "data/mnist")

TRAIN_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
TEST_FILES = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


class DatasetError(ValueError):
    pass


class BadMagicError(DatasetError):
    pass


class TruncatedFileError(DatasetError):
    pass


class CountMismatchError(DatasetError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Images with their labels. ``images`` holds uint8 pixel bytes as
    ``load_idx`` returns them (duty = byte/255, applied in ``nn``), or float
    duty-cycle fractions in [0, 1] that a caller built."""

    images: np.ndarray   # (n, 784)
    labels: np.ndarray   # (n,) int64 class ids 0-9
    split: str           # "train" | "test" | derived tags

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                f"{len(self.images)} images vs {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=10)


def _read_file(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair.

    Validates the big-endian magics, the declared dimensions against the file
    size, and the image/label counts against each other. The images are the
    file's pixel bytes, a read-only uint8 view with no copy.
    """
    img_raw = _read_file(images_path)
    lab_raw = _read_file(labels_path)

    if len(img_raw) < 16:
        raise TruncatedFileError(f"{images_path}: too short for an IDX image header")
    magic, n_img, rows, cols = struct.unpack(">iiii", img_raw[:16])
    if magic != IMAGES_MAGIC:
        raise BadMagicError(
            f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
    if len(img_raw) - 16 < n_img * rows * cols:
        raise TruncatedFileError(
            f"{images_path}: header promises {n_img}x{rows}x{cols} pixels, "
            f"file holds {len(img_raw) - 16} bytes")

    if len(lab_raw) < 8:
        raise TruncatedFileError(f"{labels_path}: too short for an IDX label header")
    magic_l, n_lab = struct.unpack(">ii", lab_raw[:8])
    if magic_l != LABELS_MAGIC:
        raise BadMagicError(
            f"{labels_path}: magic 0x{magic_l:08x}, expected 0x{LABELS_MAGIC:08x}")
    if len(lab_raw) - 8 < n_lab:
        raise TruncatedFileError(
            f"{labels_path}: header promises {n_lab} labels, "
            f"file holds {len(lab_raw) - 8} bytes")
    if n_img != n_lab:
        raise CountMismatchError(f"{n_img} images vs {n_lab} labels")

    pixels = np.frombuffer(img_raw, dtype=np.uint8, count=n_img * rows * cols,
                           offset=16)
    images = pixels.reshape(n_img, rows * cols)
    labels = np.frombuffer(lab_raw, dtype=np.uint8, count=n_lab, offset=8)
    return Dataset(images=images, labels=labels.astype(np.int64), split=split)


def _resolve(directory: Path, name: str) -> Path:
    for candidate in (directory / name, directory / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{name}[.gz] not found under {directory}")


def load_mnist(data_dir, split: str = "train") -> Dataset:
    """Load one split from a directory holding the four standard files."""
    directory = Path(data_dir)
    names = TRAIN_FILES if split == "train" else TEST_FILES
    return load_idx(_resolve(directory, names[0]), _resolve(directory, names[1]),
                    split=split)


def find_data_dir(explicit=None):
    """Dataset directory: explicit flag, then $PWMPERC_DATA_DIR, then defaults.

    Returns None when nothing usable exists.
    """
    candidates = []
    if explicit:
        candidates.append(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        candidates.append(env)
    candidates.extend(_DEFAULT_DATA_DIRS)
    for cand in candidates:
        directory = Path(cand)
        try:
            _resolve(directory, TRAIN_FILES[0])
            _resolve(directory, TEST_FILES[0])
            return directory
        except FileNotFoundError:
            continue
    return None


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Seeded uniform sample without replacement, original order preserved."""
    if not 0 < n <= len(ds):
        raise ValueError(f"subsample size {n} outside [1, {len(ds)}]")
    if n == len(ds):
        return Dataset(ds.images, ds.labels, split=ds.split)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(ds), size=n, replace=False))
    return Dataset(ds.images[idx], ds.labels[idx],
                   split=f"{ds.split}[{n}@{seed}]")
