import gzip
import os
import struct

import numpy as np
import pytest

from pwmperc import mnist

try:
    from hypothesis import settings
except ImportError:          # the property tests skip themselves
    pass
else:
    # CI draws the same examples on every run, so a failure there replays
    # locally under HYPOTHESIS_PROFILE=ci
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def mnist_dir():
    """Directory with the real MNIST IDX files, or skip."""
    found = mnist.find_data_dir()
    if found is None:
        pytest.skip(f"MNIST IDX files not found (set ${mnist.DATA_DIR_ENV})")
    return found


@pytest.fixture(scope="session")
def synthetic_mnist_dir(tmp_path_factory):
    """A seeded MNIST-shaped set: 2,000 training and 500 test images."""
    directory = tmp_path_factory.mktemp("synthetic_mnist")
    write_synthetic_mnist(directory, n_train=2000, n_test=500)
    return directory


# the real set only where its IDX files are found, so nothing skips without it
TRAIN_SETS = (["mnist"] if mnist.find_data_dir() else []) + ["synthetic"]


@pytest.fixture(params=TRAIN_SETS)
def train_dir(request):
    """An MNIST directory, once per set: the real files where they are
    found, then the synthetic set."""
    return request.getfixturevalue(
        {"mnist": "mnist_dir", "synthetic": "synthetic_mnist_dir"}[request.param])


def write_idx_pair(directory, images, labels, *, images_magic=mnist.IMAGES_MAGIC,
                   labels_magic=mnist.LABELS_MAGIC, truncate_images=0,
                   label_count=None, gz=False, stem="synthetic"):
    """Write a small IDX image/label pair; knobs inject format corruption."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_blob = struct.pack(">iiii", images_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        img_blob = img_blob[:-truncate_images]
    lab_blob = struct.pack(">ii", labels_magic,
                           label_count if label_count is not None else len(labels))
    lab_blob += labels.tobytes()
    suffix = ".gz" if gz else ""
    img_path = directory / f"{stem}-images-idx3-ubyte{suffix}"
    lab_path = directory / f"{stem}-labels-idx1-ubyte{suffix}"
    img_path.write_bytes(gzip.compress(img_blob) if gz else img_blob)
    lab_path.write_bytes(gzip.compress(lab_blob) if gz else lab_blob)
    return img_path, lab_path


def write_synthetic_mnist(directory, n_train=96, n_test=32, seed=0):
    """Seeded random 28x28 images under the four standard MNIST file names."""
    rng = np.random.default_rng(seed)
    for stem, n in (("train", n_train), ("t10k", n_test)):
        write_idx_pair(directory, rng.integers(0, 256, (n, 28, 28)),
                       rng.integers(0, 10, n), stem=stem)
