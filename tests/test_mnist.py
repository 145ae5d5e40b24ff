import numpy as np
import pytest

from pwmperc.mnist import (BadMagicError, CountMismatchError, Dataset,
                           TruncatedFileError, load_idx, load_mnist, subsample)

from conftest import write_idx_pair


def synthetic(n=12, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    return images, labels


class TestLoadIdx:
    def test_roundtrip_values(self, tmp_path):
        images, labels = synthetic()
        img, lab = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert len(ds) == 12
        assert ds.images.shape == (12, 784)
        np.testing.assert_array_equal(ds.labels, labels)
        # the images are the written pixel bytes, exactly
        assert ds.images.dtype == np.uint8
        np.testing.assert_array_equal(ds.images, images.reshape(12, 784))

    def test_gzip_transparent(self, tmp_path):
        images, labels = synthetic()
        img, lab = write_idx_pair(tmp_path, images, labels, gz=True)
        ds = load_idx(img, lab)
        assert len(ds) == 12

    def test_bad_images_magic(self, tmp_path):
        images, labels = synthetic()
        img, lab = write_idx_pair(tmp_path, images, labels, images_magic=0x00000801)
        with pytest.raises(BadMagicError):
            load_idx(img, lab)

    def test_labels_file_with_images_magic(self, tmp_path):
        images, labels = synthetic()
        img, lab = write_idx_pair(tmp_path, images, labels, labels_magic=0x00000803)
        with pytest.raises(BadMagicError):
            load_idx(img, lab)

    def test_truncated_images(self, tmp_path):
        images, labels = synthetic()
        img, lab = write_idx_pair(tmp_path, images, labels, truncate_images=100)
        with pytest.raises(TruncatedFileError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images, labels = synthetic()
        lab_extra = np.concatenate([labels, [3, 4]]).astype(np.uint8)
        img, lab = write_idx_pair(tmp_path, images, lab_extra)
        with pytest.raises(CountMismatchError):
            load_idx(img, lab)

    def test_error_types_are_distinct(self):
        assert not issubclass(BadMagicError, TruncatedFileError)
        assert not issubclass(TruncatedFileError, CountMismatchError)
        assert not issubclass(CountMismatchError, BadMagicError)


class TestSubsample:
    def _ds(self, n=50):
        rng = np.random.default_rng(1)
        return Dataset(images=rng.uniform(0, 1, (n, 4)),
                       labels=rng.integers(0, 10, n), split="train")

    def test_full_size_preserves_order(self):
        ds = self._ds()
        sub = subsample(ds, 50, seed=123)
        np.testing.assert_array_equal(sub.images, ds.images)
        np.testing.assert_array_equal(sub.labels, ds.labels)

    def test_deterministic(self):
        ds = self._ds()
        a = subsample(ds, 20, seed=42)
        b = subsample(ds, 20, seed=42)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        ds = self._ds()
        a = subsample(ds, 20, seed=1)
        b = subsample(ds, 20, seed=2)
        assert not np.array_equal(a.labels, b.labels) or \
            not np.array_equal(a.images, b.images)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            subsample(self._ds(), 0, seed=0)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            subsample(self._ds(), 51, seed=0)

    def test_label_counts(self):
        ds = self._ds()
        counts = ds.label_counts()
        assert counts.sum() == 50
        assert len(counts) == 10


class TestRealData:
    def test_train_split_shape(self, mnist_dir):
        ds = load_mnist(mnist_dir, "train")
        assert len(ds) == 60000
        assert ds.images.shape == (60000, 784)
        assert ds.label_counts().tolist() == [5923, 6742, 5958, 6131, 5842,
                                              5421, 5918, 6265, 5851, 5949]

    def test_test_split_shape(self, mnist_dir):
        ds = load_mnist(mnist_dir, "test")
        assert len(ds) == 10000
        assert ds.images.dtype == np.uint8 and ds.images.max() == 255
