"""Dataset ingestion: IDX-format image files and synthetic spike targets."""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..bounds import spike_target
from ..errors import IngestionError, ParameterError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

DATA_ENV = "DENSECAP_DATA"


def _open_maybe_gz(path):
    if os.path.exists(path):
        with open(path, "rb") as fh:
            head = fh.read(2)
        if head == b"\x1f\x8b":
            return gzip.open(path, "rb")
        return open(path, "rb")
    if os.path.exists(path + ".gz"):
        return gzip.open(path + ".gz", "rb")
    raise IngestionError("dataset file not found", path=path)


def _read_exact(fh, count, path, offset):
    buf = fh.read(count)
    if len(buf) != count:
        raise IngestionError(
            f"truncated file: wanted {count} bytes, got {len(buf)}",
            path=path,
            offset=offset,
        )
    return buf


def read_idx_images(path):
    """Big-endian IDX image file -> float array in [0,1], shape (n, rows*cols)."""
    with _open_maybe_gz(path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, path, 0))
        if magic != IMAGE_MAGIC:
            raise IngestionError(
                f"bad magic {magic}, expected {IMAGE_MAGIC} for an image file", path=path
            )
        raw = _read_exact(fh, n * rows * cols, path, 16)
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    return arr.reshape(n, rows * cols)


def read_idx_labels(path):
    with _open_maybe_gz(path) as fh:
        magic, n = struct.unpack(">II", _read_exact(fh, 8, path, 0))
        if magic != LABEL_MAGIC:
            raise IngestionError(
                f"bad magic {magic}, expected {LABEL_MAGIC} for a label file", path=path
            )
        raw = _read_exact(fh, n, path, 8)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    kind: str = "classification"
    meta: dict = None

    @property
    def n_train(self):
        return self.train_x.shape[0]


def load_mnist(data_dir=None):
    """Load the four standard IDX files (plain or gzipped) from a directory.

    The directory defaults to the DENSECAP_DATA environment variable.
    """
    data_dir = data_dir or os.environ.get(DATA_ENV)
    if not data_dir:
        raise IngestionError(
            f"no dataset directory: pass data_dir or set {DATA_ENV}"
        )
    tx = read_idx_images(os.path.join(data_dir, TRAIN_IMAGES))
    ty = read_idx_labels(os.path.join(data_dir, TRAIN_LABELS))
    vx = read_idx_images(os.path.join(data_dir, TEST_IMAGES))
    vy = read_idx_labels(os.path.join(data_dir, TEST_LABELS))
    if tx.shape[0] != ty.shape[0] or vx.shape[0] != vy.shape[0]:
        raise IngestionError(
            f"image/label counts disagree: {tx.shape[0]}/{ty.shape[0]} train, "
            f"{vx.shape[0]}/{vy.shape[0]} test",
            path=data_dir,
        )
    return Dataset(tx, ty, vx, vy, kind="classification")


def take_subset(data, n, seed):
    """Deterministic training subset of size n; the test split is kept whole."""
    if n >= data.n_train:
        return data
    idx = np.random.default_rng(seed).permutation(data.n_train)[:n]
    idx.sort()
    return Dataset(
        data.train_x[idx], data.train_y[idx], data.test_x, data.test_y,
        kind=data.kind, meta=data.meta,
    )


def make_spike_dataset(d0, N, seed, samples, test_samples=None):
    """Regression data from a random spike target with labels in {0, 1/(2N)}.

    Inputs are uniform on the unit cube; grid labels are Boolean picks
    scaled to keep the target 1-Lipschitz.
    """
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=N**d0)
    target = spike_target(d0, N, z / (2.0 * N))
    test_samples = test_samples or max(1, samples // 5)
    tx = rng.uniform(0.0, 1.0, size=(samples, d0))
    vx = rng.uniform(0.0, 1.0, size=(test_samples, d0))
    meta = {"d0": d0, "N": N, "target": target}
    return Dataset(tx, target(tx), vx, target(vx), kind="regression", meta=meta)
