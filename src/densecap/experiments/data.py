"""Dataset ingestion: IDX-format image files and synthetic spike targets."""

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..bounds import SpikeTarget
from ..errors import CapacityError, IngestionError, require_count

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

DATA_ENV = "DENSECAP_DATA"

SPIKE_MAX_ENTRIES = 2**24  # most grid labels N^d0, and most input entries samples * d0
READ_CHUNK = 1 << 26  # bytes per read, so memory grows with the data, not a header's count


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
    chunks, got = [], 0
    while got < count and (chunk := fh.read(min(count - got, READ_CHUNK))):
        chunks.append(chunk)
        got += len(chunk)
    if got != count:
        raise IngestionError(
            f"truncated file: wanted {count} bytes, got {got}",
            path=path,
            offset=offset,
        )
    return b"".join(chunks)


def _read_idx(path, magic, dims, kind):
    """An IDX file's ``dims`` dimensions and payload; every fault is an IngestionError."""
    head = 4 * (dims + 1)
    try:
        with _open_maybe_gz(path) as fh:
            got, *shape = struct.unpack(f">{dims + 1}I", _read_exact(fh, head, path, 0))
            if got != magic:
                raise IngestionError(
                    f"bad magic {got}, expected {magic} for {kind} file", path=path
                )
            return shape, _read_exact(fh, math.prod(shape), path, head)
    except (OSError, EOFError, zlib.error) as exc:  # a gzip stream's faults among them
        raise IngestionError(f"unreadable file: {exc}", path=path) from None


def read_idx_images(path):
    """Big-endian IDX image file -> float array in [0,1], shape (n, rows*cols)."""
    (n, rows, cols), raw = _read_idx(path, IMAGE_MAGIC, 3, "an image")
    if rows * cols > np.iinfo(np.intp).max // 8:  # with n = 0 no byte bounds them
        raise IngestionError(f"images of {rows} x {cols} pixels exceed any array", path=path)
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    return arr.reshape(n, rows * cols)


def read_idx_labels(path):
    (n,), raw = _read_idx(path, LABEL_MAGIC, 1, "a label")
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


def make_spike_dataset(d0, N, seed, samples):
    """Regression data from a random spike target with labels in {0, 1/(2N)}.

    Inputs are uniform on the unit cube, ``samples`` to train on and a fifth
    as many (at least one) to test on; grid labels are Boolean picks scaled
    to keep the target 1-Lipschitz.
    """
    require_count("d0", d0, 1)
    require_count("N", N, 1)
    require_count("seed", seed)
    require_count("samples", samples, 1)
    # N >= 2 to the limit's bit length already passes it, so N^d0 is never built
    if max(N ** min(d0, SPIKE_MAX_ENTRIES.bit_length()), samples * d0) > SPIKE_MAX_ENTRIES:
        raise CapacityError(
            f"spike data of {N}^{d0} grid labels and {samples} x {d0} inputs "
            f"exceeds {SPIKE_MAX_ENTRIES} entries"
        )
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=N**d0)
    target = SpikeTarget(d0, N, z / (2.0 * N))
    tx = rng.uniform(0.0, 1.0, size=(samples, d0))
    vx = rng.uniform(0.0, 1.0, size=(max(1, samples // 5), d0))
    meta = {"d0": d0, "N": N, "target": target}
    return Dataset(tx, target(tx), vx, target(vx), kind="regression", meta=meta)
