import gzip
import os
import struct

import numpy as np
import pytest

from densecap.errors import IngestionError, ParameterError
from densecap.experiments import (
    TrainConfig,
    load_mnist,
    make_spike_dataset,
    numeric_gradient_check,
    sweep,
    sweep_to_csv,
    take_subset,
    train,
)
from densecap.experiments.data import read_idx_images, read_idx_labels
from densecap.experiments.training import (
    Adam,
    _clamp,
    _init_params,
    loss_and_grads,
    max_scaled_weight,
    sweep_summary,
)

from conftest import MNIST_DIR, needs_mnist


def write_idx(path, magic, dims, payload):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        for d in dims:
            fh.write(struct.pack(">I", d))
        fh.write(payload)


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    p = tmp_path / "imgs"
    write_idx(p, 2051, (5, 4, 3), img.tobytes())
    out = read_idx_images(str(p))
    assert out.shape == (5, 12)
    assert np.allclose(out, img.reshape(5, 12) / 255.0)


def test_idx_gzip_supported(tmp_path):
    lab = np.arange(7, dtype=np.uint8)
    p = tmp_path / "labels.gz"
    with gzip.open(p, "wb") as fh:
        fh.write(struct.pack(">II", 2049, 7) + lab.tobytes())
    out = read_idx_labels(str(p))
    assert np.array_equal(out, np.arange(7))


def test_idx_bad_magic_names_expected(tmp_path):
    p = tmp_path / "imgs"
    write_idx(p, 1234, (1, 2, 2), bytes(4))
    with pytest.raises(IngestionError) as exc:
        read_idx_images(str(p))
    assert "2051" in str(exc.value)


def test_idx_truncation_reports_offset(tmp_path):
    p = tmp_path / "imgs"
    write_idx(p, 2051, (2, 3, 3), bytes(5))  # needs 18 payload bytes
    with pytest.raises(IngestionError) as exc:
        read_idx_images(str(p))
    assert "truncated" in str(exc.value)
    assert exc.value.offset == 16


def test_missing_directory_is_ingestion_error(tmp_path, monkeypatch):
    monkeypatch.delenv("DENSECAP_DATA", raising=False)
    with pytest.raises(IngestionError):
        load_mnist(None)
    with pytest.raises(IngestionError):
        load_mnist(str(tmp_path))


@needs_mnist
def test_mnist_shapes():
    data = load_mnist(MNIST_DIR)
    assert data.train_x.shape == (60000, 784)
    assert data.train_y.shape == (60000,)
    assert data.test_x.shape == (10000, 784)
    assert data.train_x.min() >= 0.0 and data.train_x.max() <= 1.0
    assert set(np.unique(data.train_y)) <= set(range(10))


@needs_mnist
def test_subset_deterministic():
    data = load_mnist(MNIST_DIR)
    a = take_subset(data, 1000, seed=5)
    b = take_subset(data, 1000, seed=5)
    c = take_subset(data, 1000, seed=6)
    assert np.array_equal(a.train_x, b.train_x)
    assert not np.array_equal(a.train_y, c.train_y)


def test_spike_dataset_targets_and_range():
    ds = make_spike_dataset(2, 4, seed=0, samples=5000)
    target = ds.meta["target"]
    pts = target.grid_points()
    assert np.allclose(target(pts), target.labels)
    assert set(np.round(target.labels * 8, 12)) <= {0.0, 1.0}
    assert ds.train_y.min() >= 0.0
    assert ds.train_y.max() <= 1.0 / 8 + 1e-12


def test_spike_dataset_all_zero_labels():
    ds = make_spike_dataset(1, 1, seed=3, samples=100)
    if ds.meta["target"].labels[0] == 0.0:
        assert np.all(ds.train_y == 0.0)
    else:
        assert ds.train_y.max() <= 0.5


def test_gradcheck_against_finite_differences():
    assert numeric_gradient_check(width=8, seed=0) <= 1e-5


def test_dense_clamp_invariant_after_every_step():
    rng = np.random.default_rng(1)
    d_in, width, numerator = 20, 16, 10.0
    params = _init_params(rng, d_in, width, 10)
    opt = Adam(params, 1e-2, 0.9, 0.999, 1e-8)
    _clamp(params, numerator, d_in, width)
    x = rng.uniform(0, 1, (32, d_in))
    y = rng.integers(0, 10, 32)
    for _ in range(25):
        _, grads = loss_and_grads(params, x, y, "classification")
        opt.step(params, grads)
        _clamp(params, numerator, d_in, width)
        assert max_scaled_weight(params, d_in, width) <= numerator + 1e-12


def test_training_deterministic_bit_for_bit():
    ds = make_spike_dataset(2, 3, seed=9, samples=2000)
    cfg = TrainConfig(width=16, mode="dense", epochs=2, seed=4, batch=64)
    a = train(cfg, data=ds)
    b = train(cfg, data=ds)
    assert a.epoch_loss == b.epoch_loss
    assert a.train_acc == b.train_acc and a.test_acc == b.test_acc


def test_training_accuracies_within_percent_range():
    ds = make_spike_dataset(1, 2, seed=2, samples=500)
    m = train(TrainConfig(width=8, epochs=1, seed=0, batch=50), data=ds)
    assert 0.0 <= m.train_acc <= 100.0
    assert 0.0 <= m.test_acc <= 100.0
    assert len(m.epoch_loss) == 1


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(mode="loose")
    with pytest.raises(ParameterError):
        TrainConfig(width=0)
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)


def test_sweep_cardinality_order_and_csv():
    ds = make_spike_dataset(1, 2, seed=0, samples=400)
    base = TrainConfig(epochs=1, batch=100)
    rows = sweep([8, 4], ["standard", "dense"], [1, 0], base, data=ds)
    assert len(rows) == 8
    keys = [(r.width, r.mode, r.seed) for r in rows]
    assert keys == sorted(keys)
    csv = sweep_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "width,mode,seed,train_acc,test_acc,final_loss,wall_s"
    assert len(lines) == 9
    summary = sweep_summary(rows)
    assert summary[(4, "dense")]["runs"] == 2


def test_sweep_rerun_identical():
    ds = make_spike_dataset(1, 2, seed=0, samples=400)
    base = TrainConfig(epochs=1, batch=100)
    a = sweep_to_csv(sweep([4], ["standard"], [0, 1], base, data=ds))
    b = sweep_to_csv(sweep([4], ["standard"], [0, 1], base, data=ds))
    # wall-clock column varies; compare everything else
    strip = lambda csv: [",".join(r.split(",")[:-1]) for r in csv.splitlines()]
    assert strip(a) == strip(b)


def test_sweep_records_partial_failures():
    base = TrainConfig(epochs=1, dataset="mnist")
    old = os.environ.pop("DENSECAP_DATA", None)
    try:
        rows = sweep([4], ["standard"], [0], base, data=None, data_dir="/nonexistent")
    finally:
        if old is not None:
            os.environ["DENSECAP_DATA"] = old
    assert len(rows) == 1
    assert rows[0].error
    assert np.isnan(rows[0].train_acc)


@needs_mnist
def test_untrained_mnist_accuracy_is_chance():
    data = take_subset(load_mnist(MNIST_DIR), 4000, seed=0)
    m = train(TrainConfig(width=64, epochs=0, seed=0), data=data)
    assert 5.0 <= m.test_acc <= 15.0


def test_config_refuses_subset_below_one():
    # a negative subset would slice [:-3] and train on all but 3 samples
    for bad in (-3, 0):
        with pytest.raises(ParameterError, match="subset"):
            TrainConfig(subset=bad)
    assert TrainConfig(subset=1).subset == 1


@pytest.mark.parametrize(
    "spec,field",
    [("spike:d0=1,N", "'N'"), ("spike:d0=1,M=3", "'M=3'"), ("spike:d0=x", "'d0=x'"),
     ("spike:seed=-1", "'seed=-1'"), ("spike:samples=0", "samples")],
)
def test_spike_dataset_string_names_bad_field(spec, field):
    with pytest.raises(ParameterError, match=field):
        train(TrainConfig(dataset=spec, width=4, epochs=1))
