import gzip
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densecap.cli import main
from densecap.errors import CapacityError, DensecapError, IngestionError, ParameterError
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
from densecap.experiments import data as data_mod
from densecap.experiments.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    TEST_IMAGES,
    TEST_LABELS,
    TRAIN_IMAGES,
    TRAIN_LABELS,
    Dataset,
    read_idx_images,
    read_idx_labels,
)
from densecap.experiments.training import (
    Adam,
    _accuracy,
    _clamp,
    _init_params,
    _mse,
    _resolve_dataset,
    _softmax_ce,
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


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


# header fields a damaged or hostile file may hold: none, small, MNIST's,
# and counts whose product passes 2^31, 2^63 or any array
HEADER_FIELDS = st.one_of(
    st.sampled_from([0, 1, 2, 28, 60000, 2**16, 2**31, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    magic=st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC, 0]),
    dims=st.lists(HEADER_FIELDS, min_size=3, max_size=3),
    keep=st.integers(0, 16),
    payload=st.binary(max_size=64),
    packing=st.sampled_from(["plain", "gzip", "gzip cut", "gzip flipped"]),
    at=st.integers(0, 2**16),
)
@example(IMAGE_MAGIC, [2**31, 2**16, 2**16], 16, b"", "plain", 0)  # 2^63 pixels
@example(IMAGE_MAGIC, [0, 2**32 - 1, 2**32 - 1], 16, b"", "plain", 0)  # no image, no array
def test_malformed_idx_files_raise_only_ingestion_errors(
    idx_dir, magic, dims, keep, payload, packing, at
):
    data = struct.pack(">4I", magic, *dims)[:keep] + payload
    if packing != "plain":
        data = gzip.compress(data)
        if packing == "gzip cut":
            data = data[:at % len(data)]
        elif packing == "gzip flipped":
            data = bytearray(data)
            data[at % len(data)] ^= 1 << (at % 8)
    path = idx_dir / "file"
    path.write_bytes(bytes(data))
    for read in (read_idx_images, read_idx_labels):
        try:
            read(str(path))
        except IngestionError as exc:
            assert str(path) in str(exc)


def test_missing_directory_is_ingestion_error(tmp_path, monkeypatch):
    monkeypatch.delenv("DENSECAP_DATA", raising=False)
    with pytest.raises(IngestionError):
        load_mnist(None)
    with pytest.raises(IngestionError):
        load_mnist(str(tmp_path))


def write_mnist_dir(path, n_train, n_test):
    """The four IDX files of a tiny 2 x 2-pixel MNIST stand-in under ``path``."""
    rng = np.random.default_rng(0)
    for images, labels, n in ((TRAIN_IMAGES, TRAIN_LABELS, n_train),
                              (TEST_IMAGES, TEST_LABELS, n_test)):
        pixels = rng.integers(0, 256, 4 * n, np.uint8)
        write_idx(path / images, 2051, (n, 2, 2), pixels.tobytes())
        write_idx(path / labels, 2049, (n,), rng.integers(0, 10, n, np.uint8).tobytes())
    return str(path)


@pytest.mark.parametrize("size", ["x", "-5", "0", "", "5"])
def test_mnist_subset_size_is_checked_before_loading(tmp_path, size):
    # a subset is asked for with TrainConfig.subset (--subset) alone, so every
    # mnist-subset(size) string, well-formed or not, is an unknown dataset
    config = TrainConfig(dataset=f"mnist-subset({size})", width=4, epochs=1)
    for data_dir in (write_mnist_dir(tmp_path, 20, 5), str(tmp_path / "missing")):
        with pytest.raises(ParameterError, match="unknown dataset 'mnist-subset"):
            train(config, data_dir=data_dir)


@pytest.mark.parametrize("dataset", ["mnist:subset=5", "mnist:5", "mnist:"])
def test_mnist_arguments_are_refused_before_loading(tmp_path, monkeypatch, dataset):
    # mnist takes no arguments, so none may be dropped on the way to a full split
    monkeypatch.delenv("DENSECAP_DATA", raising=False)
    config = TrainConfig(dataset=dataset, width=4, epochs=1)
    for data_dir in (write_mnist_dir(tmp_path, 20, 5), str(tmp_path / "missing"), None):
        with pytest.raises(ParameterError, match="mnist takes no arguments"):
            train(config, data_dir=data_dir)


def test_mnist_subset_takes_that_many_rows(tmp_path):
    config = TrainConfig(subset=5)
    ds = _resolve_dataset(config, None, write_mnist_dir(tmp_path, 20, 5))
    assert (ds.train_x.shape, ds.test_x.shape) == ((5, 4), (5, 4))


def train_cli(capsys, *args):
    code = main(["train", "--width", "4", "--epochs", "1", *args])
    return code, capsys.readouterr().err


def test_cli_refuses_a_bad_mnist_subset(tmp_path, capsys):
    data_dir = write_mnist_dir(tmp_path, 20, 5)
    code, err = train_cli(capsys, "--dataset", "mnist-subset(5)", "--data-dir", data_dir)
    assert code == 1
    assert err.startswith("error: unknown dataset") and err.count("\n") == 1


def test_cli_refuses_mnist_arguments(tmp_path, capsys):
    data_dir = write_mnist_dir(tmp_path, 20, 5)
    code, err = train_cli(capsys, "--dataset", "mnist:subset=5", "--data-dir", data_dir)
    assert code == 1
    assert err.startswith("error: mnist takes no arguments") and err.count("\n") == 1


def test_cli_refuses_a_nan_learning_rate(capsys):
    code, err = train_cli(capsys, "--dataset", "spike:samples=100", "--lr", "nan")
    assert code == 1
    assert err.startswith("error: learning rate") and err.count("\n") == 1


@pytest.mark.parametrize("rows", [(0, 5), (20, 0)])
def test_train_refuses_an_empty_split(rows):
    rng = np.random.default_rng(0)
    (tx, ty), (vx, vy) = ((rng.random((n, 3)), rng.integers(0, 10, n)) for n in rows)
    with pytest.raises(DensecapError, match="empty split"):
        train(TrainConfig(width=4, epochs=1), data=Dataset(tx, ty, vx, vy))


def test_cli_refuses_an_empty_training_file(tmp_path, capsys):
    data_dir = write_mnist_dir(tmp_path, 0, 5)
    code, err = train_cli(capsys, "--dataset", "mnist", "--data-dir", data_dir)
    assert code == 1
    assert err.startswith("error: empty split") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "kw,message",
    [({"seed": -1}, "seed must be non-negative, got -1"),
     ({"seed": 1.0}, "seed must be an integer, got 1.0"),
     ({"samples": 0}, "samples must be at least 1, got 0"),
     ({"samples": 2.5}, "samples must be an integer, got 2.5"),
     ({"samples": True}, "samples must be an integer, got True")],
)
def test_spike_dataset_checks_seed_and_samples(kw, message):
    with pytest.raises(ParameterError, match=message):
        make_spike_dataset(2, 4, **{"seed": 0, "samples": 10, **kw})


@pytest.mark.parametrize(
    "args, message",
    [((2.5, 2), "d0 must be an integer, got 2.5"),
     ((0, 2), "d0 must be at least 1, got 0"),
     ((2, 2.5), "N must be an integer, got 2.5"),
     ((2, True), "N must be an integer, got True")],
)
def test_spike_dataset_checks_its_dimensions(args, message):
    with pytest.raises(ParameterError, match=message):
        make_spike_dataset(*args, 0, 64)


@pytest.mark.parametrize("d0, N, samples, refused", [
    (2, 4, 8, False), (2, 4, 9, True),  # 8 x 2 inputs fit 16, 9 x 2 do not
    (4, 2, 4, False), (5, 2, 1, True), (1, 17, 1, True),  # 2^4 labels fit, 2^5 and 17 not
    (16, 1, 1, False),  # one label however large d0 is
])
def test_spike_dataset_size_limit(d0, N, samples, refused, monkeypatch):
    monkeypatch.setattr(data_mod, "SPIKE_MAX_ENTRIES", 16)
    if refused:
        with pytest.raises(CapacityError, match="exceeds 16 entries"):
            make_spike_dataset(d0, N, 0, samples)
    else:
        assert make_spike_dataset(d0, N, 0, samples).train_x.shape == (samples, d0)


def test_gradcheck_against_finite_differences():
    assert numeric_gradient_check(width=8, seed=0) <= 1e-5


def test_dense_clamp_invariant_after_every_step():
    rng = np.random.default_rng(1)
    d_in, width, numerator = 20, 16, 10.0
    params = _init_params(rng, d_in, width, 10)
    opt = Adam(params, 1e-2)
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
    for field in ("lr", "clamp_numerator"):
        with pytest.raises(ParameterError, match="must be positive"):
            TrainConfig(**{field: float("nan")})
    with pytest.raises(ParameterError, match="seed must be non-negative"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize(
    "kw, message",
    [({"width": 2.5}, "width must be an integer, got 2.5"),
     ({"width": 0}, "width must be at least 1, got 0"),
     ({"batch": 2.5}, "batch must be an integer, got 2.5"),
     ({"batch": True}, "batch must be an integer, got True"),
     ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
     ({"epochs": -1}, "epochs must be non-negative, got -1")],
)
def test_config_counts_are_checked(kw, message):
    # refused in the config, not by a TypeError deep in train
    with pytest.raises(ParameterError, match=message):
        TrainConfig(**kw)


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


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_refuses_fewer_than_one_job(jobs):
    ds = make_spike_dataset(1, 2, seed=0, samples=40)
    with pytest.raises(ParameterError, match="jobs must be at least 1"):
        sweep([4], ["standard"], [0], TrainConfig(epochs=1), data=ds, jobs=jobs)


@pytest.mark.parametrize("jobs, seeds, workers", [(8, 2, 2), (2, 3, 2), (8, 1, None)])
def test_sweep_starts_no_more_workers_than_cells(monkeypatch, jobs, seeds, workers):
    # a stand-in pool records its size and runs the cells in this process
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    ds = make_spike_dataset(1, 2, seed=0, samples=40)
    rows = sweep([4], ["standard"], range(seeds), TrainConfig(epochs=1), data=ds, jobs=jobs)
    assert len(rows) == seeds and not any(r.error for r in rows)
    assert started == ([] if workers is None else [workers])


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


def reference_loss_and_grads(params, x, y, kind):
    """The step written plainly, with fresh arrays and a boolean-index mask."""
    pre = x @ params["W1"] + params["b1"]
    hid = np.maximum(pre, 0.0)
    out = hid @ params["W2"] + params["b2"]
    loss, dout = _softmax_ce(out, y) if kind == "classification" else _mse(out, y)
    grads = {"W2": hid.T @ dout, "b2": dout.sum(axis=0)}
    dhid = dout @ params["W2"].T
    dhid[pre <= 0] = 0.0
    grads["W1"] = x.T @ dhid
    grads["b1"] = dhid.sum(axis=0)
    return float(loss), grads, out


def step_inputs(kind, rows=23, d_in=5, width=37, seed=0):
    rng = np.random.default_rng(seed)
    d_out = 10 if kind == "classification" else 1
    params = _init_params(rng, d_in, width, d_out)
    params["b1"] = rng.choice([-0.5, 0.0, 0.5], size=width)
    params["b2"] = rng.uniform(-1, 1, size=d_out)
    x = rng.uniform(0, 1, size=(rows, d_in))
    x[0] = 0.0  # pre is exactly 0 wherever b1 is: the ReLU's boundary
    y = rng.integers(0, 10, rows) if kind == "classification" else rng.uniform(0, 1, rows)
    return params, x, y


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["classification", "regression"])
@pytest.mark.parametrize("buffered", [False, True])
def test_step_is_bitwise_the_plain_formula(kind, buffered):
    params, x, y = step_inputs(kind)
    want_loss, want, _ = reference_loss_and_grads(params, x, y, kind)
    # a stale, larger buffer, as train() passes for the last, short batch
    hid = np.full((x.shape[0] + 9, params["b1"].size), np.nan)[: x.shape[0]]
    loss, grads = loss_and_grads(params, x, y, kind, hid if buffered else None)
    assert same_bits(loss, want_loss)
    assert grads.keys() == want.keys()
    for k in want:
        assert same_bits(grads[k], want[k]), k


def test_adam_step_is_bitwise_the_plain_formula():
    params, x, y = step_inputs("classification")
    mine = {k: v.copy() for k, v in params.items()}
    opt = Adam(mine, 1e-2)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t in range(1, 6):
        _, grads = loss_and_grads(mine, x, y, "classification")
        opt.step(mine, grads)
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            mhat = m[k] / (1.0 - 0.9**t)
            vhat = v[k] / (1.0 - 0.999**t)
            params[k] -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
        for k in params:
            assert same_bits(mine[k], params[k]), (t, k)


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_accuracy_does_not_depend_on_the_chunk(kind):
    rows = 1100
    params, x, _ = step_inputs(kind, rows=rows, width=64, seed=3)
    _, _, out = reference_loss_and_grads(params, x, np.zeros(rows, dtype=int), kind)
    rng = np.random.default_rng(4)
    meta = {"N": 4}
    if kind == "classification":
        # half the labels are the reference prediction, half random
        y = np.where(rng.random(rows) < 0.5, out.argmax(axis=1), rng.integers(0, 10, rows))
        hits = out.argmax(axis=1) == y
    else:
        # targets on both sides of the hit tolerance 1 / (4N)
        y = out[:, 0] + rng.uniform(-2, 2, rows) / (4.0 * meta["N"])
        hits = np.abs(out[:, 0] - y) < 1.0 / (4.0 * meta["N"])
    want = 100.0 * int(hits.sum()) / rows
    assert 0.0 < want < 100.0
    for chunk in (1, 7, 512, rows):
        assert _accuracy(params, x, y, kind, meta, chunk=chunk) == want, chunk


def test_training_epoch_peak_is_independent_of_samples():
    # the parent kept 8,192 x 512 temporaries (96 MiB); every trainer array
    # is now batch x width or chunk x width
    data = make_spike_dataset(2, 4, 0, 20000)
    tracemalloc.start()
    try:
        train(TrainConfig(width=512, epochs=1), data=data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
