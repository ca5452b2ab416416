"""One-hidden-layer ReLU trainer with Adam and an optional weight clamp.

This trainer is a conventional MLP (no depth normalization; biases add
directly to the pre-activation). In "dense" mode every weight matrix is
clamped after each optimizer step to [-numerator/d_in, numerator/d_in],
where d_in is the layer's input width, which caps how much any single
connection can contribute; biases are not clamped. Runs are bit-for-bit
deterministic given the config and the BLAS thread count: one generator
seeds initialization and another the shuffling stream, but the matrix
products sum in an order that depends on the thread count, so a 784->96
run on one thread and on two differ in the last bits.
"""

import re
import time
from dataclasses import dataclass, replace

import numpy as np

from ..errors import IngestionError, ParameterError, require_count
from .data import load_mnist, make_spike_dataset, take_subset


@dataclass(frozen=True)
class TrainConfig:
    width: int = 128
    mode: str = "standard"
    clamp_numerator: float = 10.0
    lr: float = 1e-3
    batch: int = 128
    epochs: int = 20
    seed: int = 0
    dataset: str = "mnist"
    subset: int = None

    def __post_init__(self):
        if self.mode not in ("standard", "dense"):
            raise ParameterError(f"mode must be standard|dense, got {self.mode!r}")
        require_count("width", self.width, 1)
        require_count("batch", self.batch, 1)
        require_count("epochs", self.epochs)
        # written so that a NaN learning rate or numerator fails the check
        if not (self.lr > 0 and self.clamp_numerator > 0):
            raise ParameterError("learning rate and clamp numerator must be positive")
        require_count("seed", self.seed)
        if self.subset is not None and self.subset < 1:
            raise ParameterError(f"subset must be at least 1, got {self.subset}")


@dataclass
class RunMetrics:
    config: TrainConfig
    epoch_loss: list
    epoch_acc: list
    train_acc: float
    test_acc: float
    final_loss: float
    wall_s: float
    seed: int


def _he_uniform(rng, fan_in, shape):
    lim = np.sqrt(6.0 / fan_in)
    return rng.uniform(-lim, lim, size=shape)


def _init_params(rng, d_in, width, d_out):
    return {
        "W1": _he_uniform(rng, d_in, (d_in, width)),
        "b1": np.zeros(width),
        "W2": _he_uniform(rng, width, (width, d_out)),
        "b2": np.zeros(d_out),
    }


def _forward(params, x, hid=None):
    """Hidden activations and outputs of ``x``; returns (hid, out).

    The hidden layer is written in place into ``hid`` when given, a
    (rows, width) float array, so callers can reuse one buffer.
    """
    hid = np.matmul(x, params["W1"], out=hid)
    hid += params["b1"]
    np.maximum(hid, 0.0, out=hid)
    return hid, hid @ params["W2"] + params["b2"]


def _softmax_ce(logits, y):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(y.size), y].mean()
    probs = np.exp(logp)
    grad = probs
    grad[np.arange(y.size), y] -= 1.0
    return loss, grad / y.size


def _mse(pred, y):
    diff = pred - y[:, None]
    return float((diff**2).mean()), 2.0 * diff / diff.size


def loss_and_grads(params, x, y, kind, hid=None):
    """Loss and parameter gradients of one batch.

    ``hid``, an optional (rows, width) work buffer, holds the hidden
    activations and then the backpropagated product dout @ W2.T.
    """
    hid, out = _forward(params, x, hid)
    if kind == "classification":
        loss, dout = _softmax_ce(out, y)
    else:
        loss, dout = _mse(out, y)
    grads = {
        "W2": hid.T @ dout,
        "b2": dout.sum(axis=0),
    }
    # ReLU is inactive where hid <= 0, the same units as pre <= 0; np.where
    # selects without branching, where a masked copy stalls on the mask
    inactive = hid <= 0
    dhid = np.where(inactive, 0.0, np.dot(dout, params["W2"].T, out=hid))
    grads["W1"] = x.T @ dhid
    grads["b1"] = dhid.sum(axis=0)
    return float(loss), grads


class Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            # the moments update in place, in the operation order of
            # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
            m, v = self.m[k], self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            params[k] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _clamp(params, numerator, d_in, width):
    np.clip(params["W1"], -numerator / d_in, numerator / d_in, out=params["W1"])
    np.clip(params["W2"], -numerator / width, numerator / width, out=params["W2"])


def _accuracy(params, x, y, kind, meta=None, chunk=256):
    """Percent of rows of ``x`` predicted right, in chunks of ``chunk`` rows.

    Every chunk runs through one preallocated chunk x width hidden buffer
    (1 MB at width 512, small enough to stay in a core's L2 cache), so no
    work array grows with the number of rows.
    """
    hits, total = 0, 0
    hid = np.empty((min(chunk, x.shape[0]), params["b1"].size))
    for lo in range(0, x.shape[0], chunk):
        xx = x[lo : lo + chunk]
        _, out = _forward(params, xx, hid[: xx.shape[0]])
        yy = y[lo : lo + chunk]
        if kind == "classification":
            hits += int((out.argmax(axis=1) == yy).sum())
        else:
            # a regression "hit": prediction within a quarter label gap
            tol = 1.0 / (4.0 * meta["N"]) if meta else 0.25
            hits += int((np.abs(out[:, 0] - yy) < tol).sum())
        total += yy.shape[0]
    return 100.0 * hits / total


def _resolve_dataset(config, data, data_dir):
    name, sep, args = config.dataset.partition(":")
    if data is not None:
        ds = data
    elif name == "mnist":
        if sep:
            raise ParameterError(f"mnist takes no arguments, got {config.dataset!r}")
        ds = load_mnist(data_dir)
    elif name == "spike":
        kv = {"d0": 2, "N": 4, "seed": config.seed, "samples": 20000}
        for field in args.split(",") if args else ():
            m = re.fullmatch(r"(d0|N|seed|samples)=(\d+)", field)
            if m is None:
                raise ParameterError(
                    f"bad spike field {field!r}: want d0|N|seed|samples=<non-negative int>"
                )
            kv[m[1]] = int(m[2])
        ds = make_spike_dataset(**kv)
    else:
        raise ParameterError(f"unknown dataset {config.dataset!r}")
    if config.subset:
        ds = take_subset(ds, config.subset, seed=config.seed + 104729)
    return ds


def train(config, data=None, data_dir=None):
    """Run one training configuration and report accuracies.

    ``data`` short-circuits ingestion (used by sweeps and tests);
    otherwise the config's dataset string decides what to load. Every
    work array is batch x width (the hidden buffer, allocated once and
    reused by every step, and the step's hidden gradient) or chunk x
    width (in ``_accuracy``); none grows with the number of samples.
    """
    ds = _resolve_dataset(config, data, data_dir)
    if not (ds.train_x.shape[0] and ds.test_x.shape[0]):
        raise IngestionError(
            f"empty split: {ds.train_x.shape[0]} training and {ds.test_x.shape[0]} test rows"
        )
    t0 = time.monotonic()
    d_in = ds.train_x.shape[1]
    d_out = 10 if ds.kind == "classification" else 1
    init_rng = np.random.default_rng(config.seed)
    shuffle_rng = np.random.default_rng(config.seed + 7919)
    params = _init_params(init_rng, d_in, config.width, d_out)
    opt = Adam(params, config.lr)
    if config.mode == "dense":
        _clamp(params, config.clamp_numerator, d_in, config.width)

    n = ds.train_x.shape[0]
    hid = np.empty((min(config.batch, n), config.width))
    epoch_loss, epoch_acc = [], []
    loss = float("nan")
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        running, batches = 0.0, 0
        for lo in range(0, n, config.batch):
            idx = order[lo : lo + config.batch]
            loss, grads = loss_and_grads(
                params, ds.train_x[idx], ds.train_y[idx], ds.kind, hid[: idx.size]
            )
            opt.step(params, grads)
            if config.mode == "dense":
                _clamp(params, config.clamp_numerator, d_in, config.width)
            running += loss
            batches += 1
        epoch_loss.append(running / batches)
        epoch_acc.append(_accuracy(params, ds.train_x, ds.train_y, ds.kind, ds.meta))
    train_acc = (
        epoch_acc[-1]
        if epoch_acc
        else _accuracy(params, ds.train_x, ds.train_y, ds.kind, ds.meta)
    )
    test_acc = _accuracy(params, ds.test_x, ds.test_y, ds.kind, ds.meta)
    return RunMetrics(
        config=config,
        epoch_loss=epoch_loss,
        epoch_acc=epoch_acc,
        train_acc=train_acc,
        test_acc=test_acc,
        final_loss=epoch_loss[-1] if epoch_loss else float("nan"),
        wall_s=time.monotonic() - t0,
        seed=config.seed,
    )


def max_scaled_weight(params, d_in, width):
    """max over layers of |W| * d_in(layer); stays <= numerator in dense mode."""
    return max(
        float(np.abs(params["W1"]).max() * d_in),
        float(np.abs(params["W2"]).max() * width),
    )


CSV_HEADER = "width,mode,seed,train_acc,test_acc,final_loss,wall_s"


@dataclass
class SweepRow:
    width: int
    mode: str
    seed: int
    train_acc: float = float("nan")
    test_acc: float = float("nan")
    final_loss: float = float("nan")
    wall_s: float = 0.0
    error: str = ""


def _run_cell(args):
    config, data, data_dir = args
    try:
        m = train(config, data=data, data_dir=data_dir)
        return SweepRow(
            config.width, config.mode, config.seed,
            m.train_acc, m.test_acc, m.final_loss, m.wall_s,
        )
    except Exception as exc:  # a failed cell must not sink the sweep
        return SweepRow(config.width, config.mode, config.seed, error=str(exc))


def sweep(widths, modes, seeds, base_config=None, data=None, data_dir=None, jobs=1):
    """Train every (width, mode, seed) cell on min(jobs, cells) workers; rows come sorted."""
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    base = base_config or TrainConfig()
    cells = [
        (replace(base, width=w, mode=m, seed=s), data, data_dir)
        for w in sorted(widths)
        for m in sorted(modes)
        for s in sorted(seeds)
    ]
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(c) for c in cells]
    return rows


def sweep_to_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.width},{r.mode},{r.seed},{r.train_acc:.4f},{r.test_acc:.4f},"
            f"{r.final_loss:.6g},{r.wall_s:.3f}"
        )
    return "\n".join(lines) + "\n"


def sweep_summary(rows):
    """Mean and std of accuracies per (width, mode) cell."""
    cells = {}
    for r in rows:
        if r.error:
            continue
        cells.setdefault((r.width, r.mode), []).append(r)
    out = {}
    for key, rs in sorted(cells.items()):
        tr = np.array([r.train_acc for r in rs])
        te = np.array([r.test_acc for r in rs])
        out[key] = {
            "train_mean": float(tr.mean()),
            "train_std": float(tr.std()),
            "test_mean": float(te.mean()),
            "test_std": float(te.std()),
            "runs": len(rs),
        }
    return out


def numeric_gradient_check(width=8, seed=0):
    """Relative gap between backprop and central finite differences (step
    1e-4) on up to 24 entries of each parameter."""
    step = 1e-4
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(16, 5))
    y = rng.integers(0, 10, size=16)
    params = _init_params(rng, 5, width, 10)
    _, grads = loss_and_grads(params, x, y, "classification")
    worst = 0.0
    for key in params:
        flat = params[key].reshape(-1)
        gflat = grads[key].reshape(-1)
        picks = rng.choice(flat.size, size=min(24, flat.size), replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + step
            lp, _ = loss_and_grads(params, x, y, "classification")
            flat[i] = keep - step
            lm, _ = loss_and_grads(params, x, y, "classification")
            flat[i] = keep
            fd = (lp - lm) / (2 * step)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
