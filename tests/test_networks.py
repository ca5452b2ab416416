import os
import threading
import tracemalloc

import numpy as np
import pytest

from densecap import cutnorm, kernels
from densecap.errors import (
    DimensionMismatchError,
    InvalidBoundError,
    InvalidNetworkError,
    ParseError,
)
from densecap.networks import (
    FORWARD_CHUNK,
    DenseNetwork,
    LayerStructure,
    deserialize_network,
    forward,
    forward_threads,
    param_count,
    random_network,
    serialize_network,
)
from densecap.threads import spread
from densecap.verify import straight_line_forward

from conftest import random_layered_net


def all_b_net(L=2, B=4.0, d0=1, dL=1, d=4):
    dims = (d0,) + (d,) * (L - 1) + (dL,)
    ws = tuple(np.full((dims[k + 1], dims[k]), B) for k in range(L))
    bs = tuple(np.zeros(dims[k + 1]) for k in range(L))
    return DenseNetwork(L, d0, dL, d, B, ws, bs)


def test_forward_hand_example_all_b():
    net = all_b_net()
    out = forward(net, np.array([1.0]))
    assert out.shape == (1,)
    assert out[0] == 1.0


def test_forward_zero_network():
    rng = np.random.default_rng(0)
    net = DenseNetwork(
        3, 2, 2, 4, 6.0,
        (np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 4))),
        (np.zeros(4), np.zeros(4), np.zeros(2)),
    )
    assert np.all(forward(net, rng.uniform(-5, 5, 2)) == 0.0)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(1)
    net = random_network(3, 2, 2, 12, 5.0, rng)
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        assert np.abs(forward(net, x) - straight_line_forward(net, x)).max() <= 1e-12


def test_forward_oracle_many_random_pairs():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        net = random_layered_net(rng, max_d=8)
        x = rng.uniform(-1, 1, net.d0)
        gap = np.abs(forward(net, x) - straight_line_forward(net, x)).max()
        worst = max(worst, float(gap))
    assert worst <= 1e-12


def test_forward_batch_matches_single():
    rng = np.random.default_rng(3)
    net = random_layered_net(rng)
    xs = rng.uniform(0, 1, (5, net.d0))
    batch = forward(net, xs)
    for k in range(5):
        assert np.array_equal(batch[k], forward(net, xs[k]))


def test_forward_dimension_mismatch():
    net = all_b_net()
    with pytest.raises(DimensionMismatchError) as exc:
        forward(net, np.zeros(3))
    assert "expected (1,)" in str(exc.value)


def test_param_count_formula_examples():
    assert param_count(2, 1, 1, 4) == 29
    assert param_count(2, 1, 1, 1) == 5


def test_param_count_vs_entry_enumeration():
    # The counting formula treats the first hidden matrix as d x d, i.e. it
    # exceeds a literal entry count of the (d0, d, ..., d, dL) layout by
    # exactly d^2. Both spot examples above come from the formula, so the
    # enumeration check pins the formula through that offset.
    for L in range(2, 9):
        for d0 in range(1, 9):
            for dL in range(1, 9):
                for d in range(1, 9):
                    dims = (d0,) + (d,) * (L - 1) + (dL,)
                    entries = sum(
                        dims[k + 1] * dims[k] + dims[k + 1] for k in range(L)
                    )
                    assert param_count(L, d0, dL, d) == entries + d * d


def test_param_count_monotone_in_width():
    for d in range(1, 30):
        assert param_count(3, 2, 2, d + 1) > param_count(3, 2, 2, d)


def test_network_invariants_enforced():
    with pytest.raises(InvalidNetworkError):
        DenseNetwork(1, 1, 1, 2, 4.0, (np.zeros((2, 1)),), (np.zeros(2),))
    with pytest.raises(InvalidNetworkError):
        # hidden width not divisible by the output dimension
        DenseNetwork(
            2, 1, 2, 3, 4.0,
            (np.zeros((3, 1)), np.zeros((2, 3))), (np.zeros(3), np.zeros(2)),
        )
    with pytest.raises(InvalidNetworkError) as exc:
        DenseNetwork(
            2, 1, 1, 2, 4.0,
            (np.array([[9.0], [0.0]]), np.zeros((1, 2))),
            (np.zeros(2), np.zeros(1)),
        )
    assert "W[1]" in str(exc.value) and "(0, 0)" in str(exc.value)


@pytest.mark.parametrize("where", ["B", "W", "b"])
def test_nan_is_refused_by_validation(where):
    ws = [np.zeros((2, 1)), np.zeros((1, 2))]
    bs = [np.zeros(2), np.zeros(1)]
    B = float("nan") if where == "B" else 4.0
    if where == "W":
        ws[1][0, 1] = np.nan
    elif where == "b":
        bs[0][1] = np.nan
    with pytest.raises(InvalidNetworkError) as exc:
        DenseNetwork(2, 1, 1, 2, B, tuple(ws), tuple(bs))
    want = {"B": "B=nan", "W": "W[2] entry (0, 1) = nan", "b": "b[1] entry (1,) = nan"}
    assert want[where] in str(exc.value)


@pytest.mark.parametrize("line", [1, 3, 8])
def test_deserialize_bad_number_names_the_line(line):
    lines = serialize_network(all_b_net()).splitlines()
    assert lines[2] == "W 1" and lines[7] == "b 1"
    fields = lines[line].split()
    lines[line] = " ".join(["x"] + fields[1:])
    with pytest.raises(ParseError) as exc:
        deserialize_network("\n".join(lines))
    assert f"(line {line + 1})" in str(exc.value)


def test_serialize_round_trip_bit_identical():
    rng = np.random.default_rng(6)
    net = random_layered_net(rng)
    back = deserialize_network(serialize_network(net))
    assert (back.L, back.d0, back.dL, back.d, back.B) == (
        net.L, net.d0, net.dL, net.d, net.B,
    )
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert np.array_equal(a, b)


def test_deserialize_truncated_names_missing_section():
    rng = np.random.default_rng(7)
    text = serialize_network(random_layered_net(rng, max_d=4))
    lines = text.splitlines()
    with pytest.raises(ParseError) as exc:
        deserialize_network("\n".join(lines[: len(lines) // 2]))
    assert "missing" in str(exc.value) or "expected" in str(exc.value)


def test_deserialize_rejects_out_of_bound_weight():
    net = all_b_net(B=4.0)
    lines = serialize_network(net).splitlines()
    assert lines[2] == "W 1"
    lines[3] = "400.0"  # first row of W 1, now past the bound
    with pytest.raises((InvalidNetworkError, ParseError)) as exc:
        deserialize_network("\n".join(lines))
    assert "W[1]" in str(exc.value)


@pytest.mark.parametrize("B", ["inf", "Infinity", "nan"])
def test_deserialize_refuses_a_non_finite_bound(B):
    lines = serialize_network(all_b_net(B=4.0)).splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + f" {B}"
    with pytest.raises(InvalidNetworkError, match="not finite"):
        deserialize_network("\n".join(lines))


def test_deserialize_checks_layers_before_allocating():
    # a 38-byte file whose header claims ten million layers
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated record"):
            deserialize_network("densecap-net v1\n10000000 1 1 1 5.0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deserialize_network_peak_is_near_the_arrays():
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    text = serialize_network(net)
    tracemalloc.start()
    try:
        back = deserialize_network(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert a.tobytes() == b.tobytes()
    # the arrays plus one row's parse buffers; the range check copies nothing
    assert peak <= 1.5 * sum(a.nbytes for a in net.weights + net.biases)


@pytest.mark.parametrize("header", ["2 0 1 4 4.0", "2 1 -1 4 4.0", "2 1 1 -4 4.0"])
def test_deserialize_refuses_non_positive_widths_on_their_line(header):
    with pytest.raises(ParseError, match="must be positive") as exc:
        deserialize_network(f"densecap-net v1\n{header}\nW 1\n")
    assert exc.value.line == 2


def test_deserialize_refuses_an_indivisible_width_at_its_header():
    # a complete file whose hidden width 3 the output width 2 does not divide
    text = "densecap-net v1\n2 1 2 3 5.0\nW 1\n0.0\n0.0\n0.0\nb 1\n0.0 0.0 0.0\n"
    text += "W 2\n0.0 0.0 0.0\n0.0 0.0 0.0\nb 2\n0.0 0.0\n"
    with pytest.raises(ParseError, match="not divisible by d0=1, dL=2") as exc:
        deserialize_network(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("args, error", [
    ((2, 1, 2, 3, 5.0), InvalidNetworkError),  # dL=2 does not divide d=3
    ((1, 1, 1, 3, 5.0), InvalidNetworkError),  # depth below 2
    ((2, 1, 1, 3, 3.0), InvalidBoundError),  # B below L+2
])
def test_random_network_refuses_before_drawing(args, error):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        random_network(*args, rng)
    assert rng.bit_generator.state == state


def test_network_layers_is_its_layer_structure():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_layered_net(rng)
        assert net.layers == LayerStructure(net.L, net.d0, net.dL, net.d)
    assert kernels.LayerStructure is LayerStructure


def test_deserialize_bad_header():
    with pytest.raises(ParseError):
        deserialize_network("not-a-net v9\n2 1 1 4 4.0\n")


def test_size_is_fixed_width_form():
    net = all_b_net(L=2, d=4)
    assert net.layers.n == 16


def test_rebuilding_a_network_copies_no_layer():
    # the range check screens each array by its max and min, so valid
    # arrays get no |W| copy or mask (the widest layer is 7.4 MB)
    net = random_network(3, 2, 2, 960, 5.0, np.random.default_rng(42))
    tracemalloc.start()
    try:
        DenseNetwork(net.L, net.d0, net.dL, net.d, net.B, net.weights, net.biases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(w.nbytes for w in net.weights) / 8


def expression_forward(net, x):
    """The forward pass as one out-of-place expression per layer."""
    h = np.asarray(x, dtype=float)
    dims = net.layer_dims
    for ell in range(1, net.L + 1):
        w, b = net.weights[ell - 1], net.biases[ell - 1]
        d_prev = dims[ell - 1]
        pre = (h @ w.T + d_prev * b) / (d_prev * (net.L + 2))
        h = pre if ell == net.L else np.maximum(pre, 0.0)
    return h


def chunked_expression(net, x):
    """``expression_forward`` on forward's grid of FORWARD_CHUNK rows."""
    rows = np.asarray(x, dtype=float).reshape(-1, net.d0)
    out = np.empty((len(rows), net.dL))
    for lo in range(0, len(rows), FORWARD_CHUNK):
        out[lo : lo + FORWARD_CHUNK] = expression_forward(net, rows[lo : lo + FORWARD_CHUNK])
    return out.reshape(np.shape(x)[:-1] + (net.dL,))


def test_forward_in_place_matches_the_expression():
    # forward updates its pre-activations in place; the out-of-place
    # expression is the reference, bit for bit
    reference = expression_forward
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = random_layered_net(rng)
        for x in (rng.uniform(0, 1, net.d0), rng.uniform(-1, 1, (7, net.d0))):
            x_before = x.copy()
            assert forward(net, x).tobytes() == reference(net, x).tobytes()
            assert np.array_equal(x, x_before)


# at d = 240 the 240 -> 2 output product rounds differently for chunks of
# 512 and 1,024 rows, so these pin forward's grid, not just its arithmetic
WIDE = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(23))


@pytest.mark.parametrize(
    "shape",
    [(0, 2), (1, 2), (FORWARD_CHUNK - 1, 2), (FORWARD_CHUNK, 2), (FORWARD_CHUNK + 1, 2),
     (5 * FORWARD_CHUNK // 2, 2), (3, 300, 2)],
)
def test_forward_follows_the_chunk_grid(shape):
    x = np.random.default_rng(sum(shape)).uniform(0.0, 1.0, shape)
    out = forward(WIDE, x)
    assert out.shape == shape[:-1] + (2,)
    assert out.tobytes() == chunked_expression(WIDE, x).tobytes()


def test_forward_does_not_depend_on_the_thread_count(monkeypatch):
    x = np.random.default_rng(29).uniform(0.0, 1.0, (10_000, 2))
    outs = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        assert forward_threads(len(x)) == cpus
        outs.append(forward(WIDE, x).tobytes())
    assert outs[0] == outs[1]


# each spreads its work over threads.spread: (the numpy function its
# workers call, a call given work for two threads at least)
SPREAD = {
    "forward": ("matmul", lambda x: forward(WIDE, x)),
    "enumeration": (
        "abs", lambda x: cutnorm._best_subset_enumeration(x.ravel()[:84].reshape(14, 6), 14)
    ),
}


@pytest.mark.parametrize("caller", SPREAD)
def test_threads_are_joined(caller):
    x = np.random.default_rng(31).uniform(0.0, 1.0, (10_000, 2))
    before = threading.active_count()
    SPREAD[caller][1](x)
    assert threading.active_count() == before


@pytest.mark.parametrize("caller", SPREAD)
def test_a_worker_thread_error_is_raised(monkeypatch, caller):
    name, call = SPREAD[caller]
    real = getattr(np, name)

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    monkeypatch.setattr(np, name, failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed"):
        call(np.zeros((2 * FORWARD_CHUNK, 2)))
    assert threading.active_count() == before


def test_spread_raises_the_lowest_failing_run():
    # run 2 fails first in time, run 1 after it: run 1's error is raised
    failed = threading.Event()

    def run(k):
        if k == 2:
            failed.set()
            raise ValueError("run 2")
        if k == 1:
            failed.wait(10)
            raise ValueError("run 1")
        return k

    before = threading.active_count()
    with pytest.raises(ValueError, match="run 1"):
        spread(run, 3)
    assert threading.active_count() == before
    assert spread(lambda k: k * k, 3) == [0, 1, 4]


def test_forward_peak_is_its_chunk_buffers():
    # each thread holds two (chunk, d) buffers, whatever the batch size, and
    # up to numpy's 64 KB ufunc buffer while it adds the broadcast biases
    x = np.random.default_rng(37).uniform(0.0, 1.0, (10_000, 2))
    threads = forward_threads(len(x))
    output = len(x) * WIDE.dL * 8
    tracemalloc.start()
    try:
        forward(WIDE, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < threads * (2 * FORWARD_CHUNK * WIDE.d * 8 + 128 * 1024) + output
