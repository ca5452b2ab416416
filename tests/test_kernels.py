import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densecap import kernels
from densecap.errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidBoundError,
    InvalidNetworkError,
    ParameterError,
    ParseError,
    ValidationFailedError,
)
from densecap.kernels import (
    BlockKernel,
    ComputationalGraph,
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    deserialize_kernel,
    extract_network,
    induce_graph,
    induce_input_signal,
    induce_kernel,
    lift_computational,
    serialize_kernel,
    unit_blocks,
    validate_computational,
)
from densecap.networks import DenseNetwork, random_network
from densecap.partitions import Partition, equipartition

from conftest import random_layered_net


def zero_net(L=2, d0=1, dL=1, d=4, B=None):
    B = B if B is not None else float(L + 2)
    dims = (d0,) + (d,) * (L - 1) + (dL,)
    ws = tuple(np.zeros((dims[k + 1], dims[k])) for k in range(L))
    bs = tuple(np.zeros(dims[k + 1]) for k in range(L))
    return DenseNetwork(L, d0, dL, d, B, ws, bs)


def test_zero_net_kernel_is_bias_block_only():
    net = zero_net(B=4.0)  # B = L+2
    ck = induce_kernel(net)
    c = ck.kernel.dense().coeffs.copy()
    bias = ck.layers.bias_slice
    assert np.all(c[bias, bias] == 1.0)
    c[bias, bias] = 0.0
    assert np.all(c == 0.0)


def test_first_layer_weight_scaled_to_one():
    net = zero_net(B=4.0)
    w1 = net.weights[0].copy()
    w1[0, 0] = 4.0
    net = DenseNetwork(2, 1, 1, 4, 4.0, (w1, net.weights[1]), net.biases)
    ck = induce_kernel(net)
    ls = ck.layers
    block = ck.kernel.dense().coeffs[ls.layer_slice(1), ls.in_cell_slice(0)]
    assert block[0, 0] == 1.0


def test_validation_passes_on_induced_kernels():
    rng = np.random.default_rng(0)
    for _ in range(15):
        ck = induce_kernel(random_layered_net(rng))
        report = validate_computational(ck)
        assert report.ok, report.first_failure()


def test_single_block_perturbations_fail_exactly_one_condition():
    rng = np.random.default_rng(1)
    net = random_layered_net(rng, L=3, max_d=6)
    ck = induce_kernel(net)
    ls = ck.layers

    def failing(coeffs):
        rep = validate_computational(
            ComputationalKernel(StepKernel(ls.fine_partition(), coeffs), ls, ck.B)
        )
        return [name for name, chk in rep.conditions.items() if not chk.passed]

    # zero-required block: a full input-cell column block against a
    # non-successor row (whole block, so cell constancy stays intact)
    c = ck.kernel.dense().coeffs.copy()
    c[ls.layer_slice(2).start, ls.in_cell_slice(0)] = 0.5
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("3")

    # columns under the output layer must vanish too
    c = ck.kernel.dense().coeffs.copy()
    c[ls.layer_slice(1).start, ls.layer_slice(ls.L).start] = 0.25
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("3")

    # bias block off (L+2)/B
    c = ck.kernel.dense().coeffs.copy()
    c[ls.bias_slice, ls.bias_slice] = 1.0  # wrong unless B == L+2
    assert ck.B > ls.L + 2 or pytest.skip("bound equals L+2 here")
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("4")

    # break constancy within an input cell (needs d > d0)
    if ls.d > ls.d0:
        c = ck.kernel.dense().coeffs.copy()
        row, col = ls.layer_slice(1).start, ls.in_cell_slice(0).start
        c[row, col] = 0.5 if c[row, col] <= 0.0 else -0.5
        fails = failing(c)
        assert len(fails) == 1 and fails[0].startswith("2")


def test_bound_below_depth_plus_two_is_refused():
    # a network and a kernel each refuse it, so induce_kernel never sees it
    with pytest.raises(InvalidNetworkError, match="below L\\+2"):
        zero_net(B=3.0)
    ls = LayerStructure(2, 1, 1, 4)
    with pytest.raises(InvalidBoundError, match="below L\\+2"):
        ComputationalKernel(StepKernel(ls.fine_partition(), np.zeros((16, 16))), ls, 3.0)


def test_computational_kernel_refuses_a_partition_other_than_the_layout():
    ls = LayerStructure(2, 1, 1, 4)
    uneven = Partition(np.random.default_rng(0).dirichlet(np.ones(ls.n)))
    with pytest.raises(ParameterError, match="layout's 16 equal parts"):
        ComputationalKernel(StepKernel(uneven, np.zeros((16, 16))), ls, 4.0)
    with pytest.raises(ParameterError, match="layout's 16 equal parts"):
        ComputationalKernel(StepKernel(equipartition(20), np.zeros((20, 20))), ls, 4.0)


def test_roundtrip_exact_power_of_two_bound():
    rng = np.random.default_rng(2)
    for _ in range(25):
        net = random_layered_net(rng, B=8.0)
        back = extract_network(induce_kernel(net))
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)


def test_roundtrip_near_exact_general_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        net = random_layered_net(rng)
        back = extract_network(induce_kernel(net))
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.allclose(a, b, rtol=1e-15, atol=0)


def test_extract_requires_valid_kernel():
    rng = np.random.default_rng(4)
    ck = induce_kernel(random_layered_net(rng))
    c = ck.kernel.dense().coeffs.copy()
    c[ck.layers.layer_slice(0).start, ck.layers.layer_slice(0).start] = 0.9
    bad = ComputationalKernel(
        StepKernel(ck.layers.fine_partition(), c), ck.layers, ck.B
    )
    with pytest.raises(ValidationFailedError):
        extract_network(bad)


def test_graph_kernel_commuting_square_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_layered_net(rng)
        ck = induce_kernel(net)
        via_graph = induce_graph(net).dense() / net.B
        assert np.array_equal(ck.kernel.dense().coeffs, via_graph)


def test_zero_net_graph_has_only_bias_edges():
    net = zero_net(L=2, d=4, B=4.0)
    g = induce_graph(net)
    a = g.dense()
    bias = g.layers.bias_slice
    assert np.all(a[bias, bias] == 4.0)  # L+2
    a[bias, bias] = 0.0
    assert np.all(a == 0.0)


def test_minimal_width_equals_cell_lcm():
    rng = np.random.default_rng(6)
    net = random_network(2, 2, 3, 6, 5.0, rng)  # d = lcm(2,3)
    ck = induce_kernel(net)
    assert ck.n == 6 * 4
    assert validate_computational(ck).ok


def test_induced_signal_values_and_zero_input():
    ls = LayerStructure(2, 2, 1, 4)
    sig = induce_input_signal(np.array([0.3, -0.7]), ls)
    assert np.all(sig.values[ls.in_cell_slice(0)] == 0.3)
    assert np.all(sig.values[ls.in_cell_slice(1)] == -0.7)
    assert np.all(sig.values[ls.bias_slice] == 1.0)
    zero = induce_input_signal(np.zeros(2), ls)
    nz = np.flatnonzero(zero.values)
    assert np.array_equal(nz, np.arange(ls.bias_slice.start, ls.bias_slice.stop))


def test_induced_signal_integral():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ls = LayerStructure(
            int(rng.integers(2, 5)), int(rng.integers(1, 4)), 1, 12
        )
        x = rng.uniform(-2, 2, ls.d0)
        sig = induce_input_signal(x, ls)
        integral = float(np.sum(sig.values * sig.partition.measures))
        expected = x.sum() / ((ls.L + 2) * ls.d0) + 1.0 / (ls.L + 2)
        assert abs(integral - expected) <= 1e-12


def test_lift_preserves_kernel_function():
    rng = np.random.default_rng(8)
    ck = induce_kernel(random_layered_net(rng, max_d=6))
    lifted = lift_computational(ck, 3)
    assert lifted.n == 3 * ck.n
    assert validate_computational(lifted).ok
    # block values repeat
    assert np.array_equal(
        lifted.kernel.coeffs[::3, ::3][: ck.n, : ck.n], ck.kernel.dense().coeffs
    )


def test_kernel_serialization_round_trip():
    rng = np.random.default_rng(9)
    ck = induce_kernel(random_layered_net(rng, max_d=6))
    back = deserialize_kernel(serialize_kernel(ck))
    assert np.array_equal(back.kernel.coeffs, ck.kernel.dense().coeffs)
    assert back.B == ck.B
    assert (back.layers.L, back.layers.d0, back.layers.dL) == (
        ck.layers.L, ck.layers.d0, ck.layers.dL,
    )


def test_kernel_deserialize_errors():
    rng = np.random.default_rng(10)
    text = serialize_kernel(induce_kernel(random_layered_net(rng, max_d=4)))
    with pytest.raises(ParseError):
        deserialize_kernel("densecap-kernel v2\n")
    lines = text.splitlines()
    with pytest.raises(ParseError) as exc:
        deserialize_kernel("\n".join(lines[:4]))
    assert "truncated" in str(exc.value)


@pytest.mark.parametrize(
    "header, row, line",
    [
        ("4 x 1 1 5", "0 0 0 0", 2),
        ("4 2 1 1 five", "0 0 0 0", 2),
        ("4 -2 1 1 5", "0 0 0 0", 2),
        ("4 2 1 1 5", "0 0 zero 0", 3),
    ],
)
def test_kernel_deserialize_bad_numbers_are_parse_errors(header, row, line):
    text = "\n".join(["densecap-kernel v1", header] + [row] * 4)
    with pytest.raises(ParseError) as exc:
        deserialize_kernel(text)
    assert exc.value.line == line


@pytest.mark.parametrize("bad", [1.5, -np.inf, np.nan])
def test_step_kernel_rejects_out_of_range_coefficients(bad):
    # NaN would also break the exact row merge of the cut norm
    with pytest.raises(ParameterError):
        StepKernel(equipartition(2), np.array([[0.5, bad], [0.0, 1.0]]))


def test_step_kernel_refuses_a_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        StepKernel(equipartition(2), np.zeros((2, 3)))


def test_step_kernel_is_the_one_block_block_kernel():
    coeffs = np.random.default_rng(0).uniform(-1, 1, (3, 3))
    kern = StepKernel(equipartition(3), coeffs)
    assert isinstance(kern, BlockKernel)
    ((rows, cols, a),) = kern.blocks
    assert rows == cols == slice(0, 3)
    assert a is kern.coeffs and np.array_equal(a, coeffs)
    assert not kern.coeffs.flags.writeable
    assert np.array_equal(BlockKernel(kern.partition, kern.blocks).dense().coeffs, coeffs)
    # the class adds its constructor and ``coeffs``, and checks nothing of its own
    own = {k for k, v in vars(StepKernel).items() if callable(v) or isinstance(v, property)}
    assert own == {"__init__", "coeffs"}


def test_layer_structure_rejects_bad_divisibility():
    with pytest.raises(ParameterError):
        LayerStructure(2, 2, 1, 3)




def test_nan_bound_is_refused():
    text = serialize_kernel(induce_kernel(zero_net(B=4.0))).splitlines()
    text[1] = text[1].rsplit(" ", 1)[0] + " nan"
    with pytest.raises(InvalidBoundError, match="B=nan"):
        deserialize_kernel("\n".join(text))


@pytest.mark.parametrize("B", [math.inf, math.nan])
def test_non_finite_bound_is_refused(B):
    with pytest.raises(InvalidNetworkError, match="not finite"):
        zero_net(B=B)
    ls = LayerStructure(2, 1, 1, 4)
    with pytest.raises(InvalidBoundError, match="not finite"):
        ComputationalKernel(StepKernel(ls.fine_partition(), np.zeros((16, 16))), ls, B)


@pytest.mark.parametrize("B", ["inf", "Infinity"])
def test_kernel_file_with_an_infinite_bound_is_refused(B):
    text = serialize_kernel(induce_kernel(zero_net(B=4.0))).splitlines()
    text[1] = text[1].rsplit(" ", 1)[0] + f" {B}"
    with pytest.raises(InvalidBoundError, match="not finite"):
        deserialize_kernel("\n".join(text))


def test_deserialize_kernel_peak_is_near_the_array():
    ck = induce_kernel(random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42)))
    text = serialize_kernel(ck)
    tracemalloc.start()
    try:
        back = deserialize_kernel(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.kernel.coeffs.tobytes() == ck.kernel.dense().coeffs.tobytes()
    assert peak <= 2 * ck.kernel.dense().coeffs.nbytes


def test_deserialize_kernel_checks_the_header_before_the_rows():
    # L = 1 is refused on the dimensions line although row 0 is malformed
    text = "\n".join(["densecap-kernel v1", "1200 1 2 2 5.0", "not a row"] + ["0"] * 1199)
    with pytest.raises(ParseError, match="depth L=1") as exc:
        deserialize_kernel(text)
    assert exc.value.line == 2


def test_deserialize_kernel_short_row_names_its_line():
    text = "\n".join(["densecap-kernel v1", "4 2 1 1 5"] + ["0 0 0 0"] * 3 + ["0 0 0"])
    with pytest.raises(ParseError, match="row 3 has 3 entries, expected 4") as exc:
        deserialize_kernel(text)
    assert exc.value.line == 6


def test_deserialize_kernel_too_short_for_its_rows_allocates_no_array():
    # 40,000 empty rows cannot hold a 40,000-wide kernel (12.8 GB as an array)
    text = "densecap-kernel v1\n40000 2 1 1 5\n" + "\n" * 40_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="row 0 has 0 entries") as exc:
            deserialize_kernel(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 3
    assert peak < 1 << 20


@pytest.mark.parametrize("where", ["entry", "B"])
def test_graph_refuses_nan(where):
    ls = LayerStructure(2, 1, 1, 2)
    a = np.zeros((ls.n, ls.n))
    a[0, 0] = np.nan if where == "entry" else 0.0
    whole = slice(0, ls.n)
    with pytest.raises(ParameterError, match="exceeds B"):
        ComputationalGraph(((whole, whole, a),), ls, float("nan") if where == "B" else 4.0)


# Per-cell statements of the layered layout, one loop per input or output
# cell, kept as the reference the unit-view code must match bit for bit.


def reference_fill(net, divisor):
    ls = LayerStructure(net.L, net.d0, net.dL, net.d)
    a = np.zeros((ls.n, ls.n))
    w1 = net.weights[0] / divisor
    for j in range(net.d0):
        a[ls.layer_slice(1), ls.in_cell_slice(j)] = w1[:, j : j + 1]
    for ell in range(2, net.L):
        a[ls.layer_slice(ell), ls.layer_slice(ell - 1)] = net.weights[ell - 1] / divisor
    wl = net.weights[net.L - 1] / divisor
    for i in range(net.dL):
        a[ls.out_cell_slice(i), ls.layer_slice(net.L - 1)] = wl[i : i + 1, :]
    bias = ls.bias_slice
    for ell in range(1, net.L):
        a[ls.layer_slice(ell), bias] = (net.biases[ell - 1] / divisor)[:, None]
    bl = net.biases[net.L - 1] / divisor
    for i in range(net.dL):
        a[ls.out_cell_slice(i), bias] = bl[i]
    a[bias, bias] = (net.L + 2) / divisor
    return a


def reference_input_signal(x, ls):
    vals = np.zeros(ls.n)
    for j in range(ls.d0):
        vals[ls.in_cell_slice(j)] = x[j]
    vals[ls.bias_slice] = 1.0
    return vals


def reference_extract(ck):
    ls, c, B = ck.layers, ck.kernel.dense().coeffs, ck.B
    w1 = np.empty((ls.d, ls.d0))
    for j in range(ls.d0):
        w1[:, j] = B * c[ls.layer_slice(1), ls.in_cell_slice(j).start]
    weights = [w1]
    for ell in range(2, ls.L):
        weights.append(B * c[ls.layer_slice(ell), ls.layer_slice(ell - 1)])
    wl = np.empty((ls.dL, ls.d))
    for i in range(ls.dL):
        wl[i, :] = B * c[ls.out_cell_slice(i).start, ls.layer_slice(ls.L - 1)]
    weights.append(wl)
    bias_col = ls.bias_slice.start
    biases = [B * c[ls.layer_slice(ell), bias_col] for ell in range(1, ls.L)]
    bl = np.empty(ls.dL)
    for i in range(ls.dL):
        bl[i] = B * c[ls.out_cell_slice(i).start, bias_col]
    return weights, biases + [bl]


def reference_verdicts(ck, atol=1e-12):
    """Pass/fail of conditions 1-4, with condition 2 over whole cell columns/rows."""
    ls, c = ck.layers, ck.kernel.dense().coeffs
    if not np.allclose(ck.kernel.partition.measures, 1.0 / ls.n, rtol=0, atol=1e-12):
        return [False] * 4
    devs = [np.abs(c[:, s] - c[:, s][:, :1]).max() for s in map(ls.in_cell_slice, range(ls.d0))]
    devs += [np.abs(c[s] - c[s][:1]).max() for s in map(ls.out_cell_slice, range(ls.dL))]
    devs.append(np.abs(c[:, ls.bias_slice] - c[:, ls.bias_slice][:, :1]).max())
    mask = np.zeros((ls.n, ls.n), dtype=bool)
    for ell in range(ls.L):
        mask[ls.layer_slice(ell + 1), ls.layer_slice(ell)] = True
    for ell in range(1, ls.L + 1):
        mask[ls.layer_slice(ell), ls.bias_slice] = True
    mask[ls.bias_slice, ls.bias_slice] = True
    bias = c[ls.bias_slice, ls.bias_slice]
    return [
        True,
        max(devs) <= atol,
        np.abs(np.where(mask, 0.0, c)).max() <= atol,
        np.abs(bias - (ls.L + 2) / ck.B).max() <= atol,
    ]


def divisors(d):
    return [k for k in range(1, d + 1) if d % k == 0]


@st.composite
def layouts(draw):
    d = draw(st.integers(1, 24))
    return (
        draw(st.integers(2, 5)),
        draw(st.sampled_from(divisors(d))),
        draw(st.sampled_from(divisors(d))),
        d,
    )


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
@example(layout=(2, 6, 2, 6), seed=0)  # d0 = d
@example(layout=(3, 2, 6, 6), seed=1)  # dL = d
@example(layout=(4, 1, 3, 12), seed=2)  # d0 = 1
@example(layout=(2, 1, 1, 1), seed=3)  # one part per region
def test_layout_matches_the_per_cell_reference(layout, seed):
    L, d0, dL, d = layout
    rng = np.random.default_rng(seed)
    net = random_network(L, d0, dL, d, float(rng.uniform(L + 2, 10.0)), rng)
    ck, g = induce_kernel(net), induce_graph(net)
    assert same_bits(ck.kernel.dense().coeffs, reference_fill(net, float(net.B)))
    assert same_bits(g.dense(), reference_fill(net, 1.0))
    x = rng.uniform(-1.0, 1.0, d0)
    assert same_bits(induce_input_signal(x, ck.layers).values, reference_input_signal(x, ck.layers))
    back = extract_network(ck)
    weights, biases = reference_extract(ck)
    for got, want in zip(back.weights + back.biases, weights + biases):
        assert same_bits(got, want)
    a = np.zeros((ck.n, ck.n))
    for block in ck.layers.blocks():
        assert np.shares_memory(ck.layers.units(a, *block), a)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hits=st.integers(1, 4),
    log_size=st.floats(-9.0, 0.0),
)
def test_validation_matches_the_per_cell_reference(seed, hits, log_size):
    """Perturbed kernels get the reference's verdict.

    Condition 2 now looks only inside the allowed blocks, so variation off
    them is reported by condition 3 alone: the verdicts of 1, 2 and 4 agree
    wherever 3 passes, and ``ok`` agrees everywhere. Entries are moved by at
    least 1e-9, well past the 1e-12 tolerance: two entries within twice the
    tolerance of each other can straddle it differently in the two checks.
    """
    rng = np.random.default_rng(seed)
    ck = induce_kernel(random_layered_net(rng, max_d=12))
    c = ck.kernel.dense().coeffs.copy()
    for _ in range(hits):
        i, j = rng.integers(0, ck.n, 2)
        c[i, j] = np.clip(c[i, j] + rng.choice([-1.0, 1.0]) * 10.0**log_size, -1.0, 1.0)
    bent = ComputationalKernel(StepKernel(ck.kernel.partition, c), ck.layers, ck.B)
    got = [chk.passed for chk in validate_computational(bent).conditions.values()]
    want = reference_verdicts(bent)
    assert all(got) == all(want)
    if want[2]:
        assert got == want


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(2, 4), d0=st.integers(1, 3), dL=st.integers(1, 3),
    mult=st.integers(1, 4), seed=st.integers(0, 2**16),
)
@example(L=2, d0=1, dL=1, mult=1, seed=0)
@example(L=3, d0=2, dL=3, mult=1, seed=1)
def test_unit_quotient_is_the_kernel_on_its_units(L, d0, dL, mult, seed):
    d = math.lcm(d0, dL) * mult
    net = random_network(L, d0, dL, d, L + 3.0, np.random.default_rng(seed))
    ck = induce_kernel(net)
    ls = ck.layers
    assert net.layers == ls
    parts = ls.unit_parts()
    assert parts.size == ls.n_units and parts.sum() == ls.n
    # the regions' unit ranges tile 0..n_units in layout order
    starts = 0
    for k in list(range(L + 1)) + ["bias"]:
        sl = ls.unit_slice(k)
        assert (sl.start, sl.stop) == (starts, starts + ls.width(k))
        assert np.all(parts[sl] == d // ls.width(k))
        starts = sl.stop
    assert starts == ls.n_units
    q = unit_blocks(ck).dense()
    assert np.array_equal(q.partition.measures, parts / ls.n)
    # spreading each unit back over its parts gives the kernel bitwise
    fine = np.repeat(np.repeat(q.coeffs, parts, axis=0), parts, axis=1)
    assert np.array_equal(fine, ck.kernel.dense().coeffs)
    # read straight off the weights, the quotient is the same bits
    qn = unit_blocks(net).dense()
    assert same_bits(qn.coeffs, q.coeffs)
    assert same_bits(qn.partition.measures, q.partition.measures)
    # its blocks are the nonzero blocks of the dense quotient, row-major
    bk = unit_blocks(net)
    assert [(r.start, c.start) for r, c, _ in bk.blocks] == sorted(
        (ls.unit_slice(r).start, ls.unit_slice(c).start) for r, c in ls.blocks()
    )
    assert all(same_bits(a, q.coeffs[r, c]) for r, c, a in bk.blocks)


def test_unit_quotient_of_a_kernel_holds_only_its_blocks():
    # a 1 x 1 view of the n x n array counts as contiguous, so a block kept
    # as a view would hold the whole 11 MiB array
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(1))
    ck = induce_kernel(net)
    tracemalloc.start()
    try:
        q = unit_blocks(ck)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for _, _, a in q.blocks)
    assert held < 2 * size < 1 << 20
    assert all(same_bits(a, b[2]) for (_, _, a), b in zip(q.blocks, unit_blocks(net).blocks))


def test_unit_quotient_refuses_a_kernel_that_is_not_layered():
    ck = induce_kernel(random_network(2, 1, 1, 4, 6.0, np.random.default_rng(0)))
    ls = ck.layers
    off, varies = ck.kernel.dense().coeffs.copy(), ck.kernel.dense().coeffs.copy()
    off[0] = 0.9  # a layer-0 row must vanish
    varies[ls.layer_slice(1).start, ls.layer_slice(0).start] += 0.01
    for c, condition in ((off, "3 \\(zero"), (varies, "2 \\(cell constancy")):
        bent = ComputationalKernel(StepKernel(ck.kernel.partition, c), ls, ck.B)
        with pytest.raises(ValidationFailedError, match=f"^kernel is not layered: {condition}"):
            unit_blocks(bent)


def _top_right(a):
    return ((slice(0, 2), slice(2, 4), a),)


@pytest.mark.parametrize("blocks, error", [
    (_top_right(np.zeros((2, 3))), DimensionMismatchError),
    (_top_right(np.full((2, 2), 1.5)), ParameterError),
    (_top_right(np.full((2, 2), np.nan)), ParameterError),
    # bounds must be explicit, within the 4 parts, with unit step
    (((slice(None), slice(0, 4), np.zeros((4, 4))),), ParameterError),
    (((slice(-2, 4), slice(0, 2), np.zeros((2, 2))),), ParameterError),
    (((slice(2, 6), slice(0, 2), np.zeros((2, 2))),), ParameterError),
    (((slice(0, 4, 2), slice(0, 2), np.zeros((2, 2))),), ParameterError),
    (((0, slice(0, 2), np.zeros((1, 2))),), ParameterError),
    # and blocks must not overlap, in whatever order they come
    (((slice(1, 3), slice(1, 3), np.ones((2, 2))), (slice(0, 2), slice(0, 2), np.ones((2, 2)))),
     ParameterError),
])
def test_block_kernel_refuses_bad_blocks(blocks, error):
    with pytest.raises(error):
        BlockKernel(equipartition(4), blocks)


def test_induction_refuses_an_array_over_the_entry_cap(monkeypatch):
    net = zero_net(d=4)  # n = 16: 5 blocks of 4 x 4 hold 80 entries
    monkeypatch.setattr(kernels, "MAX_INDUCED_ENTRIES", 79)
    for induce in (induce_kernel, induce_graph):
        with pytest.raises(CapacityError, match="induced 16 x 16 array exceeds 79 entries "
                           "even as its 5 blocks of 4 x 4"):
            induce(net)
    monkeypatch.setattr(kernels, "MAX_INDUCED_ENTRIES", 80)
    assert induce_kernel(net).n == induce_graph(net).n == 16


def test_dense_keeps_the_n_squared_cap(monkeypatch):
    net = zero_net(d=4)  # 80 entries in the blocks, 256 in the dense array
    monkeypatch.setattr(kernels, "MAX_INDUCED_ENTRIES", 255)
    ck, g = induce_kernel(net), induce_graph(net)  # the blocks fit
    for dense in (ck.kernel.dense, g.dense, lambda: serialize_kernel(ck),
                  lambda: validate_computational(ck), lambda: extract_network(ck)):
        with pytest.raises(CapacityError, match="dense 16 x 16 array exceeds 255 entries"):
            dense()
    monkeypatch.setattr(kernels, "MAX_INDUCED_ENTRIES", 256)
    assert ck.kernel.dense().n == g.dense().shape[0] == 16
