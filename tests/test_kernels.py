import numpy as np
import pytest

from densecap.errors import (
    InvalidBoundError,
    ParameterError,
    ParseError,
    ValidationFailedError,
)
from densecap.kernels import (
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    deserialize_kernel,
    extract_network,
    graph_to_kernel,
    induce_graph,
    induce_input_signal,
    induce_kernel,
    lift_computational,
    serialize_kernel,
    validate_computational,
)
from densecap.networks import DenseNetwork, random_network
from densecap.partitions import equipartition

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
    c = ck.kernel.coeffs.copy()
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
    block = ck.kernel.coeffs[ls.layer_slice(1), ls.in_cell_slice(0)]
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
    c = ck.kernel.coeffs.copy()
    c[ls.layer_slice(2).start, ls.in_cell_slice(0)] = 0.5
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("3")

    # columns under the output layer must vanish too
    c = ck.kernel.coeffs.copy()
    c[ls.layer_slice(1).start, ls.layer_slice(ls.L).start] = 0.25
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("3")

    # bias block off (L+2)/B
    c = ck.kernel.coeffs.copy()
    c[ls.bias_slice, ls.bias_slice] = 1.0  # wrong unless B == L+2
    assert ck.B > ls.L + 2 or pytest.skip("bound equals L+2 here")
    fails = failing(c)
    assert len(fails) == 1 and fails[0].startswith("4")

    # break constancy within an input cell (needs d > d0)
    if ls.d > ls.d0:
        c = ck.kernel.coeffs.copy()
        row, col = ls.layer_slice(1).start, ls.in_cell_slice(0).start
        c[row, col] = 0.5 if c[row, col] <= 0.0 else -0.5
        fails = failing(c)
        assert len(fails) == 1 and fails[0].startswith("2")


def test_induce_requires_bound_at_least_depth():
    net = zero_net(B=4.0)
    object.__setattr__(net, "B", 3.0)  # bypass the constructor check
    with pytest.raises(InvalidBoundError):
        induce_kernel(net)


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
    c = ck.kernel.coeffs.copy()
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
        via_graph = graph_to_kernel(induce_graph(net), net.B)
        assert np.array_equal(ck.kernel.coeffs, via_graph.coeffs)


def test_zero_net_graph_has_only_bias_edges():
    net = zero_net(L=2, d=4, B=4.0)
    g = induce_graph(net)
    a = g.adjacency.copy()
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
        lifted.kernel.coeffs[::3, ::3][: ck.n, : ck.n], ck.kernel.coeffs
    )


def test_kernel_serialization_round_trip():
    rng = np.random.default_rng(9)
    ck = induce_kernel(random_layered_net(rng, max_d=6))
    back = deserialize_kernel(serialize_kernel(ck))
    assert np.array_equal(back.kernel.coeffs, ck.kernel.coeffs)
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


def test_layer_structure_rejects_bad_divisibility():
    with pytest.raises(ParameterError):
        LayerStructure(2, 2, 1, 3)


def test_signal_serialization_round_trip():
    from densecap.kernels import deserialize_signal, serialize_signal

    ls = LayerStructure(2, 2, 1, 4)
    sig = induce_input_signal(np.array([0.125, -0.7]), ls)
    back = deserialize_signal(serialize_signal(sig, ls, 4.0))
    assert np.array_equal(back.values, sig.values)
    with pytest.raises(ParseError):
        deserialize_signal("wrong header\n")
    for head, vals, line in [("", "0.5", 2), ("1.5 2 1 1 4", "0.5", 2), ("1", "half", 3)]:
        with pytest.raises(ParseError) as exc:
            deserialize_signal(f"densecap-signal v1\n{head}\n{vals}\n")
        assert exc.value.line == line
