import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap.errors import EquivalenceViolationError, ParameterError
from densecap.kernels import (
    LayerStructure,
    StepKernel,
    StepSignal,
    induce_graph,
    induce_input_signal,
    induce_kernel,
)
from densecap.networks import forward, random_network, random_small_network
from densecap.partitions import Partition, equipartition
from densecap.propagation import (
    check_equivalence,
    graph_readout,
    mpnn_forward,
    readout,
    sr_mpnn_forward,
)

from conftest import random_layered_net


def test_constant_kernel_single_layer_no_relu():
    for c in (0.6, -0.6):
        kern = StepKernel(equipartition(3), np.full((3, 3), c))
        sig = StepSignal(equipartition(3), np.ones(3))
        out = mpnn_forward(kern, sig, B=5.0, L=1)
        assert np.allclose(out.values, 5.0 * c, atol=1e-12)


def test_constant_kernel_two_layers_relu_in_between():
    kern = StepKernel(equipartition(2), np.full((2, 2), -0.5))
    sig = StepSignal(equipartition(2), np.ones(2))
    out = mpnn_forward(kern, sig, B=4.0, L=2)
    # first round clips to zero, so the output is zero
    assert np.all(out.values == 0.0)


def test_bias_region_stationary():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        net = random_layered_net(rng)
        ck = induce_kernel(net)
        sig = induce_input_signal(rng.uniform(0, 1, net.d0), ck.layers)
        _, hidden = mpnn_forward(ck.kernel, sig, ck.B, net.L, return_hidden=True)
        start = ck.layers.bias_slice.start
        for h in hidden:
            worst = max(worst, float(np.abs(h.values[start] - 1.0)))
    assert worst <= 1e-12


def test_hidden_magnitude_bounded_by_amplification_power():
    rng = np.random.default_rng(1)
    for _ in range(30):
        net = random_layered_net(rng)
        ck = induce_kernel(net)
        x = rng.uniform(-1, 1, net.d0)
        sig = induce_input_signal(x, ck.layers)
        _, hidden = mpnn_forward(ck.kernel, sig, ck.B, net.L, return_hidden=True)
        for ell, h in enumerate(hidden):
            bound = ck.B**ell
            assert np.abs(h.values).max() <= bound + 1e-9


def test_readout_constant_signal():
    ls = LayerStructure(2, 1, 3, 6)
    vals = np.zeros(ls.n)
    vals[ls.layer_slice(2)] = 0.7
    out = readout(StepSignal(ls.fine_partition(), vals), ls)
    assert np.allclose(out, 0.7)


def test_readout_distinct_cells():
    ls = LayerStructure(2, 1, 2, 4)
    vals = np.zeros(ls.n)
    vals[ls.out_cell_slice(0)] = 1.5
    vals[ls.out_cell_slice(1)] = -2.5
    out = readout(StepSignal(ls.fine_partition(), vals), ls)
    assert np.array_equal(out, [1.5, -2.5])


def test_readout_rejects_non_constant_cells():
    ls = LayerStructure(2, 1, 1, 4)
    vals = np.zeros(ls.n)
    vals[ls.out_cell_slice(0)] = [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(EquivalenceViolationError):
        readout(StepSignal(ls.fine_partition(), vals), ls)


@pytest.mark.parametrize("uneven", [False, True])
def test_readout_needs_the_fine_partition(uneven):
    ls = LayerStructure(2, 1, 2, 4)
    if uneven:
        meas = np.full(ls.n, 1.0 / ls.n)
        meas[:2] = [0.5 / ls.n, 1.5 / ls.n]
        part = Partition(meas)
    else:
        part = equipartition(2 * ls.n)
    with pytest.raises(ParameterError):
        readout(StepSignal(part, np.zeros(part.size)), ls)


def test_readout_equals_network_output():
    rng = np.random.default_rng(2)
    for _ in range(20):
        net = random_layered_net(rng)
        ck = induce_kernel(net)
        x = rng.uniform(0, 1, net.d0)
        sig = induce_input_signal(x, ck.layers)
        out = readout(mpnn_forward(ck.kernel, sig, ck.B, net.L), ck.layers)
        assert np.abs(out - forward(net, x)).max() <= 1e-9


def test_sr_mpnn_zero_adjacency():
    rng = np.random.default_rng(3)
    net = random_layered_net(rng, max_d=4)
    g = induce_graph(net)
    zero = type(g)(((slice(0, g.n), slice(0, g.n), np.zeros((g.n, g.n))),), g.layers, g.B)
    out = sr_mpnn_forward(zero, rng.uniform(-1, 1, g.n), net.L)
    assert np.all(out == 0.0)


def test_sr_mpnn_bias_vertices_stay_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        net = random_layered_net(rng)
        g = induce_graph(net)
        feats = induce_input_signal(rng.uniform(0, 1, net.d0), g.layers).values
        _, hidden = sr_mpnn_forward(g, feats, net.L, return_hidden=True)
        start = g.layers.bias_slice.start
        for h in hidden:
            assert abs(h[start] - 1.0) <= 1e-12


def test_sr_mpnn_matches_kernel_path_per_vertex():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_layered_net(rng)
        ck = induce_kernel(net)
        g = induce_graph(net)
        x = rng.uniform(0, 1, net.d0)
        sig = induce_input_signal(x, ck.layers)
        kern_out = mpnn_forward(ck.kernel, sig, ck.B, net.L)
        graph_out = sr_mpnn_forward(g, sig.values, net.L)
        assert np.abs(kern_out.values - graph_out).max() <= 1e-9


def test_three_path_equivalence_hand_case():
    from test_networks import all_b_net

    rep = check_equivalence(all_b_net(), np.array([1.0]))
    assert rep.max_discrepancy == 0.0
    assert rep.net_output[0] == 1.0
    assert all(v == 1.0 for v in rep.bias_values)


def test_three_path_equivalence_zero_net():
    from test_kernels import zero_net

    rep = check_equivalence(zero_net(L=3, d=6, B=5.0), np.array([0.4]))
    assert np.all(rep.net_output == 0.0)
    assert np.all(rep.kernel_output == 0.0)
    assert np.all(rep.graph_output == 0.0)


def test_three_path_equivalence_random():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(40):
        net = random_layered_net(rng)
        rep = check_equivalence(net, rng.uniform(0, 1, net.d0))
        worst = max(worst, rep.max_discrepancy)
    assert worst <= 1e-9


def test_a_nan_discrepancy_fails_the_check(monkeypatch):
    from test_networks import all_b_net

    import densecap.propagation as propagation

    # the network and kernel paths agree; only the graph path reads NaN
    monkeypatch.setattr(propagation, "sr_mpnn_forward", lambda g, f, L: np.full(g.layers.n, np.nan))
    rep = check_equivalence(all_b_net(), np.array([1.0]))
    assert np.isnan(rep.max_discrepancy) and not rep.passed


def test_graph_readout_rejects_non_constant():
    ls = LayerStructure(2, 1, 1, 4)
    vals = np.zeros(ls.n)
    vals[ls.out_cell_slice(0).start] = 1.0
    with pytest.raises(EquivalenceViolationError):
        graph_readout(vals, ls)


@pytest.mark.parametrize("rounds", [0, -1])
def test_both_schemes_need_a_round(rounds):
    net = random_layered_net(np.random.default_rng(8), max_d=4)
    ck, g = induce_kernel(net), induce_graph(net)
    sig = induce_input_signal(np.zeros(net.d0), ck.layers)
    with pytest.raises(ParameterError, match="at least one round"):
        mpnn_forward(ck.kernel, sig, ck.B, rounds)
    with pytest.raises(ParameterError, match="at least one round"):
        sr_mpnn_forward(g, sig.values, rounds)


def test_mpnn_refuses_a_signal_off_the_kernel_partition():
    rng = np.random.default_rng(7)
    kern = StepKernel(equipartition(4), rng.uniform(-1, 1, (4, 4)))
    sig_coarse = StepSignal(equipartition(2), np.array([1.0, -1.0]))
    with pytest.raises(ParameterError, match="4-part partition"):
        mpnn_forward(kern, sig_coarse, B=3.0, L=2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_encodings_are_the_dense_ones(seed):
    from test_kernels import reference_fill, same_bits

    rng = np.random.default_rng(seed)
    net = random_small_network(rng)
    x = rng.uniform(0, 1, net.d0)
    ck, g = induce_kernel(net), induce_graph(net)
    dense = ck.kernel.dense()
    assert same_bits(dense.coeffs, reference_fill(net, float(net.B)))
    assert same_bits(g.dense(), reference_fill(net, 1.0))
    assert len(ck.kernel.blocks) == len(g.blocks) == 2 * net.L + 1
    sig = induce_input_signal(x, ck.layers)
    _, on_blocks = mpnn_forward(ck.kernel, sig, ck.B, net.L, return_hidden=True)
    _, on_dense = mpnn_forward(dense, sig, ck.B, net.L, return_hidden=True)
    for a, b in zip(on_blocks, on_dense):
        assert np.abs(a.values - b.values).max() <= 1e-12
    rep = check_equivalence(net, x)
    assert rep.max_discrepancy <= 1e-9 and rep.max_bias_drift <= 1e-12
    assert (rep.n, rep.kernel_blocks) == (ck.n, 2 * net.L + 1)
    assert rep.kernel_entries == rep.graph_entries == (2 * net.L + 1) * net.d**2


def test_equivalence_check_builds_no_n_by_n_array():
    net = random_network(4, 2, 3, 240, 7.0, np.random.default_rng(0))  # n = 1,440
    x = np.random.default_rng(1).uniform(0, 1, 2)
    tracemalloc.start()
    try:
        rep = check_equivalence(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.max_bias_drift <= 1e-12
    assert peak < rep.n * rep.n * 8  # one n x n float64 array, 15.8 MiB
