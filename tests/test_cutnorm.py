import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap import cutnorm
from densecap.cutnorm import (
    CutWitness,
    _merge_axis,
    _reduce,
    comp_cut_distance_upper,
    evaluate_witness,
    kernel_cut_norm,
    kernel_cut_norm_exact,
    kernel_cut_norm_lower,
    l1_norm,
    l2_norm,
    restrict_to_layer,
    signal_cut_norm,
)
from densecap.errors import CapacityError
from densecap.kernels import (
    StepKernel,
    StepSignal,
    induce_input_signal,
    induce_kernel,
)
from densecap.partitions import Partition, equipartition
from densecap.propagation import mpnn_forward
from densecap.regularity import apply_permutation

from conftest import brute_force_cut_norm, random_layered_net


def random_kernel(rng, n, uniform_measures=False):
    meas = np.full(n, 1.0 / n) if uniform_measures else rng.dirichlet(np.ones(n))
    return StepKernel(Partition(meas), rng.uniform(-1, 1, (n, n)))


def test_signal_half_split():
    sig = StepSignal(equipartition(2), np.array([1.0, -1.0]))
    w = signal_cut_norm(sig)
    assert w.value == 0.5
    assert w.row_set == (0,)


def test_signal_nonnegative_equals_l1():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        sig = StepSignal(Partition(rng.dirichlet(np.ones(n))), rng.uniform(0, 3, n))
        assert abs(signal_cut_norm(sig).value - l1_norm(sig)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_signal_sandwich_property(seed, n):
    rng = np.random.default_rng(seed)
    sig = StepSignal(Partition(rng.dirichlet(np.ones(n))), rng.uniform(-3, 3, n))
    v = signal_cut_norm(sig).value
    l1 = l1_norm(sig)
    assert 0.5 * l1 - 1e-12 <= v <= l1 + 1e-12


def test_kernel_constant_value():
    kern = StepKernel(equipartition(4), np.full((4, 4), -0.7))
    w = kernel_cut_norm_exact(kern)
    assert abs(w.value - 0.7) <= 1e-12
    assert len(w.row_set) == 4 and len(w.col_set) == 4


def test_kernel_two_part_antidiagonal():
    kern = StepKernel(equipartition(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    w = kernel_cut_norm_exact(kern)
    assert abs(w.value - 0.25) <= 1e-12
    assert len(w.row_set) == 1 and len(w.col_set) == 1
    assert w.row_set == w.col_set


def test_kernel_exact_matches_double_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(40):
        kern = random_kernel(rng, int(rng.integers(2, 9)))
        w = kernel_cut_norm_exact(kern)
        assert abs(w.value - brute_force_cut_norm(kern)) <= 1e-12
        assert w.check(kern)


def test_witness_reevaluation_matches_value():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kern = random_kernel(rng, 7)
        w = kernel_cut_norm_exact(kern)
        assert abs(evaluate_witness(kern, w) - w.value) <= 1e-12


def test_exact_capacity_error_advises_heuristic():
    rng = np.random.default_rng(3)
    kern = random_kernel(rng, 30)
    with pytest.raises(CapacityError) as exc:
        kernel_cut_norm_exact(kern, cap=24)
    assert "heuristic" in str(exc.value)


def test_exact_reduction_handles_large_duplicated_kernels():
    rng = np.random.default_rng(4)
    base = rng.uniform(-1, 1, (6, 6))
    reps = np.repeat(np.arange(6), 10)  # 60 parts, 6 distinct patterns
    kern = StepKernel(equipartition(60), base[np.ix_(reps, reps)])
    small = StepKernel(equipartition(6), base)
    assert abs(kernel_cut_norm_exact(kern).value - kernel_cut_norm_exact(small).value) <= 1e-12


def test_heuristic_below_exact_and_deterministic():
    rng = np.random.default_rng(5)
    for _ in range(15):
        kern = random_kernel(rng, int(rng.integers(2, 9)))
        hi = kernel_cut_norm_exact(kern).value
        lo1 = kernel_cut_norm_lower(kern, restarts=8, seed=11)
        lo2 = kernel_cut_norm_lower(kern, restarts=8, seed=11)
        assert lo1.value <= hi + 1e-12
        assert lo1.value == lo2.value
        assert lo1.row_set == lo2.row_set


def test_heuristic_finds_constant_kernel_exactly():
    kern = StepKernel(equipartition(5), np.full((5, 5), 0.42))
    lo = kernel_cut_norm_lower(kern, restarts=2, seed=0)
    assert abs(lo.value - 0.42) <= 1e-12


def test_l1_l2_constant_kernel():
    kern = StepKernel(equipartition(3), np.full((3, 3), -0.6))
    assert abs(l1_norm(kern) - 0.6) <= 1e-12
    assert abs(l2_norm(kern) - 0.6) <= 1e-12


def test_l1_signal_half_split():
    sig = StepSignal(equipartition(2), np.array([1.0, -1.0]))
    assert abs(l1_norm(sig) - 1.0) <= 1e-12


def test_comp_distance_zero_for_identical():
    rng = np.random.default_rng(6)
    ck = induce_kernel(random_layered_net(rng, max_d=6))
    res = comp_cut_distance_upper(ck, ck, mode="identity")
    assert res.value == 0.0
    assert res.exact


def test_comp_distance_swap_recovered_by_exhaustive():
    rng = np.random.default_rng(7)
    net = random_layered_net(rng, L=2, max_d=4, d0=1, dL=1)
    ck = induce_kernel(net)
    swapped = apply_permutation(
        ck.kernel.coeffs, [1, 0] + list(range(2, net.d)), rows=ck.layers.layer_slice(1)
    )
    cj = type(ck)(StepKernel(ck.layers.fine_partition(), swapped), ck.layers, ck.B)
    ident = comp_cut_distance_upper(ck, cj, mode="identity")
    exh = comp_cut_distance_upper(ck, cj, mode="exhaustive")
    assert exh.value <= 1e-12
    assert ident.value >= exh.value


def test_comp_distance_modes_nested():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = induce_kernel(random_layered_net(rng, L=2, max_d=4, d0=1, dL=1))
        b_net = random_layered_net(rng, L=2, max_d=4, d0=1, dL=1)
        if b_net.d != a.layers.d:
            continue
        b = induce_kernel(b_net)
        if abs(a.B - b.B) > 1e-12:
            b = type(b)(b.kernel, b.layers, a.B)
        ident = comp_cut_distance_upper(a, b, mode="identity").value
        greedy = comp_cut_distance_upper(a, b, mode="greedy").value
        exh = comp_cut_distance_upper(a, b, mode="exhaustive").value
        assert exh <= greedy + 1e-12 <= ident + 2e-12


def test_comp_distance_capacity_guard():
    rng = np.random.default_rng(9)
    from densecap.networks import random_network

    ck = induce_kernel(random_network(2, 1, 1, 10, 8.0, rng))
    with pytest.raises(CapacityError):
        comp_cut_distance_upper(ck, ck, mode="exhaustive")


def test_output_restricted_lipschitz_consequence():
    # masked output difference vs the amplified alignment distance
    rng = np.random.default_rng(10)
    violations = 0
    for _ in range(10)\
            :
        L = 2
        net_a = random_layered_net(rng, L=L, max_d=4, d0=1, dL=1, B=L + 2.0)
        net_b = random_layered_net(rng, L=L, max_d=4, d0=1, dL=1, B=L + 2.0)
        if net_a.d != net_b.d:
            continue
        ka, kb = induce_kernel(net_a), induce_kernel(net_b)
        x = rng.uniform(0, 1, 1)
        sig = induce_input_signal(x, ka.layers)
        out_a = mpnn_forward(ka.kernel, sig, ka.B, L)
        out_b = mpnn_forward(kb.kernel, sig, kb.B, L)
        diff = StepSignal(out_a.partition, out_a.values - out_b.values)
        masked = restrict_to_layer(diff, ka.layers, L)
        lhs = signal_cut_norm(masked).value
        dist = comp_cut_distance_upper(ka, kb, mode="exhaustive").value
        rhs = (2.0 * ka.B) ** L * dist
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            violations += 1
    assert violations == 0


def test_witness_dataclass_check_helper():
    sig = StepSignal(equipartition(2), np.array([0.5, 0.25]))
    w = signal_cut_norm(sig)
    assert w.check(sig)
    assert not CutWitness(w.value + 1.0, w.row_set).check(sig)


def reference_merge(coeffs, meas, axis):
    """The row/column merge as np.unique(axis=0) defines it."""
    mat = coeffs if axis == 0 else coeffs.T
    _, first_idx, inverse = np.unique(
        mat, axis=0, return_index=True, return_inverse=True
    )
    merged = np.zeros(first_idx.size)
    np.add.at(merged, inverse.ravel(), meas)
    groups = [[] for _ in first_idx]
    for orig, g in enumerate(inverse.ravel()):
        groups[g].append(orig)
    red = mat[first_idx]
    keep = np.flatnonzero(np.any(red != 0.0, axis=1))
    red = red[keep]
    return (red if axis == 0 else red.T), merged[keep], [groups[i] for i in keep]


def reference_reduce(kern):
    meas = kern.partition.measures
    c, rmeas, rgroups = reference_merge(kern.coeffs, meas, axis=0)
    c, cmeas, cgroups = reference_merge(c, meas, axis=1)
    return c, rmeas, cmeas, rgroups, cgroups


def assert_same_reduction(got, want):
    """Bitwise equal arrays (-0.0 included, same layout) and equal groups."""
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b
            assert all(type(i) is int for g in a for i in g)


@st.composite
def duplicated_kernels(draw):
    """Kernels with repeated rows and columns, zero rows and signed zeros."""
    n = draw(st.integers(1, 9))
    palette = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, 0.3])
    base = np.array(
        draw(st.lists(st.lists(palette, min_size=n, max_size=n), min_size=1, max_size=n))
    )
    row_map = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    col_map = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    coeffs = base[np.ix_(row_map, col_map)]
    flip = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    coeffs = np.where((coeffs == 0.0) & flip.reshape(n, n), -0.0, coeffs)
    meas = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(n))
    return StepKernel(Partition(meas), coeffs)


@settings(max_examples=300, deadline=None)
@given(kern=duplicated_kernels())
def test_reduce_matches_unique_reference(kern):
    assert_same_reduction(_reduce(kern), reference_reduce(kern))


@settings(max_examples=100, deadline=None)
@given(kern=duplicated_kernels())
def test_reduce_resolves_hash_collisions_exactly(kern):
    # every row hashes alike, so distinct rows must be told apart by their bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutnorm, "hash", lambda key: 0, raising=False)
        got = _reduce(kern)
    assert_same_reduction(got, reference_reduce(kern))


@settings(max_examples=100, deadline=None)
@given(kern=duplicated_kernels(), axis=st.sampled_from([0, 1]), line=st.integers(0, 8))
def test_merge_matches_reference_on_single_row_or_column(kern, axis, line):
    # one row (axis 0) or one column (axis 1) of the kernel, merged both ways
    line = min(line, kern.n - 1)
    part = kern.coeffs[line : line + 1] if axis == 0 else kern.coeffs[:, line : line + 1]
    for merge_axis in (0, 1):
        meas = kern.partition.measures if merge_axis != axis else np.ones(1)
        assert_same_reduction(
            _merge_axis(part, meas, merge_axis), reference_merge(part, meas, merge_axis)
        )


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_merge_of_zero_size_matrix_is_empty(shape):
    meas = np.full(shape[0], 0.5)
    red, merged, groups = _merge_axis(np.zeros(shape), meas, axis=0)
    assert red.shape == (0, shape[1]) and merged.size == 0 and groups == []


def test_all_zero_kernel_reduces_to_nothing():
    kern = StepKernel(equipartition(4), np.array([[0.0, -0.0] * 2] * 4))
    c, rmeas, cmeas, rgroups, cgroups = _reduce(kern)
    assert c.shape == (0, 0) and rmeas.size == cmeas.size == 0
    assert rgroups == cgroups == []
    for oracle in ("auto", "exact", "heuristic"):
        w, _ = kernel_cut_norm(kern, oracle=oracle)
        assert (w.value, w.row_set, w.col_set) == (0.0, (), ())


@pytest.mark.parametrize("cap, exact", [(24, True), (2, False)])
def test_auto_oracle_reduces_once(monkeypatch, cap, exact):
    kern = random_kernel(np.random.default_rng(12), 6)
    alone = (
        kernel_cut_norm_exact(kern, cap=cap)
        if exact
        else kernel_cut_norm_lower(kern, restarts=32, seed=0)
    )
    calls = []
    original = cutnorm._reduce
    monkeypatch.setattr(cutnorm, "_reduce", lambda k: calls.append(k) or original(k))
    w, was_exact = kernel_cut_norm(kern, oracle="auto", cap=cap)
    assert len(calls) == 1 and was_exact is exact
    assert (w.value, w.row_set, w.col_set) == (alone.value, alone.row_set, alone.col_set)
