import itertools
import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap import cutnorm
from densecap.cutnorm import (
    CutWitness,
    _reduce,
    comp_cut_distance_upper,
    difference_cut_norm,
    evaluate_witness,
    kernel_cut_norm,
    kernel_cut_norm_exact,
    kernel_cut_norm_lower,
    l1_norm,
    restrict_to_layer,
    signal_cut_norm,
)
from densecap.errors import CapacityError, ParameterError, ValidationFailedError
from densecap.kernels import (
    BlockKernel,
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    StepSignal,
    induce_input_signal,
    induce_kernel,
    lift_computational,
    unit_blocks,
)
from densecap.networks import random_network
from densecap.partitions import Partition, equipartition
from densecap.propagation import mpnn_forward
from densecap.regularity import compress_network
from densecap.verify import brute_force_cut_norm

from conftest import random_layered_net


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


def test_l1_constant_kernel():
    kern = StepKernel(equipartition(3), np.full((3, 3), -0.6))
    assert abs(l1_norm(kern) - 0.6) <= 1e-12


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
    idx = np.arange(ck.n)  # the first two hidden parts trade places
    first = ck.layers.layer_slice(1).start
    idx[[first, first + 1]] = [first + 1, first]
    swapped = ck.kernel.dense().coeffs[np.ix_(idx, idx)]
    cj = type(ck)(StepKernel(ck.layers.fine_partition(), swapped), ck.layers, ck.B)
    ident = comp_cut_distance_upper(ck, cj, mode="identity")
    exh = comp_cut_distance_upper(ck, cj, mode="exhaustive")
    assert exh.value <= 1e-12
    assert ident.value >= exh.value


def test_comp_distance_refuses_kernels_that_are_not_layered():
    # a layer-0 row must vanish; the unit quotient would not read it and so
    # measure 0.0, where the full kernels are 0.05625 apart
    ck = induce_kernel(random_network(2, 1, 1, 4, 6.0, np.random.default_rng(0)))
    c = ck.kernel.dense().coeffs.copy()
    c[0] = 0.9
    cj = ComputationalKernel(StepKernel(ck.kernel.partition, c), ck.layers, ck.B)
    half = StepKernel(ck.kernel.partition, (c - ck.kernel.dense().coeffs) / 2)
    assert 2 * kernel_cut_norm_exact(half).value == pytest.approx(0.05625, abs=1e-12)
    for pair, which in (((ck, cj), "second"), ((cj, ck), "first")):
        with pytest.raises(ValidationFailedError, match=f"{which} kernel .*3 \\(zero"):
            comp_cut_distance_upper(*pair)
    # variation inside a unit is not read either
    c = ck.kernel.dense().coeffs.copy()
    c[ck.layers.layer_slice(1).start, ck.layers.layer_slice(0).start] += 0.01
    cj = ComputationalKernel(StepKernel(ck.kernel.partition, c), ck.layers, ck.B)
    with pytest.raises(ValidationFailedError, match="2 \\(cell constancy"):
        comp_cut_distance_upper(ck, cj)


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
        exh = comp_cut_distance_upper(a, b, mode="exhaustive").value
        assert exh <= ident + 1e-12


def lifted_distance(ck, cj, **kw):
    """Reference: both kernels lifted to lcm(d, d') cells, then compared."""
    common = np.lcm(ck.d, cj.d)
    return comp_cut_distance_upper(
        lift_computational(ck, common // ck.d), lift_computational(cj, common // cj.d), **kw
    )


@settings(max_examples=30, deadline=None)
@given(
    L=st.sampled_from([2, 3]),
    dims=st.sampled_from([(2, 3), (3, 2), (2, 5), (3, 4), (4, 3), (4, 6), (5, 6), (6, 5)]),
    seed=st.integers(0, 2**16),
)
def test_comp_distance_on_refinement_matches_lcm_lift(L, dims, seed):
    d, e = dims
    rng = np.random.default_rng(seed)
    ck = induce_kernel(random_network(L, 1, 1, d, 6.0, rng))
    cj = induce_kernel(random_network(L, 1, 1, e, 6.0, rng))
    got = comp_cut_distance_upper(ck, cj, oracle="exact")
    want = lifted_distance(ck, cj, oracle="exact")
    assert got.exact and want.exact
    assert abs(got.value - want.value) <= 1e-12


def test_comp_distance_non_nested_widths_heuristic():
    # the lcm lift's 72 cells per hidden layer, folded back onto the 48
    # refined parts (twin cells hold equal entries), give the difference the
    # refined route measures: the heuristic on it as one dense block, in
    # layout order, returns the refined route's value
    rng = np.random.default_rng(11)
    ck = induce_kernel(random_network(3, 2, 2, 36, 5.0, rng))
    cj = induce_kernel(random_network(3, 2, 2, 24, 5.0, rng))
    got = comp_cut_distance_upper(ck, cj)
    assert not got.exact
    quotients = [unit_blocks(lift_computational(k, 72 // k.d)).dense() for k in (ck, cj)]
    diff = quotients[0].coeffs - quotients[1].coeffs
    cells, parts = quotients[0].partition, refined_parts(ck, cj)
    ends = [np.r_[0.0, np.cumsum(p.measures)] for p in (parts, cells)]
    owner = np.searchsorted(ends[0], ends[1][:-1] + 1e-12) - 1
    folded = diff[np.ix_(*[np.searchsorted(owner, np.arange(parts.size))] * 2)]
    assert np.array_equal(folded[np.ix_(owner, owner)], diff)
    whole = slice(0, parts.size)
    want, exact = difference_cut_norm(parts, [(whole, whole, folded)], "heuristic", 0)
    assert not exact
    assert abs(got.value - want.value) <= 1e-12


def refined_parts(ck, cj):
    """The common refinement of two layouts' unit cuts, as comp_cut_distance_upper makes it."""
    a, b = ck.layers, cj.layers
    N = math.lcm(a.n, b.n)
    cuts = np.union1d(
        np.cumsum(np.r_[0, a.unit_parts()]) * (N // a.n),
        np.cumsum(np.r_[0, b.unit_parts()]) * (N // b.n),
    )
    return Partition(np.diff(cuts) / N)


@pytest.mark.parametrize("d, e", [(24, 12), (12, 36), (30, 6)])
def test_comp_distance_nested_widths_bitwise(d, e):
    rng = np.random.default_rng(12)
    ck = induce_kernel(random_network(3, 2, 2, d, 5.0, rng))
    cj = induce_kernel(random_network(3, 2, 2, e, 5.0, rng))
    got = comp_cut_distance_upper(ck, cj)
    want = lifted_distance(ck, cj)
    assert got.value == want.value
    assert (got.witness.row_set, got.witness.col_set) == (
        want.witness.row_set, want.witness.col_set
    )


@pytest.mark.parametrize("mode", ["exhaustive"])
def test_comp_distance_matching_modes_need_equal_widths(mode):
    rng = np.random.default_rng(13)
    ck = induce_kernel(random_network(2, 1, 1, 3, 6.0, rng))
    cj = induce_kernel(random_network(2, 1, 1, 2, 6.0, rng))
    with pytest.raises(ParameterError, match="equal hidden dims"):
        comp_cut_distance_upper(ck, cj, mode=mode)


def test_comp_distance_capacity_guard():
    rng = np.random.default_rng(9)
    from densecap.networks import random_network

    ck = induce_kernel(random_network(2, 1, 1, 10, 8.0, rng))
    with pytest.raises(CapacityError):
        comp_cut_distance_upper(ck, ck, mode="exhaustive")


def test_restrict_to_layer_copies_one_layer_by_index():
    ls = LayerStructure(2, 1, 1, 3)
    vals = np.arange(1.0, ls.n + 1)
    out = restrict_to_layer(StepSignal(ls.fine_partition(), vals), ls, 1)
    want = np.zeros(ls.n)
    want[ls.layer_slice(1)] = vals[ls.layer_slice(1)]
    assert np.array_equal(out.values, want)


@pytest.mark.parametrize("uneven", [False, True])
def test_restrict_to_layer_needs_the_fine_partition(uneven):
    ls = LayerStructure(2, 1, 1, 3)
    if uneven:
        meas = np.full(ls.n, 1.0 / ls.n)
        meas[:2] = [0.5 / ls.n, 1.5 / ls.n]
        part = Partition(meas)
    else:
        part = equipartition(2 * ls.n)
    with pytest.raises(ParameterError):
        restrict_to_layer(StepSignal(part, np.ones(part.size)), ls, 1)


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


def map_to_groups(mapping, size):
    """The groups of an index map; every row outside them must map to -1."""
    groups = [np.flatnonzero(mapping == g).tolist() for g in range(size)]
    grouped = {i for g in groups for i in g}
    assert set(np.flatnonzero(mapping == -1).tolist()) == set(range(mapping.size)) - grouped
    return groups


def merge_groups(mat, meas, axis):
    """``_merge_rows`` on the nonzero rows (axis=0) or columns (axis=1), as ``_reduce`` runs it."""
    m = mat if axis == 0 else mat.T
    nonzero = np.flatnonzero(m.any(axis=1))
    red, merged, group = cutnorm._merge_rows(m[nonzero], meas[nonzero])
    mapping = np.full(len(m), -1)
    mapping[nonzero] = group
    return (red if axis == 0 else red.T), merged, map_to_groups(mapping, merged.size)


def reduce_groups(reduction):
    c, rmeas, cmeas, rmap, cmap = reduction
    return c, rmeas, cmeas, map_to_groups(rmap, rmeas.size), map_to_groups(cmap, cmeas.size)


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
    assert_same_reduction(reduce_groups(_reduce(kern)), reference_reduce(kern))


@st.composite
def matrices_with_repeats(draw):
    """Arbitrary non-NaN floats, with rows repeated and some entries negated or zeroed."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    values = st.floats(allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf]
    )
    base = np.array(draw(st.lists(st.lists(values, min_size=nc, max_size=nc), min_size=1)))
    mat = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=nr, max_size=nr))]
    edits = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1), st.booleans())
    for i, j, negate in draw(st.lists(edits, max_size=3)):
        mat[i, j] = -mat[i, j] if negate else 0.0
    return mat


@settings(max_examples=300, deadline=None)
@given(mat=matrices_with_repeats(), seed=st.integers(0, 2**32 - 1))
def test_merge_orders_arbitrary_floats_as_the_reference(mat, seed):
    # the key map must order subnormals, signed zeros, infinities and mixed
    # magnitudes as floats, on rows and on columns
    meas = np.random.default_rng(seed).dirichlet(np.ones(max(mat.shape)))
    for axis in (0, 1):
        m = meas[: mat.shape[axis]]
        assert_same_reduction(merge_groups(mat, m, axis), reference_merge(mat, m, axis))


@settings(max_examples=100, deadline=None)
@given(
    head=st.lists(st.floats(-1.0, 1.0), max_size=5),
    last=st.floats(-1.0, 1.0).flatmap(
        lambda x: st.sampled_from([(x, np.nextafter(x, 2.0)), (x, np.nextafter(x, -2.0))])
    ) | st.sampled_from([(5e-324, -5e-324), (-1e-310, 1e-310), (2e-323, -2e-323)]),
    rows=st.lists(st.booleans(), min_size=2, max_size=8),
)
def test_reduce_separates_rows_differing_only_in_the_last_entry(head, last, rows):
    # rows alike in every byte but the last entry's, by one ulp or by the sign
    # of a subnormal, stay two groups in the reference's order (the leading
    # 1.0 keeps both rows from being dropped as zero)
    rows = [False, True] + rows
    mat = np.array([[1.0] + head + [last[r]] for r in rows])
    meas = np.full(len(rows), 1.0 / len(rows))
    for axis, m in ((0, mat), (1, mat.T)):
        got = merge_groups(m, meas, axis)
        assert len(got[2]) == 2
        assert_same_reduction(got, reference_merge(m, meas, axis))


@settings(max_examples=100, deadline=None)
@given(kern=duplicated_kernels(), axis=st.sampled_from([0, 1]), line=st.integers(0, 8))
def test_merge_matches_reference_on_single_row_or_column(kern, axis, line):
    # one row (axis 0) or one column (axis 1) of the kernel, merged both ways
    line = min(line, kern.n - 1)
    part = kern.coeffs[line : line + 1] if axis == 0 else kern.coeffs[:, line : line + 1]
    for merge_axis in (0, 1):
        meas = kern.partition.measures if merge_axis != axis else np.ones(1)
        assert_same_reduction(
            merge_groups(part, meas, merge_axis),
            reference_merge(part, meas, merge_axis),
        )


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_merge_of_zero_size_matrix_is_empty(shape):
    meas = np.full(shape[0], 0.5)
    red, merged, groups = merge_groups(np.zeros(shape), meas, axis=0)
    assert red.shape == (0, shape[1]) and merged.size == 0 and groups == []


def test_all_zero_kernel_reduces_to_nothing():
    kern = StepKernel(equipartition(4), np.array([[0.0, -0.0] * 2] * 4))
    c, rmeas, cmeas, rmap, cmap = _reduce(kern)
    assert c.shape == (0, 0) and rmeas.size == cmeas.size == 0
    assert rmap.tolist() == cmap.tolist() == [-1] * 4
    for oracle in ("auto", "exact", "heuristic"):
        w, _ = kernel_cut_norm(kern, oracle=oracle)
        assert (w.value, w.row_set, w.col_set) == (0.0, (), ())
    w = kernel_cut_norm_lower(kern, restarts=0)
    assert (w.value, w.row_set, w.col_set) == (0.0, (), ())


@settings(max_examples=200, deadline=None)
@given(kern=duplicated_kernels())
def test_witness_sets_are_whole_merge_groups(kern):
    _, _, _, rmap, cmap = _reduce(kern)
    for oracle in ("exact", "heuristic"):
        w, _ = kernel_cut_norm(kern, oracle=oracle, restarts=4)
        for parts, mapping in ((w.row_set, rmap), (w.col_set, cmap)):
            assert type(parts) is tuple and list(parts) == sorted(parts)
            assert all(type(i) is int for i in parts)
            # a set holds every part of a merge group it touches, and no dropped part
            taken = set(mapping[list(parts)].tolist())
            assert -1 not in taken
            assert set(parts) == set(np.flatnonzero(np.isin(mapping, list(taken))).tolist())
        assert w.check(kern)


@pytest.mark.parametrize("oracle", ["exact", "heuristic"])
def test_difference_cut_norm_doubles_the_halved_kernel(oracle):
    rng = np.random.default_rng(31)
    part = Partition(rng.dirichlet(np.ones(9)))
    diff = rng.uniform(-1, 1, (9, 9)) - rng.uniform(-1, 1, (9, 9))
    w, exact = difference_cut_norm(part, [(slice(0, 9), slice(0, 9), diff.copy())], oracle, 3)
    half, half_exact = kernel_cut_norm(StepKernel(part, diff / 2.0), oracle=oracle, seed=3)
    assert w.value == 2.0 * half.value and exact is half_exact
    assert (w.row_set, w.col_set) == (half.row_set, half.col_set)


@pytest.mark.parametrize("call", [
    lambda k: kernel_cut_norm_lower(k, restarts=-1),
    lambda k: kernel_cut_norm(k, oracle="heuristic", restarts=-1),
    lambda k: kernel_cut_norm(k, oracle="exact", restarts=-1),
    lambda k: kernel_cut_norm_lower(k, seed=-1),
    lambda k: kernel_cut_norm(k, oracle="heuristic", seed=-1),
    lambda k: kernel_cut_norm(k, oracle="exact", seed=-1),
    lambda k: kernel_cut_norm(k, oracle="exact", restarts=2.5),
    lambda k: compress_network(
        random_network(3, 2, 2, 24, 5.0, np.random.default_rng(0)), target_d=12, seed=-1
    ),
])
def test_negative_restarts_are_refused(call):
    # seeds and counts alike, refused before numpy sees them
    with pytest.raises(ParameterError, match="(restarts|seed) must be (non-negative|an integer)"):
        call(random_kernel(np.random.default_rng(0), 4))


@pytest.mark.parametrize("cap, message", [
    (None, "cap must be an integer, got None"),
    (2.5, "cap must be an integer, got 2.5"),
    (True, "cap must be an integer, got True"),
    (-1, "cap must be non-negative, got -1"),
])
@pytest.mark.parametrize("call", [
    kernel_cut_norm_exact,
    lambda k, cap: kernel_cut_norm(k, oracle="exact", cap=cap),
    lambda k, cap: kernel_cut_norm(k, oracle="auto", cap=cap),
])
def test_bad_caps_are_refused(cap, message, call):
    # a negative cap is a bad argument, not an instance over capacity
    with pytest.raises(ParameterError, match=message):
        call(random_kernel(np.random.default_rng(0), 4), cap)


@pytest.mark.parametrize("cap, exact", [(24, True), (2, False)])
def test_auto_oracle_reduces_once(monkeypatch, cap, exact):
    kern = random_kernel(np.random.default_rng(12), 6)
    alone = (
        kernel_cut_norm_exact(kern, cap=cap)
        if exact
        else kernel_cut_norm_lower(kern, restarts=32, seed=0)
    )
    # one shrink, and a merge of it only on the exact route
    calls = []
    for name in ("_reduce", "_shrink"):
        original = getattr(cutnorm, name)
        monkeypatch.setattr(
            cutnorm, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
        )
    w, was_exact = kernel_cut_norm(kern, oracle="auto", cap=cap)
    assert calls == (["_shrink", "_reduce"] if exact else ["_shrink"]) and was_exact is exact
    assert (w.value, w.row_set, w.col_set) == (alone.value, alone.row_set, alone.col_set)


def test_an_undercounting_probe_reduces_once(monkeypatch):
    # were distinct rows to collide in their hashes, the counts could fit
    # under the cap when the merge does not: the heuristic then runs on the
    # shrink the call already holds, as the standalone heuristic does
    kern = random_kernel(np.random.default_rng(12), 6)
    alone = kernel_cut_norm_lower(kern)
    monkeypatch.setattr(cutnorm, "_hash_counts", lambda *shrink: [1, 1])
    calls = []
    for name in ("_reduce", "_shrink"):
        original = getattr(cutnorm, name)
        monkeypatch.setattr(cutnorm, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    w, was_exact = kernel_cut_norm(kern, oracle="auto", cap=2)
    assert calls == ["_shrink", "_reduce"] and not was_exact
    assert w.dims == (6, 6)
    assert (w.value, w.row_set, w.col_set) == (alone.value, alone.row_set, alone.col_set)


@st.composite
def block_kernels(draw):
    """BlockKernels of continuous entries on random region cuts and block sets.

    Regions may hold no block in a row or a column, which leaves zero rows
    and columns for the reduction to drop.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    cuts = [0, *sorted(rng.choice(np.arange(1, n), draw(st.integers(0, min(4, n - 1))), False)), n]
    regions = [slice(int(a), int(b)) for a, b in zip(cuts, cuts[1:])]
    pairs = [(r, c) for r in regions for c in regions if rng.random() < 0.6] or [(regions[0],) * 2]
    blocks = tuple(
        (r, c, rng.uniform(-1.0, 1.0, (r.stop - r.start, c.stop - c.start))) for r, c in pairs
    )
    return BlockKernel(Partition(rng.dirichlet(np.ones(n))), blocks)


@settings(max_examples=200, deadline=None)
@given(bk=block_kernels(), restarts=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_block_heuristic_matches_the_one_block_run(bk, restarts, seed):
    # the same nonzero rows and columns in layout order, summed per block or
    # on one dense array: on continuous entries the witness is the same
    dense = bk.dense()
    blocks, rmeas, _, rmap, _ = cutnorm._shrink(bk)
    one, _, _, rmap_one, _ = cutnorm._shrink(dense)
    assert len(one) == 1 and np.array_equal(rmap, rmap_one)
    kept = rmap[rmap >= 0]
    assert np.array_equal(kept, np.arange(rmeas.size))  # layout order, no merge
    got = kernel_cut_norm_lower(bk, restarts=restarts, seed=seed)
    assert same_witness(got, kernel_cut_norm_lower(dense, restarts=restarts, seed=seed))
    assert got.value == evaluate_witness(dense, got)


@settings(max_examples=200, deadline=None)
@given(bk=block_kernels())
def test_l1_norm_sums_the_blocks(bk):
    assert abs(l1_norm(bk) - l1_norm(bk.dense())) <= 1e-12


@st.composite
def duplicated_continuous_kernels(draw):
    """(kernel, blocks) with at most 8 distinct row and column patterns.

    Continuous entries, repeated rows and columns, some zeroed rows and
    columns and signed zeros; ``blocks`` is the same kernel cut along
    random region bounds into the blocks that hold a nonzero entry.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = rng.uniform(-1.0, 1.0, (rows, cols))
    coeffs = base[np.ix_(rng.integers(0, rows, n), rng.integers(0, cols, n))]
    coeffs[rng.random(n) < 0.2] = 0.0
    coeffs[:, rng.random(n) < 0.2] = -0.0
    kern = StepKernel(Partition(rng.dirichlet(np.ones(n))), coeffs)
    cuts = [0, *sorted(rng.choice(np.arange(1, n), min(3, n - 1), False)), n]
    regions = [slice(int(a), int(b)) for a, b in zip(cuts, cuts[1:])]
    blocks = tuple((r, c, coeffs[r, c]) for r in regions for c in regions if coeffs[r, c].any())
    return kern, BlockKernel(kern.partition, blocks)


@settings(max_examples=200, deadline=None)
@given(pair=duplicated_continuous_kernels())
def test_probe_never_hides_the_exact_route(pair):
    # at most 8 distinct rows reduce under the cap, so auto must go exact,
    # and its witness is the standalone exact oracle's, bit for bit
    kern, bk = pair
    want = kernel_cut_norm_exact(kern)
    dims = _reduce(kern)[0].shape
    for k in (kern, bk):
        counts = cutnorm._hash_counts(*cutnorm._shrink(k)[:3])
        assert counts[0] <= dims[0] and counts[1] <= dims[1]
        w, exact = kernel_cut_norm(k, oracle="auto")
        assert exact and w.dims == dims
        assert (w.value.hex(), w.row_set, w.col_set) == (
            want.value.hex(), want.row_set, want.col_set
        )


@st.composite
def unaligned_block_kernels(draw):
    """BlockKernels of a few distinct rows whose blocks split the columns unevenly.

    The rows repeat at most 4 random patterns over all-distinct columns.
    A top band is one block and the band below it two blocks, split at
    another column; drawn transposed, the columns repeat instead.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    k = draw(st.integers(1, 4))
    coeffs = rng.uniform(-1.0, 1.0, (k, n))[rng.integers(0, k, n)]
    top, cut = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    bounds = [(slice(0, top), slice(0, n)), (slice(top, n), slice(0, cut)), (slice(top, n), slice(cut, n))]
    if draw(st.booleans()):
        coeffs, bounds = coeffs.T, [(c, r) for r, c in bounds]
    blocks = tuple((r, c, coeffs[r, c]) for r, c in bounds)
    return BlockKernel(Partition(rng.dirichlet(np.ones(n))), blocks)


@settings(max_examples=200, deadline=None)
@given(bk=unaligned_block_kernels())
def test_probe_counts_rows_alike_across_unaligned_blocks(bk):
    # equal rows split at different columns in different blocks must hash
    # equal, or the probe overcounts and hides the exact route at a tight cap
    dims = _reduce(bk)[0].shape
    want = kernel_cut_norm_exact(bk, cap=min(dims))
    w, exact = kernel_cut_norm(bk, oracle="auto", cap=min(dims))
    assert exact and w.dims == dims
    assert (w.value.hex(), w.row_set, w.col_set) == (
        want.value.hex(), want.row_set, want.col_set
    )
    counts = cutnorm._hash_counts(*cutnorm._shrink(bk)[:3])
    assert counts[0] <= dims[0] and counts[1] <= dims[1]


def exact_kernel(rng, parts, rows, cols):
    """Step kernel on ``parts`` parts whose merge is rows x cols (the bench generator)."""
    base = rng.uniform(-1.0, 1.0, (rows, cols))
    rmap = np.repeat(np.arange(rows), rng.multinomial(parts - rows, np.ones(rows) / rows) + 1)
    cmap = np.repeat(np.arange(cols), rng.multinomial(parts - cols, np.ones(cols) / cols) + 1)
    rng.shuffle(rmap)
    rng.shuffle(cmap)
    return StepKernel(Partition(rng.dirichlet(np.ones(parts))), base[np.ix_(rmap, cmap)])


@pytest.mark.parametrize("seed, value, rows, cols", [
    (42, "0x1.9ef7631044aa0p-4",
     "0-5 8-10 13-17 19-21 23 24 27-30 32 34 36-39",
     "0-2 4 6 9 12 14 16-18 21 23 25 29 31 34 35 37"),
    (7, "0x1.1f2e206af1407p-3",
     "0-8 10-13 15 16 18-37 39",
     "0 7-9 13 16 18 19 21 22 24-29 31 32 34-36 38"),
])
def test_exact_route_is_pinned(seed, value, rows, cols):
    # 40 parts merged to 12 x 16 and enumerated: the merge's order decides
    # the summation order, so the value is pinned bit for bit
    def parts(spec):
        ranges = (tuple(map(int, r.split("-"))) for r in spec.split())
        return tuple(i for r in ranges for i in range(r[0], r[-1] + 1))

    kern = exact_kernel(np.random.default_rng(seed), 40, 12, 16)
    assert cutnorm.reduced_dims(kern) == (12, 16)
    w, exact = kernel_cut_norm(kern)
    assert exact and (w.value.hex(), w.row_set, w.col_set) == (value, parts(rows), parts(cols))


def test_oracle_peaks_stay_within_three_quotients():
    # compression, in either mode, and distance hold the quotient as its
    # layer blocks; a dense route peaked at 6.0 quotient-sized arrays
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    new, _ = compress_network(net, target_d=24, seed=5, samples=10)
    limit = 3 * LayerStructure(3, 2, 2, 240).n_units**2 * 8
    for call in (
        lambda: compress_network(net, epsilon=0.01, seed=5, samples=10),
        lambda: comp_cut_distance_upper(net, new),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


@settings(max_examples=100, deadline=None)
@given(
    n_rows=st.integers(0, 10), n_cols=st.integers(2, 6), seed=st.integers(0, 2**32 - 1)
)
def test_doubling_subset_sums_match_the_selected_rows_sum(n_rows, n_cols, seed):
    # the enumeration's tables must add a subset's rows as the old per-value
    # sum did, so that exact witnesses stay bitwise the same; its rows have
    # two columns at least (the row totals), where that sum adds them one at
    # a time (a single column is summed pairwise)
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_rows, n_cols))
    sums = cutnorm._subset_sums(rows, np.empty((1 << n_rows, n_cols)))
    for i in range(1 << n_rows):
        want = rows[[b for b in range(n_rows) if (i >> b) & 1]].sum(axis=0)
        assert sums[i].tobytes() == (want + 0.0).tobytes()


def reference_enumeration(weighted, n_enum):
    """Every subset's column sums at once, from a (2^n x n) bit matrix."""
    idx = np.arange(1 << n_enum)
    bits = ((idx[:, None] >> np.arange(n_enum)[None, :]) & 1).astype(float)
    g = bits @ weighted[:n_enum]
    pos = np.where(g > 0, g, 0.0).sum(axis=1)
    neg = np.where(g < 0, -g, 0.0).sum(axis=1)
    cand = np.maximum(pos, neg)
    k = int(np.argmax(cand))
    if cand[k] > 0.0:
        return float(cand[k]), k, 1 if pos[k] >= neg[k] else -1
    return 0.0, 0, 1


@st.composite
def enumeration_instances(draw):
    """(weighted, n_enum, block, tied); block puts 2^n_lo low rows in the table.

    n_lo runs over 0 (no table), n_enum (no high rows) and every split
    between, with at most 2^8 values of the high rows. Tied instances
    repeat a few random rows, so distinct subsets share a value up to
    rounding.
    """
    n_enum = draw(st.integers(0, 14))
    n_cols = draw(st.integers(1, 6))
    n_lo = draw(st.integers(max(0, n_enum - 8), n_enum))
    block = draw(st.integers(n_cols << n_lo, (n_cols << (n_lo + 1)) - 1))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weighted = rng.uniform(-1.0, 1.0, (n_enum, n_cols))
    if tied and n_enum:
        weighted = weighted[rng.integers(0, 3, n_enum) % n_enum]
    return weighted, n_enum, block, tied


@settings(max_examples=300, deadline=None)
@given(inst=enumeration_instances())
def test_subset_enumeration_matches_bit_matrix_reference(inst):
    weighted, n_enum, block, tied = inst
    value, idx, side = cutnorm._best_subset_enumeration(weighted, n_enum, block=block)
    want = reference_enumeration(weighted, n_enum)
    assert abs(value - want[0]) <= 1e-12
    # the witness attains the value, up to rounding
    g = weighted[[b for b in range(n_enum) if (idx >> b) & 1]].sum(axis=0)
    assert abs(value - (g[g > 0].sum() if side > 0 else -g[g < 0].sum())) <= 1e-12
    if not tied:
        assert (idx, side) == want[1:]


def enumerate_at_cores(cpus, weighted, n_enum, block=cutnorm.ENUM_BLOCK):
    """The enumeration's (value as hex, index, side) with ``cpus`` cores available."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        value, idx, side = cutnorm._best_subset_enumeration(weighted, n_enum, block=block)
    return value.hex(), idx, side


@settings(max_examples=100, deadline=None)
@given(inst=enumeration_instances())
def test_subset_enumeration_does_not_depend_on_the_thread_count(inst):
    weighted, n_enum, block, _ = inst
    outs = {enumerate_at_cores(cpus, weighted, n_enum, block) for cpus in (1, 2, 3)}
    assert len(outs) == 1


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_subset_enumeration_split_unevenly_matches_one_thread(cpus, tied):
    # 8 high rows over 6 low ones: 256 values cut at 85 and 170 on 3 cores,
    # both inside a run of 64 that shares the rows above mid; 8 threads, more
    # than the cores, switch every few microseconds. Quarters sum exactly, so
    # the maximum ties across runs and the first run must keep it
    rng = np.random.default_rng(43)
    weighted = rng.integers(-4, 5, (14, 2)) / 4.0 if tied else rng.uniform(-1.0, 1.0, (14, 2))
    block = 3 << 6
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        assert cutnorm.enumeration_threads(14, 2, block=block) == cpus
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = enumerate_at_cores(cpus, weighted, 14, block)
    finally:
        sys.setswitchinterval(interval)
    assert got == enumerate_at_cores(1, weighted, 14, block)
    assert got[1:] == reference_enumeration(weighted, 14)[1:]


@pytest.mark.parametrize("n_enum, n_cols, started", [(8, 10, 0), (11, 30, 0), (14, 6, 1)])
def test_small_enumerations_start_no_thread(monkeypatch, n_enum, n_cols, started):
    # 8 x 10 is the benchmark's warm-up; 11 rows of 30 columns fill the table
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    real, seen = np.argmax, set()

    def counting(*args, **kwargs):
        seen.add(threading.active_count())
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argmax", counting)
    weighted = np.random.default_rng(47).uniform(-1.0, 1.0, (n_enum, n_cols))
    before = threading.active_count()
    cutnorm._best_subset_enumeration(weighted, n_enum)
    assert cutnorm.enumeration_threads(n_enum, n_cols) == 1 + started
    # a worker sees itself; the calling thread may outlast it
    assert max(seen) == before + started


@st.composite
def cancelling_kernels(draw):
    """Kernels on which the row-total column sums to 0 for some row subsets.

    Columns come in +/- pairs (every row total is 0), rows come in +/-
    pairs (a pair's column sums cancel), or every row is centred to sum to
    0. Measures are equal and, on the grid, entries are quarters, so with
    n a power of two many of these totals cancel exactly, not only up to
    rounding.
    """
    h = draw(st.sampled_from([1, 2, 4]))
    kind = draw(st.sampled_from(["column_pairs", "row_pairs", "centred_rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.integers(-4, 5, (2 * h, h)) / 4.0
    else:
        base = rng.uniform(-1.0, 1.0, (2 * h, h))
    if kind == "column_pairs":
        coeffs = np.hstack([base, -base])
    elif kind == "row_pairs":
        coeffs = np.vstack([base.T, -base.T])
    else:
        coeffs = np.hstack([base, base[::-1]])
        coeffs -= coeffs.mean(axis=1, keepdims=True)
        coeffs /= max(1.0, np.abs(coeffs).max())
    return StepKernel(equipartition(2 * h), coeffs)


@settings(max_examples=200, deadline=None)
@given(kern=cancelling_kernels())
def test_exact_witness_on_cancelling_row_totals_matches_double_enumeration(kern):
    w = kernel_cut_norm_exact(kern)
    assert abs(w.value - brute_force_cut_norm(kern)) <= 1e-12
    assert w.check(kern)


def test_subset_enumeration_memory_is_bounded_by_entries_not_subsets():
    # column sums of all 2^12 subsets at once would take 655 MB
    weighted = np.random.default_rng(13).uniform(-1.0, 1.0, (12, 20_000))
    tracemalloc.start()
    try:
        value, _, _ = cutnorm._best_subset_enumeration(weighted, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 64 << 20


def reference_best_start(weighted, S, T):
    """The loop's pick: exact block sums of every start, first strict maximum."""
    best = (0.0, np.zeros(S.shape[1], dtype=bool), np.zeros(T.shape[1], dtype=bool))
    for s, t in zip(S, T):
        val = abs(float(weighted[np.ix_(s, t)].sum())) if (s.any() and t.any()) else 0.0
        if val > best[0]:
            best = (val, s, t)
    return best[1], best[2]


def reference_lower(kern, restarts=32, seed=0, *, reduction=None):
    """The heuristic oracle as a loop over its starts, one start at a time.

    Same reduction, starts, rounds, tie tolerance and pick as
    ``kernel_cut_norm_lower``, which runs all starts together and sums block
    by block; only the order of its sums differs. The reduced blocks are put
    into one dense array.
    """
    blocks, rmeas, cmeas, rmap, cmap = reduction or cutnorm._shrink(kern)
    if not blocks:
        return CutWitness(0.0, (), ())
    c = np.zeros((rmeas.size, cmeas.size))
    for rs, cs, a in blocks:
        c[rs, cs] = a
    weighted = c * rmeas[:, None] * cmeas[None, :]
    nr, nc = weighted.shape
    tol = 4 * (nr + nc) * np.finfo(float).eps * np.abs(weighted).sum()
    rng = np.random.default_rng(seed)
    starts = [np.ones(nr, dtype=bool), weighted.sum(axis=1) > tol]
    starts += [rng.random(nr) < 0.5 for _ in range(restarts)]
    finals = []
    for s in starts:
        sign = 1
        for _ in range(cutnorm.LOWER_MAX_ROUNDS):
            g = weighted[s].sum(axis=0) if s.any() else np.zeros(weighted.shape[1])
            pos, neg = g[g > 0].sum(), -g[g < 0].sum()
            sign = 1 if pos >= neg - tol else -1
            t = g * sign > tol
            h = weighted[:, t].sum(axis=1) * sign if t.any() else np.zeros(nr)
            s_new = h > tol
            if np.array_equal(s_new, s):
                s = s_new
                break
            s = s_new
        g = weighted[s].sum(axis=0) if s.any() else np.zeros(weighted.shape[1])
        finals.append((s, g * sign > tol))
    S, T = (np.array(masks) for masks in zip(*finals))
    return cutnorm._witness(kern, rmap, cmap, *reference_best_start(weighted, S, T))


def same_witness(a, b):
    return (a.value, a.row_set, a.col_set) == (b.value, b.row_set, b.col_set)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    restarts=st.integers(0, 8),
    oracle_seed=st.integers(0, 2**32 - 1),
)
def test_batched_lower_matches_the_start_loop(seed, n, restarts, oracle_seed):
    # continuous entries leave no column sum at a rounding distance from 0
    kern = random_kernel(np.random.default_rng(seed), n)
    got = kernel_cut_norm_lower(kern, restarts=restarts, seed=oracle_seed)
    assert same_witness(got, reference_lower(kern, restarts=restarts, seed=oracle_seed))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    restarts=st.integers(0, 8),
    oracle_seed=st.integers(0, 2**32 - 1),
)
def test_batched_lower_on_ties_is_a_valid_lower_bound(seed, n, restarts, oracle_seed):
    # with entries in {-1, 0, 1} and equal measures, column sums sit exactly
    # at 0 and pos == neg ties occur, where the two summation orders may
    # round apart, so the witness may differ from the loop's
    rng = np.random.default_rng(seed)
    kern = StepKernel(equipartition(n), rng.integers(-1, 2, (n, n)).astype(float))
    w = kernel_cut_norm_lower(kern, restarts=restarts, seed=oracle_seed)
    assert w.value == evaluate_witness(kern, w)
    assert w.value <= kernel_cut_norm_exact(kern).value + 1e-12


@pytest.mark.parametrize("coeffs", [
    np.outer(np.ones(6), np.linspace(-0.9, 0.8, 6)),  # one reduced row
    np.outer(np.linspace(-0.7, 0.9, 6), np.ones(6)),  # one reduced column
    np.full((6, 6), -0.5),  # one of each
])
def test_batched_lower_on_a_single_reduced_row_or_column(coeffs):
    kern = StepKernel(Partition(np.random.default_rng(3).dirichlet(np.ones(6))), coeffs)
    assert 1 in _reduce(kern)[0].shape
    for restarts in (0, 3):
        got = kernel_cut_norm_lower(kern, restarts=restarts, seed=2)
        assert same_witness(got, reference_lower(kern, restarts=restarts, seed=2))
        assert got.value > 0.0


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_batched_lower_cut_off_by_the_round_cap_matches_the_loop(monkeypatch, rounds):
    # a random start on 30 continuous parts moves in its first rounds, so
    # these caps stop starts that have not converged
    monkeypatch.setattr(cutnorm, "LOWER_MAX_ROUNDS", rounds)
    for seed in range(5):
        kern = random_kernel(np.random.default_rng(seed), 30)
        got = kernel_cut_norm_lower(kern, restarts=8, seed=seed)
        assert same_witness(got, reference_lower(kern, restarts=8, seed=seed))


def test_batched_lower_keeps_the_last_sign_of_a_start_cut_off(monkeypatch):
    # after its one round, the positive-row-sum start holds more negative than
    # positive column mass; it keeps its last round's sign (+), and so loses
    # to the all-ones start instead of winning on its negative class
    monkeypatch.setattr(cutnorm, "LOWER_MAX_ROUNDS", 1)
    kern = StepKernel(
        Partition(np.array([0.413, 0.024, 0.563])),
        np.array([[-0.43, -0.5, 0.26], [0.68, 0.0, -0.42], [0.18, -0.5, -0.5]]),
    )
    got = kernel_cut_norm_lower(kern, restarts=0)
    assert same_witness(got, reference_lower(kern, restarts=0))
    assert (got.row_set, got.col_set) == ((0, 2), (0, 1, 2))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nr=st.integers(1, 30),
    nc=st.integers(1, 30),
    k=st.integers(1, 12),
)
def test_screened_pick_is_the_first_largest_block(seed, nr, nc, k):
    # entries in {-1, 0, 1} over equal masses and repeated starts: distinct
    # blocks tie or round apart, where the screen alone would pick wrongly
    rng = np.random.default_rng(seed)
    weighted = rng.integers(-1, 2, (nr, nc)) / (nr * nc)
    S = (rng.random((k, nr)) < 0.5)[rng.integers(0, k, k)]
    G = S @ weighted
    T = G * rng.choice([-1.0, 1.0], (k, 1)) > 0
    tol = 4 * (nr + nc) * np.finfo(float).eps * np.abs(weighted).sum()
    got = cutnorm._best_start([(slice(0, nr), slice(0, nc), weighted)], S, T, G, tol)
    want = reference_best_start(weighted, S, T)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_compression_is_unchanged_under_the_start_loop(monkeypatch):
    # guards compress_network's outputs against drift in the heuristic oracle
    net = random_network(3, 2, 2, 120, 5.0, np.random.default_rng(42))
    new, rep = compress_network(net, target_d=12, seed=5)
    calls = []
    monkeypatch.setattr(
        cutnorm,
        "kernel_cut_norm_lower",
        lambda *a, **kw: calls.append(1) or reference_lower(*a, **kw),
    )
    old, old_rep = compress_network(net, target_d=12, seed=5)
    assert calls  # the heuristic route was taken
    for a, b in zip(new.weights + new.biases, old.weights + old.biases):
        assert a.tobytes() == b.tobytes()
    assert (rep.delta_hat, rep.iterations) == (old_rep.delta_hat, old_rep.iterations)


def test_compression_runs_no_merge(monkeypatch):
    # the heuristic route merges nothing and builds no dense array of the
    # quotients, and the distance stage says so
    def refuse(*args):
        raise AssertionError("the heuristic route merged")

    for name in ("_merge_rows", "_reduce"):
        monkeypatch.setattr(cutnorm, name, refuse)
    net = random_network(3, 2, 2, 120, 5.0, np.random.default_rng(42))
    _, rep = compress_network(net, target_d=12, seed=5)
    assert rep.stages[2]["name"] == "distance" and not rep.delta_exact
    assert rep.stages[2]["detail"].endswith("; oracle on 242 x 243")


def fine_permutation_index(layers, perms):
    """Index map over the fine partition from per-hidden-layer perms."""
    idx = np.arange(layers.n)
    for ell, perm in zip(range(1, layers.L), perms):
        if perm is None:
            continue
        sl = layers.layer_slice(ell)
        idx[sl] = sl.start + np.asarray(perm, dtype=int)
    return idx


def full_kernel_distance_reference(ck, cj, mode, oracle="exact"):
    """The distance as measured before the unit quotient: on the full kernels.

    Both (L+2)*d layouts are compared on the common refinement of their
    equipartitions, n + n' parts at most, minimized over hidden-part
    permutations in 'exhaustive' mode.
    """
    a, b = ck.layers, cj.layers
    candidates = [(None,) * (a.L - 1)]
    if mode == "exhaustive":
        layer_perms = list(itertools.permutations(range(a.d)))
        candidates = itertools.product(layer_perms, repeat=a.L - 1)
    N = math.lcm(a.n, b.n)
    cuts = np.union1d(np.arange(0, N + 1, N // a.n), np.arange(0, N + 1, N // b.n))
    refined = Partition(np.diff(cuts) / N)
    ri, rj = cuts[:-1] // (N // a.n), cuts[:-1] // (N // b.n)
    kc = ck.kernel.dense().coeffs[np.ix_(ri, ri)]
    best = None
    for perms in candidates:
        idx = fine_permutation_index(b, perms)[rj]
        diff = kc - cj.kernel.dense().coeffs[np.ix_(idx, idx)]
        whole = slice(0, refined.size)
        w, _ = difference_cut_norm(refined, [(whole, whole, diff)], oracle, 0)
        best = w.value if best is None else min(best, w.value)
    return best


@st.composite
def small_network_pair(draw):
    """Two networks on one (L, d0, dL, B), exactly enumerable when compared."""
    L = draw(st.integers(2, 3))
    d0, dL = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    M = math.lcm(d0, dL)
    top = (8 if L == 2 else 4) // M
    d, e = (M * draw(st.integers(1, top)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return tuple(random_network(L, d0, dL, w, L + 3.0, rng) for w in (d, e))


def small_layered_pair():
    """The kernels ``small_network_pair``'s networks induce."""
    return small_network_pair().map(lambda pair: tuple(map(induce_kernel, pair)))


@settings(max_examples=40, deadline=None)
@given(pair=small_layered_pair())
def test_unit_quotient_keeps_the_exact_cut_norm(pair):
    for ck in pair:
        full = kernel_cut_norm_exact(ck.kernel).value
        assert abs(kernel_cut_norm_exact(unit_blocks(ck)).value - full) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(pair=small_layered_pair(), exhaustive=st.booleans())
def test_comp_distance_on_quotients_matches_the_full_kernels(pair, exhaustive):
    ck, cj = pair
    mode = "exhaustive" if exhaustive and ck.d == cj.d <= 3 else "identity"
    got = comp_cut_distance_upper(ck, cj, mode=mode, oracle="exact")
    assert got.exact
    assert abs(got.value - full_kernel_distance_reference(ck, cj, mode)) <= 1e-12


def same_distance(got, want):
    """Two distance results agree bit for bit, witness sets included."""
    return (
        got.value.hex() == want.value.hex()
        and (got.exact, got.mode, got.permutations) == (want.exact, want.mode, want.permutations)
        and (got.witness.row_set, got.witness.col_set)
        == (want.witness.row_set, want.witness.col_set)
    )


@settings(max_examples=40, deadline=None)
@given(pair=small_network_pair(), exhaustive=st.booleans())
def test_comp_distance_of_networks_is_that_of_their_kernels(pair, exhaustive):
    net_a, net_b = pair
    mode = "exhaustive" if exhaustive and net_a.d == net_b.d <= 3 else "identity"
    ck, cj = induce_kernel(net_a), induce_kernel(net_b)
    want = comp_cut_distance_upper(ck, cj, mode=mode)
    assert same_distance(comp_cut_distance_upper(net_a, net_b, mode=mode), want)
    assert same_distance(comp_cut_distance_upper(net_a, cj, mode=mode), want)
    assert same_distance(comp_cut_distance_upper(ck, net_b, mode=mode), want)


@pytest.mark.parametrize("d, e", [(36, 24), (24, 12), (12, 12)])
def test_comp_distance_of_networks_on_the_heuristic_route(d, e):
    rng = np.random.default_rng(17)
    net_a = random_network(3, 2, 2, d, 5.0, rng)
    net_b = random_network(3, 2, 2, e, 5.0, rng)
    got = comp_cut_distance_upper(net_a, net_b, seed=3)
    want = comp_cut_distance_upper(induce_kernel(net_a), induce_kernel(net_b), seed=3)
    assert not got.exact
    assert same_distance(got, want)


def test_comp_distance_checks_networks_like_kernels():
    rng = np.random.default_rng(18)
    net = random_network(2, 1, 1, 4, 6.0, rng)
    with pytest.raises(ParameterError, match="\\(L, d0, dL\\)"):
        comp_cut_distance_upper(net, random_network(3, 1, 1, 4, 6.0, rng))
    with pytest.raises(ParameterError, match="disagree on B"):
        comp_cut_distance_upper(net, random_network(2, 1, 1, 4, 7.0, rng))
    with pytest.raises(ParameterError, match="equal hidden dims"):
        comp_cut_distance_upper(net, random_network(2, 1, 1, 2, 6.0, rng), mode="exhaustive")
