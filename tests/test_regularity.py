import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap import regularity
from densecap.cutnorm import kernel_cut_norm_exact
from densecap.errors import CapacityError, ParameterError
from densecap.kernels import (
    BlockKernel,
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    extract_network,
    induce_kernel,
    unit_blocks,
    validate_computational,
)
from densecap.networks import forward, random_network
from densecap.partitions import Partition, equipartition
from densecap.regularity import compress_network, weak_regularity

from conftest import package_env, random_layered_net


def residual_cut_norm_exact(kern, proj):
    half = StepKernel(kern.partition, (kern.coeffs - proj.coeffs) / 2.0)
    return 2.0 * kernel_cut_norm_exact(half).value


def group_average(kern, labels):
    """The blockwise average ``_refine`` takes: (group kernel, fine kernel)."""
    vals, gm, inverse = regularity._project_grouping(kern, labels)
    return (
        StepKernel(Partition(gm), np.clip(vals, -1, 1)),
        StepKernel(kern.partition, np.clip(vals[np.ix_(inverse, inverse)], -1, 1)),
    )


def test_project_own_partition_is_identity():
    rng = np.random.default_rng(0)
    kern = StepKernel(Partition(rng.dirichlet(np.ones(6))), rng.uniform(-1, 1, (6, 6)))
    coarse, fine = group_average(kern, np.arange(6))
    assert coarse.partition == kern.partition
    assert np.array_equal(coarse.coeffs, kern.coeffs)
    assert np.array_equal(fine.coeffs, kern.coeffs)


def test_project_symmetric_cancellation():
    kern = StepKernel(equipartition(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    out, _ = group_average(kern, np.zeros(2, dtype=np.int64))
    assert out.coeffs.shape == (1, 1)
    assert abs(out.coeffs[0, 0]) <= 1e-15


def test_project_preserves_block_integrals():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(3, 12))
        kern = StepKernel(
            Partition(rng.dirichlet(np.ones(n))), rng.uniform(-1, 1, (n, n))
        )
        kp, _ = group_average(kern, rng.integers(0, int(rng.integers(1, 5)), n))
        m, mp = kern.partition.measures, kp.partition.measures
        assert abs(
            (kern.coeffs * np.outer(m, m)).sum()
            - (kp.coeffs * np.outer(mp, mp)).sum()
        ) <= 1e-12


def test_project_idempotent_through_coarse_partition():
    rng = np.random.default_rng(2)
    kern = StepKernel(equipartition(12), rng.uniform(-1, 1, (12, 12)))
    labels = np.repeat(np.arange(3), 4)
    once, fine = group_average(kern, labels)
    twice, _ = group_average(fine, labels)
    assert np.allclose(once.coeffs, twice.coeffs, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(2, 4), d=st.integers(1, 12), groups=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_block_projection_matches_the_dense_one(L, d, groups, seed):
    # groups within the layers: the blocks give the dense averages up to the
    # order of their sums, and vanish where the dense ones are exactly 0
    net = random_network(L, 1, 1, d, L + 3.0, np.random.default_rng(seed))
    ls, bk = net.layers, unit_blocks(net)
    raw = np.random.default_rng(seed).integers(0, groups, ls.n_units)
    struct = unit_structural_labels(ls)
    labels = raw * (struct.max() + 1) + struct  # groups within the layers
    vals, gm, inverse = regularity._project_grouping(bk, labels)
    want, want_gm, want_inverse = regularity._project_grouping(bk.dense(), labels)
    assert np.array_equal(gm, want_gm) and np.array_equal(inverse, want_inverse)
    assert np.abs(vals - want).max() <= 4 * ls.n_units * np.finfo(float).eps
    assert np.array_equal(vals == 0.0, want == 0.0)


def test_weak_regularity_constant_kernel_immediate():
    kern = StepKernel(equipartition(8), np.full((8, 8), 0.3))
    tr = weak_regularity(kern, 0.5, oracle="exact")
    assert tr.status == "certified"
    assert len(tr.iterations) == 1
    assert tr.step_kernel.partition.size == 1
    assert tr.bound <= 1e-12


def test_weak_regularity_own_partition_start_terminates_at_zero():
    rng = np.random.default_rng(3)
    kern = StepKernel(equipartition(10), rng.uniform(-1, 1, (10, 10)))
    tr = regularity._refine(kern, np.arange(10), 2.0, 1, "exact", 0)
    assert len(tr.iterations) == 1
    assert tr.status == "certified"
    assert tr.bound == 0.0
    assert np.array_equal(tr.projected_fine.coeffs, kern.coeffs)


def test_weak_regularity_runs_on_a_networks_block_kernels():
    # the start is the L+2 layer regions: a one-part start would average
    # across them, where the kernel vanishes
    net = random_network(3, 2, 2, 12, 5.0, np.random.default_rng(0))
    for kern in (induce_kernel(net).kernel, unit_blocks(net)):
        tr = weak_regularity(kern, 0.5, oracle="auto")
        assert isinstance(tr, regularity.RegularityTrace)
        assert tr.partition_sizes[0] == net.L + 2
        # the exact oracle refuses the residual's distinct rows, over its cap
        with pytest.raises(CapacityError):
            weak_regularity(kern, 0.5, oracle="exact")


def test_weak_regularity_defaults_to_the_auto_oracle():
    # the exact oracle refuses the first residual here (27 and 26 distinct
    # rows, cap 24); the default measures it with the heuristic instead
    net = random_network(3, 2, 2, 12, 5.0, np.random.default_rng(0))
    for kern in (induce_kernel(net).kernel, unit_blocks(net)):
        tr = weak_regularity(kern, 0.5)
        assert tr.partition_sizes == [net.L + 2] and not tr.oracle_exact
    # where the exact oracle runs, the default gives its trace
    rng = np.random.default_rng(5)
    for n in (6, 10, 16):
        kern = StepKernel(equipartition(n), rng.uniform(-1.0, 1.0, (n, n)))
        got, want = weak_regularity(kern, 0.05), weak_regularity(kern, 0.05, oracle="exact")
        assert len(want.iterations) == 3
        assert np.array_equal(got.labels, want.labels)
        assert got.energies == want.energies and got.bound == want.bound
        assert (got.status, got.oracle_exact) == (want.status, want.oracle_exact)


SMALL_NETS = [(2, 1, 1, 6, 4.0, 0), (2, 2, 3, 6, 4.0, 0), (3, 1, 1, 4, 5.0, 1),
              (2, 3, 2, 6, 4.0, 2)]


@pytest.mark.parametrize("L, d0, dL, d, B, seed", SMALL_NETS)
def test_fine_and_unit_kernels_refine_alike(L, d0, dL, d, B, seed):
    net = random_network(L, d0, dL, d, B, np.random.default_rng(seed))
    fine, units = (
        weak_regularity(k, 0.005, oracle="exact")
        for k in (induce_kernel(net).kernel, unit_blocks(net))
    )
    assert len(fine.iterations) > 2
    assert fine.partition_sizes == units.partition_sizes
    assert np.allclose(fine.energies, units.energies, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L, d0, dL, d, B, seed", SMALL_NETS)
def test_certified_block_residual_is_within_eps(L, d0, dL, d, B, seed):
    # the final residual, measured again on the fine n x n array
    net = random_network(L, d0, dL, d, B, np.random.default_rng(seed))
    fine = induce_kernel(net).kernel
    dense = fine.dense()
    for kern, lift in ((fine, 1), (unit_blocks(net), net.layers.unit_parts())):
        tr = weak_regularity(kern, 0.005, oracle="exact")
        assert tr.certified
        proj = np.repeat(np.repeat(tr.projected_fine.coeffs, lift, axis=0), lift, axis=1)
        v = residual_cut_norm_exact(dense, StepKernel(dense.partition, proj))
        assert v < 0.005
        assert abs(v - tr.bound) <= 1e-12


def test_weak_regularity_iterates_and_certifies():
    rng = np.random.default_rng(4)
    for trial in range(10):
        kern = StepKernel(equipartition(10), rng.uniform(-1, 1, (10, 10)))
        eps = 0.08
        tr = weak_regularity(kern, eps, oracle="exact")
        assert tr.status in ("certified", "cap_reached")
        if tr.status == "certified":
            v = residual_cut_norm_exact(kern, tr.projected_fine)
            assert v < eps + 1e-12
            assert abs(v - tr.bound) <= 1e-12
        # trace invariants
        en = tr.energies
        assert all(b >= a - 1e-12 for a, b in zip(en, en[1:]))
        sizes = tr.partition_sizes
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert len(tr.iterations) <= int(np.ceil(4 / eps**2)) + 1
        # each completed refinement must buy at least witness^2 of energy
        for before, after in zip(tr.iterations, tr.iterations[1:]):
            assert after.energy >= before.energy + before.witness_value**2 - 1e-9


def test_weak_regularity_energy_bounded_by_kernel_energy():
    rng = np.random.default_rng(5)
    kern = StepKernel(equipartition(9), rng.uniform(-1, 1, (9, 9)))
    tr = weak_regularity(kern, 0.1, oracle="exact")
    m = kern.partition.measures
    total = float(np.sum(kern.coeffs**2 * np.outer(m, m)))
    assert all(r.energy <= total + 1e-12 for r in tr.iterations)


def test_weak_regularity_rejects_bad_eps():
    kern = StepKernel(equipartition(2), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        weak_regularity(kern, 0.0)
    with pytest.raises(ParameterError):
        weak_regularity(kern, 2.5)
    with pytest.raises(ParameterError, match="eps must be a real number, got True"):
        weak_regularity(kern, True)
    with pytest.raises(ParameterError, match="eps must be a real number, got '0.5'"):
        weak_regularity(kern, "0.5")


def recorded_groupings(monkeypatch):
    """Every (permuted, averaged) pair ``compress_network`` builds, in order."""
    pairs = []
    grouped = regularity._grouped
    monkeypatch.setattr(
        regularity, "_grouped", lambda *a: pairs.append(grouped(*a)) or pairs[-1]
    )
    return pairs


def hidden_orders(net, permuted):
    """Each hidden layer's unit order in ``permuted``, read off its bias and weights."""
    orders = []
    for ell in range(1, net.L):
        rows = np.column_stack([net.biases[ell - 1], net.weights[ell - 1]])
        prows = np.column_stack([permuted.biases[ell - 1], permuted.weights[ell - 1]])
        if ell > 1:  # the previous layer's order moved the columns
            rows = rows[:, np.r_[0, 1 + orders[-1]]]
        index = {r.tobytes(): i for i, r in enumerate(rows)}
        orders.append(np.array([index[r.tobytes()] for r in prows]))
    return orders


def test_layer_respecting_partition_refines_structure(monkeypatch):
    # every width tried groups each hidden layer's own units, all of them
    net = random_network(3, 2, 2, 120, 5.0, np.random.default_rng(7))
    pairs = recorded_groupings(monkeypatch)
    _, rep = compress_network(net, epsilon=0.8, oracle="heuristic", samples=10)
    assert len(pairs) == rep.iterations == 1 and rep.fk_status == "within_epsilon"
    (permuted, averaged), = pairs
    assert averaged.d == rep.d_compressed == 2
    for order in hidden_orders(net, permuted):
        assert np.array_equal(np.sort(order), np.arange(net.d))
    assert rep.stages[0]["detail"].startswith("1 widths tried; width 2, delta_hat estimate ")


def _slice_stream_reference(groups, unit, tol=1e-12):
    """The piece-by-piece walk that ``_slot_weights`` replaced.

    ``groups`` is a list of groups, each an ordered list of (piece, size).
    Returns (units as lists of (piece, amount), h).
    """
    parts = []
    leftovers = []
    for group in groups:
        total = sum(m for _, m in group)
        q = int(math.floor(total / unit + 1e-9))
        rem = total - q * unit
        if rem <= tol:
            rem = 0.0
        walk = [(k, m) for k, m in group]
        walk.reverse()
        for _ in range(q):
            need, got = unit, []
            while need > tol and walk:
                k, m = walk.pop()
                take = min(m, need)
                got.append((k, take))
                need -= take
                if m - take > tol:
                    walk.append((k, m - take))
            parts.append(got)
        leftover = []
        while walk:
            leftover.append(walk.pop())
        if rem > 0.0 and leftover:
            leftovers.extend(leftover)
    pooled = sum(m for _, m in leftovers)
    h = int(round(pooled / unit))
    walk = list(reversed(leftovers))
    for r in range(h):
        need, got = unit, []
        while walk and (need > tol or r == h - 1):
            k, m = walk.pop()
            take = m if r == h - 1 else min(m, need)
            got.append((k, take))
            need -= take
            if m - take > tol and r < h - 1:
                walk.append((k, m - take))
        parts.append(got)
    return parts, h


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data())
def test_slot_weights_match_piece_walk(d, data):
    # one stream of d units of d_new ticks each, cut every d ticks
    d_new = data.draw(st.integers(1, d))
    P = regularity._slot_matrix(d, d_new)
    ref, h = _slice_stream_reference([[(i, d_new) for i in range(d)]], d)
    assert h == 0 and len(ref) == P.shape[0] == d_new
    for row, comp in zip(P, ref):  # exact tick ratios
        assert {int(k): row[k] for k in np.flatnonzero(row)} == {k: m / d for k, m in comp}
    ticks = np.rint(P * d)
    assert np.array_equal(ticks.sum(axis=1), np.full(d_new, d))
    assert np.array_equal(ticks.sum(axis=0), np.full(d, d_new))
    if d % d_new == 0:  # whole units: 0/1 times d_new / d
        assert set(np.unique(ticks)) <= {0.0, float(d_new)}


def dense_distance_exact(net, new):
    """The exact cut norm of the difference of two networks' kernels, identity
    layout, on the common refinement of their fine partitions, from the
    n x n kernels."""
    a, b = induce_kernel(net), induce_kernel(new)
    N = math.lcm(a.layers.n, b.layers.n)
    ua, ub = N // a.layers.n, N // b.layers.n
    cuts = np.union1d(np.arange(0, N + 1, ua), np.arange(0, N + 1, ub))
    ri, rj = cuts[:-1] // ua, cuts[:-1] // ub
    diff = a.kernel.dense().coeffs[np.ix_(ri, ri)] - b.kernel.dense().coeffs[np.ix_(rj, rj)]
    half = StepKernel(Partition(np.diff(cuts) / N), diff / 2.0)
    return 2.0 * kernel_cut_norm_exact(half).value


def test_layer_refinement_does_not_increase_distance_small_instances(monkeypatch):
    # with the exact oracle, the width returned is within epsilon of the
    # original as the dense kernels measure it, or it is the original
    rng = np.random.default_rng(8)
    pairs = recorded_groupings(monkeypatch)
    shrunk = 0
    for _ in range(8):
        net = random_layered_net(rng, L=2, max_d=8, d0=1, dL=1)
        pairs.clear()
        new, rep = compress_network(net, epsilon=0.02, oracle="exact", samples=10)
        assert rep.delta_exact and rep.stages[0]["detail"].endswith(
            f"width {new.d}, delta_hat exact {rep.delta_hat:.4g}"
        )
        if new.d == net.d:
            assert new is net and rep.delta_hat == 0.0 and rep.fk_status == "full_width"
            continue
        (permuted,) = [p for p, a in pairs if a is new]
        assert rep.delta_hat <= 0.02
        assert abs(dense_distance_exact(permuted, new) - rep.delta_hat) <= 1e-12
        shrunk += 1
    assert shrunk >= 6


def test_compress_epsilon_stage_label_names_estimates():
    # the search ends on a heuristic distance, so its value is no certificate
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    _, rep = compress_network(net, epsilon=0.03, seed=5, samples=100)
    stage = rep.stages[0]
    assert stage["status"] == rep.fk_status == "within_epsilon"
    assert stage["detail"] == "1 widths tried; width 2, delta_hat estimate 0.02081"
    assert not rep.delta_exact and "certified" not in rep.bound_label.replace("not certified", "")


def test_compress_never_builds_the_dense_quotient(monkeypatch):
    # both modes measure the quotients as their layer blocks
    def never(self):
        raise AssertionError("BlockKernel.dense reached")

    monkeypatch.setattr(BlockKernel, "dense", never)
    net = random_network(3, 2, 2, 48, 5.0, np.random.default_rng(42))
    for kw in ({"target_d": 12}, {"epsilon": 0.01}, {"target_d": 48}):
        _, rep = compress_network(net, seed=5, samples=100, **kw)
        assert rep.validation_ok


def test_compress_records_oracle_routes_and_stage_times():
    # the 240->24 distance takes the heuristic route; the stage times
    # partition the run
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    for kw, names in (
        ({"target_d": 24}, ["grouping", "validate", "distance", "empirical"]),
        ({"epsilon": 0.015}, ["grouping", "validate", "empirical"]),
    ):
        _, rep = compress_network(net, seed=5, samples=100, **kw)
        assert [st["name"] for st in rep.stages] == names
        assert not rep.delta_exact
        assert all(st["elapsed_s"] > 0.0 for st in rep.stages)
        assert sum(st["elapsed_s"] for st in rep.stages) <= rep.elapsed_s
    assert rep.stages[0]["detail"] == "4 widths tried; width 8, delta_hat estimate 0.01454"


def test_iteration_records_name_the_exact_route():
    kern = StepKernel(equipartition(6), np.random.default_rng(4).uniform(-1, 1, (6, 6)))
    trace = weak_regularity(kern, 0.05, oracle="auto")
    assert trace.oracle_exact and all(r.exact for r in trace.iterations)
    # the exact route runs on the merge; 6 parts reduce to at most 6 x 6
    assert all(max(r.oracle_dims) <= 6 for r in trace.iterations)


def test_compress_identity_width():
    # nothing is grouped at the own width, so it is reproduced bitwise
    for net, seed in (
        (random_network(2, 2, 2, 8, 8.0, np.random.default_rng(11)), 0),
        (random_network(3, 2, 2, 24, 5.0, np.random.default_rng(42)), 5),
    ):
        net2, rep = compress_network(net, target_d=net.d, seed=seed, samples=500)
        assert rep.delta_hat == 0.0
        assert rep.empirical_max == 0.0
        assert rep.iterations == 1
        assert rep.fk_status == "target_width"
        assert [st["name"] for st in rep.stages] == [
            "grouping", "validate", "distance", "empirical"
        ]
        for a, b in zip(net.weights + net.biases, net2.weights + net2.biases):
            assert np.array_equal(a, b)


def test_compress_bound_chain_small():
    rng = np.random.default_rng(12)
    net = random_network(2, 1, 1, 24, 4.0, rng)
    net2, rep = compress_network(net, target_d=6, seed=1, samples=3000)
    assert rep.validation_ok
    assert rep.d_compressed == 6
    assert rep.empirical_max <= rep.theoretical_bound
    assert validate_computational(induce_kernel(net2)).ok


def test_compress_epsilon_mode_large_eps():
    rng = np.random.default_rng(13)
    net = random_network(2, 2, 3, 24, 5.0, rng)
    net2, rep = compress_network(net, epsilon=1.9, seed=0, samples=2000)
    assert rep.d_compressed % 6 == 0  # lcm(2, 3)
    assert rep.empirical_max <= rep.theoretical_bound


def test_compress_rejects_bad_width():
    rng = np.random.default_rng(14)
    net = random_network(2, 2, 3, 12, 5.0, rng)
    with pytest.raises(ParameterError):
        compress_network(net, target_d=8)  # not divisible by lcm(2,3)
    with pytest.raises(ParameterError):
        compress_network(net)  # neither epsilon nor target
    with pytest.raises(ParameterError):
        compress_network(net, epsilon=0.5, target_d=6)  # both


def test_compress_checks_inputs_before_inducing(monkeypatch):
    net = random_network(2, 2, 3, 12, 5.0, np.random.default_rng(14))

    def never(net):
        raise AssertionError("induce_kernel reached")

    monkeypatch.setattr(regularity, "induce_kernel", never)
    monkeypatch.setattr(regularity, "_grouped", never)
    with pytest.raises(ParameterError, match="samples"):
        compress_network(net, target_d=6, samples=0)
    with pytest.raises(ParameterError, match="samples must be an integer"):
        compress_network(net, target_d=6, samples=2.5)
    with pytest.raises(ParameterError, match="samples must be an integer, got True"):
        compress_network(net, target_d=6, samples=True)
    with pytest.raises(ParameterError, match="seed must be non-negative"):
        compress_network(net, target_d=6, seed=-1)
    with pytest.raises(ParameterError, match="exceeds"):
        compress_network(net, target_d=24)  # would widen 12 -> 24
    with pytest.raises(ParameterError, match="divisible"):
        compress_network(net, target_d=8)  # lcm(2, 3) = 6
    with pytest.raises(ParameterError, match="target_d must be at least 6, got 0"):
        compress_network(net, target_d=0)
    with pytest.raises(ParameterError, match="target_d must be an integer"):
        compress_network(net, target_d=6.5)
    with pytest.raises(ParameterError, match="unknown oracle 'bogus'"):
        compress_network(net, target_d=6, oracle="bogus")
    with pytest.raises(ParameterError, match=r"epsilon must lie in \(0, 4\], got nan"):
        compress_network(net, epsilon=float("nan"))
    with pytest.raises(ParameterError, match=r"epsilon must lie in \(0, 4\], got 5.0"):
        compress_network(net, epsilon=5.0)
    with pytest.raises(ParameterError, match="epsilon must be a real number, got '0.5'"):
        compress_network(net, epsilon="0.5")
    with pytest.raises(ParameterError, match="epsilon must be a real number, got True"):
        compress_network(net, epsilon=True)
    with pytest.raises(ParameterError, match="target_d must be an integer, got True"):
        compress_network(net, target_d=True)
    monkeypatch.undo()
    _, rep = compress_network(net, target_d=12, samples=1)
    assert rep.d_compressed == 12 and rep.delta_hat == 0.0


def sandwich_reference(net, d_new):
    """The kernel-sandwich construction of ``compress_network``'s average.

    One slot matrix over all L+2 regions, each region's d parts cut into
    d_new contiguous slots by the piece walk, averages the whole kernel of
    the grouped network, P K P^T; the forbidden blocks are zeroed, the bias
    block pinned, the coefficients clipped and the network read back off
    the kernel.
    """
    ck = induce_kernel(net)
    ls = ck.layers
    ls_new = LayerStructure(ls.L, ls.d0, ls.dL, d_new)
    slots, _ = _slice_stream_reference([[(i, d_new) for i in range(ls.d)]], ls.d)
    band = np.zeros((d_new, ls.d))
    for k, comp in enumerate(slots):
        for i, m in comp:
            band[k, i] = m / ls.d
    weights = np.zeros((ls_new.n, ls.n))
    for ell in list(range(ls.L + 1)) + ["bias"]:
        weights[ls_new.layer_slice(ell), ls.layer_slice(ell)] = band
    full = weights @ ck.kernel.dense().coeffs @ weights.T
    coeffs = np.zeros_like(full)  # every block outside blocks() is zeroed
    for rows, cols in ls_new.blocks():
        sl = np.s_[ls_new.layer_slice(rows), ls_new.layer_slice(cols)]
        coeffs[sl] = full[sl]
    coeffs[ls_new.bias_slice, ls_new.bias_slice] = (ls.L + 2) / ck.B
    coeffs = np.clip(coeffs, -1.0, 1.0)
    return extract_network(
        ComputationalKernel(StepKernel(ls_new.fine_partition(), coeffs), ls_new, ck.B)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 24),
    st.integers(0, 2**16), st.data(),
)
def test_compress_matches_kernel_sandwich(L, d0, dL, d, seed, data):
    M = math.lcm(d0, dL)
    d = M * max(1, d // M)
    target = M * data.draw(st.integers(1, d // M))
    net = random_network(L, d0, dL, d, L + 3.0, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        pairs = recorded_groupings(mp)
        got, _ = compress_network(
            net, target_d=target, oracle="heuristic", seed=seed, samples=1
        )
    ((permuted, averaged),) = pairs
    assert averaged is got
    ref = sandwich_reference(permuted, target)
    # rounding scales with the averaged entries, which can cancel to far less
    for a, b, c in zip(
        got.weights + got.biases, ref.weights + ref.biases, net.weights + net.biases
    ):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-14 * np.abs(c).max()


def test_compress_validates_once_and_extracts_nothing(monkeypatch):
    calls = {"validate": 0, "extract": 0}
    validate = regularity.validate_computational

    def counting_validate(ck):
        calls["validate"] += 1
        return validate(ck)

    def counting_extract(ck):
        calls["extract"] += 1
        return extract_network(ck)

    monkeypatch.setattr(regularity, "validate_computational", counting_validate)
    monkeypatch.setattr(regularity, "extract_network", counting_extract)
    net = random_network(3, 2, 2, 24, 5.0, np.random.default_rng(42))
    compress_network(net, target_d=12, seed=5, samples=100)
    assert calls == {"validate": 1, "extract": 0}


def test_compress_pipeline_roundtrip_on_result():
    rng = np.random.default_rng(15)
    net = random_network(3, 1, 1, 30, 8.0, rng)
    net2, rep = compress_network(net, target_d=6, seed=2, samples=1000)
    ck2 = induce_kernel(net2)
    assert validate_computational(ck2).ok
    net3 = extract_network(ck2)
    for a, b in zip(net2.weights + net2.biases, net3.weights + net3.biases):
        assert np.array_equal(a, b)


def test_compress_distance_needs_no_lcm_lift():
    # 50 -> 24 would lift both kernels to 600-wide layers (3000 x 3000 floats)
    net = random_network(3, 2, 2, 50, 5.0, np.random.default_rng(42))
    tracemalloc.start()
    try:
        _, rep = compress_network(net, target_d=24, samples=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d_compressed == 24 and rep.validation_ok
    assert peak < 32 << 20


def test_compressed_network_outputs_track_original():
    rng = np.random.default_rng(16)
    net = random_network(2, 1, 1, 60, 4.0, rng)
    net2, rep = compress_network(net, target_d=12, seed=3, samples=4000)
    xs = rng.uniform(0, 1, (200, 1))
    gap = float(np.max(np.abs(forward(net, xs) - forward(net2, xs))))
    assert gap <= rep.theoretical_bound


def structural_labels_reference(ls):
    """Input cell / hidden layer / output cell / bias keys, first-occurrence ids."""
    keys = [("in", i // (ls.d // ls.d0)) for i in range(ls.d)]
    keys += [("hidden", ell) for ell in range(1, ls.L) for _ in range(ls.d)]
    keys += [("out", i // (ls.d // ls.dL)) for i in range(ls.d)]
    keys += [("bias",)] * ls.d
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def unit_structural_labels(ls):
    """``structural_labels_reference`` on the units: each unit's first part's label."""
    parts = ls.unit_parts()
    return np.array(structural_labels_reference(ls))[np.cumsum(parts) - parts]


@pytest.mark.parametrize(
    "L,d0,dL,d,budget,seed",
    [(3, 2, 2, 24, 6, 0), (2, 1, 3, 12, 6, 1), (2, 2, 2, 16, 4, 2), (4, 1, 1, 10, 5, 3)],
)
def test_budgeted_refinement_respects_budget_and_structure(L, d0, dL, d, budget, seed):
    # the recursive splits refine each hidden layer into exactly ``budget``
    # slots of d/budget whole units, of that layer alone, and the permuted
    # network is the original with its hidden units reordered
    net = random_network(L, d0, dL, d, 6.0, np.random.default_rng(seed))
    permuted, averaged = regularity._grouped(net, budget)
    orders = hidden_orders(net, permuted)
    assert len(orders) == L - 1 and averaged.d == budget
    for ell, order in enumerate(orders, 1):
        assert np.array_equal(np.sort(order), np.arange(d))
        features = regularity._layer_features(net, ell)
        assert np.array_equal(order, regularity._group_order(features, budget, 1 < ell < L - 1))
    P = regularity._slot_matrix(d, budget)
    assert np.array_equal(P, np.kron(np.eye(budget), np.full(d // budget, budget / d)))
    assert validate_computational(induce_kernel(averaged)).ok


def test_compress_peak_stays_below_two_full_kernels():
    # the quotient is read off the weights and the gap is sampled in chunks,
    # so no array scales as the 1,200 x 1,200 kernel or as samples x d; what
    # is left is the refinement on 485 units and the small new kernel
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    full_kernel = (net.layers.n**2) * 8
    tracemalloc.start()
    try:
        _, rep = compress_network(net, target_d=24, seed=5, samples=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d_compressed == 24 and rep.validation_ok
    assert peak < 2 * full_kernel


@pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 10_000])
def test_chunked_gap_is_the_one_shot_gap(samples, monkeypatch):
    net = random_network(3, 2, 2, 24, 5.0, np.random.default_rng(19))
    # the chunks are forward's own: each network sees the whole batch once
    calls = []
    real_forward = regularity.forward

    def recording(n, x):
        calls.append((n.d, len(x)))
        return real_forward(n, x)

    monkeypatch.setattr(regularity, "forward", recording)
    new, rep = compress_network(net, target_d=12, seed=4, samples=samples)
    monkeypatch.undo()
    assert calls == [(24, samples), (12, samples)]
    threads = regularity.forward_threads(samples)
    detail = f"over {samples} samples on {threads} thread{'s' * (threads > 1)}"
    assert rep.stages[-1]["detail"].endswith(detail)
    xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(samples, net.d0))
    one_shot = float(np.max(np.abs(forward(net, xs) - forward(new, xs))))
    assert rep.empirical_max.hex() == one_shot.hex()


def test_refinement_does_not_hinge_on_summation_order():
    # a residual integrates to 0 over every group block, so the all-ones
    # start's sign classes tie exactly, and a singleton group's row and
    # column sums are exactly 0; the heuristic reads sums within its
    # rounding bound as 0, so the blocks and the dense quotient, which sum
    # in other orders, refine alike from the structural labels' residual
    # (they did not when a 1-ulp rounding picked the sign)
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    ls, q = net.layers, unit_blocks(net)
    blocks, dense = (
        regularity._refine(k, unit_structural_labels(ls), 1e-9, 3, "auto", 5)
        for k in (q, q.dense())
    )
    assert np.array_equal(blocks.labels, dense.labels)
    for a, b in zip(blocks.iterations, dense.iterations, strict=True):
        assert abs(a.witness_value - b.witness_value) <= 1e-15


def test_grouped_network_computes_the_same_function():
    xs = np.random.default_rng(1).uniform(0.0, 1.0, (1000, 2))
    for L, B in ((2, 5.0), (3, 5.0), (4, 6.0)):
        net = random_network(L, 2, 2, 240, B, np.random.default_rng(42))
        permuted, _ = regularity._grouped(net, 24)
        assert not np.array_equal(permuted.weights[0], net.weights[0])
        assert np.abs(forward(permuted, xs) - forward(net, xs)).max() <= 1e-12


@pytest.mark.parametrize("L, d, target", [(3, 240, 14), (3, 50, 24), (2, 240, 24), (4, 240, 24)])
def test_grouping_validates_at_every_multiple(L, d, target):
    # 14 and 24 do not divide 240 and 50: a slot boundary shares a unit
    net = random_network(L, 2, 2, d, max(5.0, L + 2.0), np.random.default_rng(42))
    new, rep = compress_network(net, target_d=target, seed=5, samples=200)
    assert new.d == target and rep.validation_ok
    assert rep.empirical_max <= rep.theoretical_bound


# delta_hat of the budgeted cut refinement that the grouping replaced, on
# the criterion-5 network with seed 5 at one BLAS thread
REFINEMENT_DELTA_HAT = {
    2: 0.028428, 4: 0.034021, 8: 0.036079, 12: 0.035908, 24: 0.036904, 48: 0.038055,
    120: 0.036417,
}


def test_grouping_is_closer_than_the_refinement_at_every_width():
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    got = {
        w: compress_network(net, target_d=w, seed=5, samples=10)[1].delta_hat
        for w in REFINEMENT_DELTA_HAT
    }
    assert all(got[w] < old for w, old in REFINEMENT_DELTA_HAT.items())
    assert got[24] <= 0.0125
    wide = random_network(3, 2, 2, 960, 5.0, np.random.default_rng(42))
    assert compress_network(wide, target_d=48, seed=5, samples=10)[1].delta_hat <= 0.0100


def test_grouping_is_deterministic():
    net = random_network(3, 2, 2, 240, 5.0, np.random.default_rng(42))
    (a, ra), (b, rb) = (compress_network(net, target_d=24, seed=5, samples=100) for _ in "ab")
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.tobytes() == y.tobytes()
    assert ra.delta_hat == rb.delta_hat


@pytest.mark.parametrize("d, seed, eps, width", [
    (240, 42, 0.03, 2), (240, 42, 0.015, 8), (120, 1, 0.02, 4),
])
def test_epsilon_mode_returns_a_width_within_epsilon(d, seed, eps, width):
    # the 120-wide network at 0.02 once gave width 6 at a distance of 0.0368
    net = random_network(3, 2, 2, d, 5.0, np.random.default_rng(seed))
    new, rep = compress_network(net, epsilon=eps, seed=5, samples=100)
    assert (new.d, rep.d_compressed) == (width, width) and rep.delta_hat <= eps
    # the width search measures each width as a target_d run does
    _, target = compress_network(net, target_d=width, seed=5, samples=100)
    assert target.delta_hat == rep.delta_hat


PINNED_RUN = """
import hashlib
import numpy as np
from densecap.networks import random_network
from densecap.regularity import compress_network
for d, t in ((240, 24), (120, 12)):
    net = random_network(3, 2, 2, d, 5.0, np.random.default_rng(42))
    new, rep = compress_network(net, target_d=t, seed=5)
    h = hashlib.sha256(b"".join(a.tobytes() for a in new.weights + new.biases))
    print(h.hexdigest(), rep.delta_hat.hex(), rep.empirical_max.hex(),
          rep.iterations, rep.fk_status)
"""


def test_compress_outputs_are_pinned_at_one_blas_thread():
    """240->24 and 120->12 by the principal-direction grouping: a sha256 of
    the weights and biases, then delta_hat, empirical_max, the widths
    tried and the search status. Bitwise equality holds only at a
    fixed BLAS thread count (see ``compress_network``), so the run gets one
    thread. The pins are numpy 2.4's bundled OpenBLAS on x86-64; another
    BLAS build may round the matrix products differently.
    """
    env = package_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", PINNED_RUN], capture_output=True, text=True,
        timeout=600, env=env, check=True,
    ).stdout.splitlines()
    assert out == [
        "dc62434cd0ca7f275a933caadc6278099c6b466e077ac68251e72576ddbb3213 "
        "0x1.2c0f59f41d515p-7 0x1.6029568917000p-10 1 target_width",
        "d8bd4757a2b1a846af4bd1bab017f053ce9ecf61801633eca15bd50aae31dcc9 "
        "0x1.9ea81d9a71772p-7 0x1.4cd2eaaa51980p-8 1 target_width",
    ]
