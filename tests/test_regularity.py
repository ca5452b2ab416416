import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap import regularity
from densecap.cutnorm import kernel_cut_norm_exact, l2_norm
from densecap.errors import ParameterError
from densecap.kernels import (
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    _allowed_support,
    extract_network,
    induce_kernel,
    validate_computational,
)
from densecap.networks import forward, random_network
from densecap.partitions import Partition, equipartition
from densecap.regularity import (
    apply_permutation,
    compress_network,
    equitize,
    layer_respecting_regularity,
    project,
    sort_to_intervals,
    weak_regularity,
)

from conftest import random_layered_net


def residual_cut_norm_exact(kern, proj):
    half = StepKernel(kern.partition, (kern.coeffs - proj.coeffs) / 2.0)
    return 2.0 * kernel_cut_norm_exact(half).value


def test_project_own_partition_is_identity():
    rng = np.random.default_rng(0)
    kern = StepKernel(Partition(rng.dirichlet(np.ones(6))), rng.uniform(-1, 1, (6, 6)))
    assert project(kern, kern.partition) is kern


def test_project_symmetric_cancellation():
    kern = StepKernel(equipartition(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    out = project(kern, equipartition(1))
    assert out.coeffs.shape == (1, 1)
    assert abs(out.coeffs[0, 0]) <= 1e-15


def test_project_preserves_block_integrals():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(3, 12))
        kern = StepKernel(
            Partition(rng.dirichlet(np.ones(n))), rng.uniform(-1, 1, (n, n))
        )
        coarse = Partition(rng.dirichlet(np.ones(int(rng.integers(1, 5)))))
        kp = project(kern, coarse)
        m, mp = kern.partition.measures, coarse.measures
        assert abs(
            (kern.coeffs * np.outer(m, m)).sum()
            - (kp.coeffs * np.outer(mp, mp)).sum()
        ) <= 1e-12


def test_project_idempotent_through_coarse_partition():
    rng = np.random.default_rng(2)
    kern = StepKernel(equipartition(12), rng.uniform(-1, 1, (12, 12)))
    coarse = equipartition(3)
    once = project(kern, coarse)
    twice = project(once, coarse)
    assert once is twice


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
    tr = weak_regularity(kern, 0.4, initial_labels=np.arange(10))
    assert tr.status == "certified"
    assert tr.bound == 0.0
    assert np.array_equal(tr.projected_fine.coeffs, kern.coeffs)


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
    total = l2_norm(kern) ** 2
    assert all(r.energy <= total + 1e-12 for r in tr.iterations)


def test_weak_regularity_rejects_bad_eps():
    kern = StepKernel(equipartition(2), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        weak_regularity(kern, 0.0)
    with pytest.raises(ParameterError):
        weak_regularity(kern, 2.5)
    with pytest.raises(ParameterError):
        weak_regularity(kern, 0.5, max_iter=-1)


def test_layer_respecting_trivial_on_induced_kernel_large_eps():
    rng = np.random.default_rng(6)
    net = random_layered_net(rng, L=2, max_d=6)
    ck = induce_kernel(net)
    res = layer_respecting_regularity(ck, 1.9, oracle="exact")
    # structure inherited: constant on input-cell columns, output-cell rows
    rep = validate_computational(
        type(ck)(
            StepKernel(ck.kernel.partition, np.clip(res.projected_fine.coeffs, -1, 1)),
            ck.layers,
            ck.B,
        ),
        atol=1e-9,
    )
    # conditions 2 and 3 hold for the projected kernel; 4 can average away
    assert rep.conditions["2 (cell constancy)"].passed
    assert rep.conditions["3 (zero pattern)"].passed


def test_layer_respecting_partition_refines_structure():
    rng = np.random.default_rng(7)
    net = random_network(3, 2, 2, 120, 5.0, rng)
    ck = induce_kernel(net)
    res = layer_respecting_regularity(ck, 0.8, oracle="heuristic")
    labels = res.labels
    struct = ck.layers.structural_labels()
    # every final group must sit inside one structural group
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        assert len({struct[i] for i in members}) == 1


def test_layer_respecting_measurement_errors_propagate(monkeypatch):
    # the loop runs with oracle="exact"; only the final measurement is "auto"
    original = regularity.kernel_cut_norm

    def failing(kern, oracle, **kw):
        if oracle == "auto":
            raise RuntimeError("measurement failed")
        return original(kern, oracle=oracle, **kw)

    monkeypatch.setattr(regularity, "kernel_cut_norm", failing)
    ck = induce_kernel(random_layered_net(np.random.default_rng(6), L=2, max_d=6))
    with pytest.raises(RuntimeError, match="measurement failed"):
        layer_respecting_regularity(ck, 1.9, oracle="exact")


def test_project_rejects_target_parts_left_empty(monkeypatch):
    # claim a refinement that does not hold: two parts cannot fill four
    monkeypatch.setattr(regularity, "is_refinement", lambda own, target: True)
    kern = StepKernel(equipartition(2), np.eye(2))
    with pytest.raises(ParameterError, match="2 of 4 target parts"):
        project(kern, equipartition(4))


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
@given(
    st.lists(
        st.tuples(st.integers(1, 20), st.integers(0, 4)), min_size=1, max_size=25
    ),
    st.integers(1, 12),
)
def test_slot_weights_match_piece_walk(pieces, unit):
    sizes = np.array([s for s, _ in pieces])
    sizes[-1] += -int(sizes.sum()) % unit  # a whole number of units
    labels = np.array([g for _, g in pieces])
    amounts, h = regularity._slot_weights(sizes, labels, unit)

    streams = {}
    for i, g in enumerate(labels):
        streams.setdefault(g, []).append((i, int(sizes[i])))
    ref, ref_h = _slice_stream_reference(list(streams.values()), unit)
    assert h == ref_h < len(streams)
    assert len(ref) == amounts.shape[0] == sizes.sum() // unit
    for row, comp in zip(amounts, ref):
        assert {int(k): row[k] for k in np.flatnonzero(row)} == dict(comp)
    assert np.array_equal(amounts.sum(axis=1), np.full(len(ref), unit))
    assert np.array_equal(amounts.sum(axis=0), sizes)
    for row in amounts[: len(ref) - h]:
        assert np.unique(labels[row > 0]).size == 1


def test_layer_refinement_does_not_increase_distance_small_instances():
    rng = np.random.default_rng(8)
    for _ in range(8):
        net = random_layered_net(rng, L=2, max_d=4)
        ck = induce_kernel(net)
        tr = weak_regularity(ck.kernel, 0.3, oracle="exact")
        before = residual_cut_norm_exact(ck.kernel, tr.projected_fine)
        res = layer_respecting_regularity(ck, 0.6, oracle="exact")
        after = residual_cut_norm_exact(ck.kernel, res.projected_fine)
        assert after <= before + 1e-12
        assert res.certified_bound >= after - 1e-12


def test_equitize_hand_example():
    part = Partition(np.array([0.35, 0.65]))
    res = equitize(part, 10)
    assert res.h == 1
    assert res.refinement_mask.sum() == 9
    origins = [c[0][0] for c in res.refinement_parts]
    assert origins.count(0) == 3 and origins.count(1) == 6
    for comp in res.refinement_parts:
        assert len(comp) == 1 and abs(comp[0][1] - 0.1) <= 1e-12
    rem = res.remainder_parts[0]
    assert {k for k, _ in rem} == {0, 1}
    assert abs(sum(m for _, m in rem) - 0.1) <= 1e-12


def test_equitize_divisible_equipartition_no_remainder():
    part = equipartition(3)
    res = equitize(part, 9)
    assert res.h == 0
    assert res.refinement_mask.all()


def test_equitize_h_bounded_by_part_count():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(2, 9))
        part = Partition(rng.dirichlet(np.ones(k)))
        m = k + int(rng.integers(1, 15))
        res = equitize(part, m)
        assert res.h <= k
        # total measure per part is the unit
        for comp in res.composition:
            assert abs(sum(mm for _, mm in comp) - 1.0 / m) <= 1e-9


def test_equitize_rejects_small_target():
    part = equipartition(4)
    with pytest.raises(ParameterError):
        equitize(part, 4)


def test_sort_to_intervals_identity_reverse_inverse():
    part = Partition(np.full(4, 0.25), labels=(0, 1, 2, 3))
    assert np.array_equal(sort_to_intervals(part), [0, 1, 2, 3])
    rev = Partition(np.full(4, 0.25), labels=(3, 2, 1, 0))
    perm = sort_to_intervals(rev)
    assert np.array_equal(perm, [3, 2, 1, 0])
    rng = np.random.default_rng(10)
    coeffs = rng.uniform(-1, 1, (4, 4))
    permuted = apply_permutation(coeffs, perm)
    inverse = np.argsort(perm)
    assert np.array_equal(apply_permutation(permuted, inverse), coeffs)


def test_sort_to_intervals_rejects_unequal_measures():
    part = Partition(np.array([0.4, 0.6]))
    with pytest.raises(ParameterError):
        sort_to_intervals(part)


def test_compress_identity_width():
    # slot weights are exact tick ratios, so the own width is reproduced bitwise
    for net, seed in (
        (random_network(2, 2, 2, 8, 8.0, np.random.default_rng(11)), 0),
        (random_network(3, 2, 2, 24, 5.0, np.random.default_rng(42)), 5),
    ):
        net2, rep = compress_network(net, target_d=net.d, seed=seed, samples=500)
        assert rep.delta_hat == 0.0
        assert rep.empirical_max == 0.0
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
    with pytest.raises(ParameterError, match="samples"):
        compress_network(net, target_d=6, samples=0)
    with pytest.raises(ParameterError, match="exceeds"):
        compress_network(net, target_d=24)  # would widen 12 -> 24
    monkeypatch.undo()
    _, rep = compress_network(net, target_d=12, samples=1)
    assert rep.d_compressed == 12 and rep.delta_hat == 0.0


def sandwich_reference(net, labels, d_new):
    """The kernel-sandwich construction that ``compress_network`` replaced.

    One slot matrix over all L+2 regions (layers 0 and L grouped by their
    cells) averages the whole kernel, P K P^T; the forbidden blocks are
    zeroed, the bias block pinned, the coefficients clipped and the
    network read back off the kernel.
    """
    ck = induce_kernel(net)
    ls = ck.layers
    ls_new = LayerStructure(ls.L, ls.d0, ls.dL, d_new)
    struct = ls.structural_labels()
    weights = np.zeros((ls_new.n, ls.n))
    for ell in list(range(ls.L + 1)) + ["bias"]:
        sl = ls.layer_slice(ell)
        groups = struct[sl] if ell in (0, ls.L) else labels[sl]
        ticks, _ = regularity._slot_weights(np.full(ls.d, d_new), groups, ls.d)
        weights[ls_new.layer_slice(ell), sl] = ticks / ls.d
    coeffs = weights @ ck.kernel.coeffs @ weights.T
    coeffs[~_allowed_support(ls_new)] = 0.0
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
    traces = []
    refine = regularity._refine

    def recording(*args):
        traces.append(refine(*args))
        return traces[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_refine", recording)
        got, _ = compress_network(
            net, target_d=target, oracle="heuristic", restarts=4, seed=seed, samples=1
        )
    assert len(traces) == 1
    ref = sandwich_reference(net, traces[0].labels, target)
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


def pair_labels_reference(a, b):
    """Ids of the pairs (a[i], b[i]) numbered by first occurrence."""
    seen = {}
    return np.array([seen.setdefault(p, len(seen)) for p in zip(a.tolist(), b.tolist())])


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)), min_size=1, max_size=60)
)
def test_pair_labels_numbers_pairs_by_first_occurrence(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    got = regularity._pair_labels(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, pair_labels_reference(a, b))


def structural_labels_reference(ls):
    """Input cell / hidden layer / output cell / bias keys, first-occurrence ids."""
    keys = [("in", i // (ls.d // ls.d0)) for i in range(ls.d)]
    keys += [("hidden", ell) for ell in range(1, ls.L) for _ in range(ls.d)]
    keys += [("out", i // (ls.d // ls.dL)) for i in range(ls.d)]
    keys += [("bias",)] * ls.d
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


@pytest.mark.parametrize("L,d0,dL,d", [(2, 1, 1, 3), (3, 2, 3, 12), (4, 3, 1, 6)])
def test_structural_labels_are_layout_ordered_ids(L, d0, dL, d):
    ls = LayerStructure(L, d0, dL, d)
    ids = ls.structural_labels()
    assert ids.dtype == np.int64 and ids.shape == (ls.n,)
    assert ids.tolist() == structural_labels_reference(ls)
    assert np.array_equal(np.unique(ids), np.arange(d0 + (L - 1) + dL + 1))
    assert np.all(np.diff(ids) >= 0)
    for ell in range(1, L):
        assert np.unique(ids[ls.layer_slice(ell)]).size == 1
    assert np.unique(ids[ls.bias_slice]).size == 1
    assert np.unique(ids[ls.layer_slice(0)]).size == d0
    assert np.unique(ids[ls.layer_slice(L)]).size == dL


@pytest.mark.parametrize(
    "L,d0,dL,d,budget,seed",
    [(3, 2, 2, 24, 6, 0), (2, 1, 3, 12, 6, 1), (2, 2, 2, 16, 4, 2), (4, 1, 1, 10, 5, 3)],
)
def test_budgeted_refinement_respects_budget_and_structure(L, d0, dL, d, budget, seed):
    ck = induce_kernel(random_network(L, d0, dL, d, 6.0, np.random.default_rng(seed)))
    tr = regularity._budgeted_fk(ck, budget, "auto", 24, 8, seed)
    ls = ck.layers
    for ell in list(range(1, L)) + ["bias"]:
        assert np.unique(tr.labels[ls.layer_slice(ell)]).size <= budget
    struct = ls.structural_labels()
    for lab in np.unique(tr.labels):
        assert np.unique(struct[tr.labels == lab]).size == 1
    en = tr.energies
    assert all(b >= a - 1e-12 for a, b in zip(en, en[1:]))
    assert tr.status in ("certified", "heuristic_termination", "budget_exhausted", "cap_reached")
