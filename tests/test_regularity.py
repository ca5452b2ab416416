import numpy as np
import pytest

from densecap import regularity
from densecap.cutnorm import kernel_cut_norm_exact, l2_norm
from densecap.errors import ParameterError
from densecap.kernels import StepKernel, induce_kernel, validate_computational
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


def test_layer_slots_rejects_excess_remainder(monkeypatch):
    ck = induce_kernel(random_network(2, 1, 1, 4, 4.0, np.random.default_rng(0)))
    labels = np.arange(ck.n) // 2  # two groups of two parts in every layer
    monkeypatch.setattr(
        regularity, "_slice_stream", lambda groups, unit, tol: ([[]] * 6, None, 3)
    )
    with pytest.raises(ParameterError, match="3 pooled remainder parts"):
        regularity._layer_slots(labels, ck.layers, 1, 6)


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
    rng = np.random.default_rng(11)
    net = random_network(2, 2, 2, 8, 8.0, rng)
    net2, rep = compress_network(net, target_d=8, seed=0, samples=500)
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


def test_compress_pipeline_roundtrip_on_result():
    rng = np.random.default_rng(15)
    net = random_network(3, 1, 1, 30, 8.0, rng)
    net2, rep = compress_network(net, target_d=6, seed=2, samples=1000)
    ck2 = induce_kernel(net2)
    assert validate_computational(ck2).ok
    from densecap.kernels import extract_network

    net3 = extract_network(ck2)
    for a, b in zip(net2.weights + net2.biases, net3.weights + net3.biases):
        assert np.array_equal(a, b)


def test_compressed_network_outputs_track_original():
    rng = np.random.default_rng(16)
    net = random_network(2, 1, 1, 60, 4.0, rng)
    net2, rep = compress_network(net, target_d=12, seed=3, samples=4000)
    xs = rng.uniform(0, 1, (200, 1))
    gap = float(np.max(np.abs(forward(net, xs) - forward(net2, xs))))
    assert gap <= rep.theoretical_bound
