"""Acceptance gate: nine numbered criteria, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The saturation criterion needs the IDX dataset
directory (DENSECAP_DATA or a default location, see conftest).
"""

import time

import numpy as np
import pytest

from densecap.bounds import (
    compression_hidden_dim,
    d0_threshold,
    lipschitz_constant,
    wrl_hidden_dim,
)
from densecap.cutnorm import (
    comp_cut_distance_upper,
    kernel_cut_norm_exact,
    l1_norm,
    restrict_to_layer,
    signal_cut_norm,
)
from densecap.kernels import (
    StepKernel,
    StepSignal,
    induce_input_signal,
    induce_kernel,
    validate_computational,
)
from densecap.networks import random_network
from densecap.partitions import Partition, equipartition
from densecap.propagation import check_equivalence, mpnn_forward
from densecap.regularity import compress_network, weak_regularity
from densecap.experiments import TrainConfig, load_mnist, take_subset, train
from densecap.experiments.training import numeric_gradient_check
from densecap.verify import brute_force_cut_norm

from conftest import MNIST_DIR


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def equivalence_batch():
    """200 random networks evaluated along all three paths."""
    rng = np.random.default_rng(20240817)
    reports, elapsed = [], 0.0
    t0 = time.monotonic()
    for _ in range(200):
        L = int(rng.choice([2, 3, 4]))
        d0 = int(rng.integers(1, 4))
        dL = int(rng.integers(1, 4))
        mult = int(np.lcm(d0, dL))
        d = mult * int(rng.integers(1, 24 // mult + 1))
        B = float(rng.uniform(L + 2, 10.0))
        net = random_network(L, d0, dL, d, B, rng)
        x = rng.uniform(0.0, 1.0, d0)
        reports.append(check_equivalence(net, x, tolerance=1e-9))
    elapsed = time.monotonic() - t0
    return reports, elapsed


def test_criterion_1_three_path_equivalence(equivalence_batch):
    reports, elapsed = equivalence_batch
    worst = max(r.max_discrepancy for r in reports)
    ok = worst <= 1e-9 and elapsed < 30.0
    report(
        1,
        ok,
        f"max |network - kernel - graph| = {worst:.3e} over 200 instances "
        f"(tolerance 1e-09), {elapsed:.1f}s",
    )


def test_criterion_2_bias_stationarity(equivalence_batch):
    reports, _ = equivalence_batch
    worst = max(r.max_bias_drift for r in reports)
    report(
        2,
        worst <= 1e-12,
        f"max |bias value - 1| across every layer = {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion_3_cut_norm_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        kern = StepKernel(
            Partition(rng.dirichlet(np.ones(n))), rng.uniform(-1, 1, (n, n))
        )
        v = kernel_cut_norm_exact(kern).value
        worst = max(worst, abs(v - brute_force_cut_norm(kern)))
    sandwich_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        sig = StepSignal(
            Partition(rng.dirichlet(np.ones(n))), rng.uniform(-3, 3, n)
        )
        v, l1 = signal_cut_norm(sig).value, l1_norm(sig)
        sandwich_ok = sandwich_ok and (0.5 * l1 - 1e-12 <= v <= l1 + 1e-12)
    ok = worst <= 1e-12 and sandwich_ok
    report(
        3,
        ok,
        f"exact vs 2^n x 2^n enumeration gap {worst:.2e} on 100 kernels; "
        f"signal sandwich on 1000 signals: {'held' if sandwich_ok else 'violated'}",
    )


def test_criterion_4_lipschitz_consequence():
    rng = np.random.default_rng(11)
    worst_ratio, violations = 0.0, 0
    cases = []
    for _ in range(30):
        cases.append((2, int(rng.integers(1, 3)), int(rng.integers(1, 3))))
    for _ in range(20):
        cases.append((3, 1, 1))
    for L, d0, dL in cases:
        mult = int(np.lcm(d0, dL))
        cap_d = 6 if L == 2 else 4
        d = mult * int(rng.integers(1, cap_d // mult + 1))
        B = float(L + 2)
        net_a = random_network(L, d0, dL, d, B, rng)
        net_b = random_network(L, d0, dL, d, B, rng)
        ka, kb = induce_kernel(net_a), induce_kernel(net_b)
        x = rng.uniform(0.0, 1.0, d0)
        sig = induce_input_signal(x, ka.layers)
        out_a = mpnn_forward(ka.kernel, sig, ka.B, L)
        out_b = mpnn_forward(kb.kernel, sig, kb.B, L)
        diff = StepSignal(out_a.partition, out_a.values - out_b.values)
        lhs = signal_cut_norm(restrict_to_layer(diff, ka.layers, L)).value
        dist = comp_cut_distance_upper(ka, kb, mode="exhaustive", oracle="exact")
        rhs = (2.0 * B) ** L * dist.value
        if lhs > rhs + 1e-12:
            violations += 1
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
    report(
        4,
        violations == 0,
        f"masked output cut norm <= (2B)^L * aligned distance on 50 pairs; "
        f"violations {violations}, worst ratio {worst_ratio:.3f}",
    )


def test_criterion_5_compression_chain():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    net = random_network(3, 2, 2, 240, 5.0, rng)
    compressed, rep = compress_network(net, target_d=24, seed=5, samples=10_000)
    elapsed = time.monotonic() - t0
    ck = induce_kernel(compressed)
    validation = validate_computational(ck)
    ok = (
        rep.d_compressed == 24
        and rep.empirical_max <= rep.theoretical_bound
        and validation.ok
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"width 240 -> 24: empirical max gap {rep.empirical_max:.4g} <= "
        f"(L+2)*dL*(2B)^L*delta = {rep.theoretical_bound:.4g} "
        f"(delta_hat {rep.delta_hat:.4g}); four validations "
        f"{'pass' if validation.ok else 'FAIL'}; {elapsed:.1f}s",
    )


def _structured_kernel(rng):
    """Random 64-part kernel whose reduced form stays exactly enumerable."""
    if rng.random() < 0.5:
        base = rng.uniform(-1, 1, (6, 6))
        counts = rng.multinomial(64 - 6, np.ones(6) / 6) + 1
        reps = np.repeat(np.arange(6), counts)
        return StepKernel(equipartition(64), base[np.ix_(reps, reps)])
    signs = np.ones(64)
    signs[rng.permutation(64)[:32]] = -1.0
    return StepKernel(equipartition(64), np.tile(signs[:, None], (1, 64)))


def test_criterion_6_regularity_trace():
    rng = np.random.default_rng(13)
    eps = 0.5
    cap = int(np.ceil(4.0 / eps**2))
    for trial in range(20):
        kern = _structured_kernel(rng)
        tr = weak_regularity(kern, eps, oracle="exact")
        energies = tr.energies
        assert all(b >= a for a, b in zip(energies, energies[1:])), trial
        assert len(tr.iterations) <= cap + 1, trial
        assert tr.certified, (trial, tr.status)
        resid = StepKernel(
            kern.partition, (kern.coeffs - tr.projected_fine.coeffs) / 2.0
        )
        final = 2.0 * kernel_cut_norm_exact(resid).value
        assert final < eps, (trial, final)
    report(
        6,
        True,
        "20 random 64-part kernels at eps=0.5: energies non-decreasing, "
        f"iterations <= {cap}, certified residual < eps (verified independently)",
    )


def test_criterion_7_bound_calculators():
    checks = {
        "lipschitz(4,2)=64": lipschitz_constant(4, 2).exact == 64,
        "wrl_dim(4,2,1,1)=16": wrl_hidden_dim(4, 2, 1, 1).exact == 16,
        "compression_dim(1,4,2,1,1) log2=2097164": (
            compression_hidden_dim(1, 4, 2, 1, 1).log2 == 2_097_164
        ),
        "d0_threshold(4,2,1,1)=18253611637": (
            d0_threshold(4, 2, 1, 1).exact == 18_253_611_637
        ),
    }
    ok = all(checks.values())
    report(7, ok, "; ".join(f"{k}: {'ok' if v else 'WRONG'}" for k, v in checks.items()))


def test_criterion_8_width_saturation():
    if MNIST_DIR is None:
        report(8, False, "IDX dataset directory not found; set DENSECAP_DATA")
    t0 = time.monotonic()
    data = take_subset(load_mnist(MNIST_DIR), 20_000, seed=1)
    widths, seeds = (16, 128, 512), (0, 1)
    acc = {}
    for width in widths:
        for mode in ("standard", "dense"):
            runs = [
                train(TrainConfig(width=width, mode=mode, epochs=20, seed=s), data=data)
                for s in seeds
            ]
            acc[(width, mode)] = (
                float(np.mean([r.train_acc for r in runs])),
                float(np.mean([r.test_acc for r in runs])),
            )
    elapsed = time.monotonic() - t0
    std_train_ok = all(acc[(w, "standard")][0] >= 96.0 for w in widths if w >= 128)
    dense_train_ok = all(acc[(w, "dense")][0] <= 93.0 for w in widths)
    gap_ok = all(
        acc[(w, "standard")][1] - acc[(w, "dense")][1] >= 3.0
        for w in widths
        if w >= 128
    )
    ok = std_train_ok and dense_train_ok and gap_ok and elapsed < 1800.0
    lines = ", ".join(
        f"w{w}: std {acc[(w, 'standard')][0]:.1f}/{acc[(w, 'standard')][1]:.1f} "
        f"dense {acc[(w, 'dense')][0]:.1f}/{acc[(w, 'dense')][1]:.1f}"
        for w in widths
    )
    report(
        8,
        ok,
        f"train/test means over 2 seeds on a 20k subset: {lines}; "
        f"std train >= 96 at w >= 128: {std_train_ok}; dense train <= 93: "
        f"{dense_train_ok}; test gap >= 3: {gap_ok}; {elapsed / 60:.1f} min",
    )


def test_criterion_9_gradient_correctness():
    worst = numeric_gradient_check(width=8, seed=0)
    report(
        9,
        worst <= 1e-5,
        f"backprop vs central differences, width 8: max relative gap {worst:.2e}",
    )
