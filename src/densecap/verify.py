"""In-process invariant suites behind ``densecap verify``.

Each check re-derives a module's core guarantee on fresh random instances
and reports one pass/fail line; ``quick`` shrinks the instance counts.
Checks raise ``CheckFailed`` naming the value they got, never through
``assert``, so they still run under ``python -O``.
"""

import numpy as np

from .bounds import (
    compression_hidden_dim,
    d0_threshold,
    lipschitz_constant,
    wrl_hidden_dim,
)
from .cutnorm import (
    kernel_cut_norm_exact,
    kernel_cut_norm_lower,
    l1_norm,
    signal_cut_norm,
)
from .experiments.training import numeric_gradient_check
from .kernels import StepKernel, StepSignal, extract_network, induce_kernel
from .networks import forward, param_count, random_network, random_small_network
from .partitions import Partition, equipartition
from .propagation import check_equivalence
from .regularity import weak_regularity


class CheckFailed(Exception):
    """An invariant did not hold; the message names the value found."""


def _require(ok, detail):
    if not ok:
        raise CheckFailed(detail)


def brute_force_cut_norm(kern):
    """Full double enumeration over all 2^n x 2^n part-set pairs, vectorized."""
    n = kern.n
    meas = kern.partition.measures
    w = kern.coeffs * np.outer(meas, meas)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    table = bits @ w @ bits.T
    return float(np.abs(table).max())


def straight_line_forward(net, x):
    """Independent re-implementation of ``forward`` with explicit loops."""
    h, dims = [float(v) for v in x], net.layer_dims
    for ell in range(1, net.L + 1):
        w, b, width = net.weights[ell - 1], net.biases[ell - 1], dims[ell - 1]
        pre = [
            sum(w[i, j] * h[j] + b[i] for j in range(width)) / (width * (net.L + 2))
            for i in range(dims[ell])
        ]
        h = pre if ell == net.L else [max(p, 0.0) for p in pre]
    return np.array(h)


def run_verification(quick=False, seed=0):
    rng = np.random.default_rng(seed)
    k = 1 if quick else 4
    results = []

    def check(name, fn):
        try:
            detail = fn()
            results.append((name, True, detail or ""))
        except CheckFailed as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # noqa: BLE001 - verify must report, not crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def forward_oracle():
        worst = 0.0
        for _ in range(25 * k):
            net = random_small_network(rng)
            x = rng.uniform(0, 1, net.d0)
            gap = np.abs(forward(net, x) - straight_line_forward(net, x)).max()
            worst = max(worst, float(gap))
        _require(worst <= 1e-12, f"disagreement {worst:.2e}")
        return f"max |fast - straight-line| = {worst:.1e}"

    def three_paths():
        worst, drift = 0.0, 0.0
        for _ in range(25 * k):
            net = random_small_network(rng)
            rep = check_equivalence(net, rng.uniform(0, 1, net.d0))
            worst = max(worst, rep.max_discrepancy)
            drift = max(drift, rep.max_bias_drift)
        _require(worst <= 1e-9, f"discrepancy {worst:.2e}")
        _require(drift <= 1e-12, f"bias drift {drift:.2e}")
        return f"max discrepancy {worst:.1e}, bias drift {drift:.1e}"

    def roundtrip():
        for _ in range(10 * k):
            net = random_small_network(rng)
            # exact round trips need a power-of-two bound
            net = random_network(net.L, net.d0, net.dL, net.d, 8.0, rng)
            back = extract_network(induce_kernel(net))
            for a, b in zip(net.weights + net.biases, back.weights + back.biases):
                _require(
                    np.array_equal(a, b),
                    "parameters changed in round trip: "
                    f"{np.array2string(a, threshold=6)} became "
                    f"{np.array2string(b, threshold=6)}",
                )
        return "induce/extract identity, exact"

    def cut_exact():
        worst = 0.0
        for _ in range(8 * k):
            n = int(rng.integers(2, 8))
            kern = StepKernel(
                Partition(rng.dirichlet(np.ones(n))), rng.uniform(-1, 1, (n, n))
            )
            v = kernel_cut_norm_exact(kern).value
            bf = brute_force_cut_norm(kern)
            worst = max(worst, abs(v - bf))
            lo = kernel_cut_norm_lower(kern, restarts=8, seed=1).value
            _require(lo <= v + 1e-12, f"heuristic {lo!r} exceeded exact {v!r}")
        _require(worst <= 1e-12, f"exact vs enumeration gap {worst:.2e}")
        return f"max |exact - enumeration| = {worst:.1e}"

    def sandwich():
        for _ in range(200 * k):
            n = int(rng.integers(1, 12))
            sig = StepSignal(
                Partition(rng.dirichlet(np.ones(n))), rng.uniform(-2, 2, n)
            )
            v, l1 = signal_cut_norm(sig).value, l1_norm(sig)
            _require(0.5 * l1 - 1e-12 <= v <= l1 + 1e-12, f"{v} vs L1 {l1}")
        return "0.5*L1 <= cut <= L1 held"

    def fk_trace():
        for _ in range(3 * k):
            base = rng.uniform(-1, 1, (5, 5))
            reps = np.repeat(np.arange(5), rng.multinomial(11, np.ones(5) / 5) + 1)
            kern = StepKernel(equipartition(reps.size), base[np.ix_(reps, reps)])
            tr = weak_regularity(kern, 0.2, oracle="exact")
            drops = [(a, b) for a, b in zip(tr.energies, tr.energies[1:]) if b < a]
            _require(not drops, f"energy decreased: {drops[:1]}")
            cap = int(np.ceil(4 / 0.04)) + 1
            _require(len(tr.iterations) <= cap, f"{len(tr.iterations)} iterations, cap {cap}")
            _require(tr.status in ("certified", "cap_reached"), f"status {tr.status!r}")
        return "energy monotone, iteration cap held"

    def bounds_spot():
        for name, got, want in (
            ("lipschitz_constant(4, 2)", lipschitz_constant(4, 2).exact, 64),
            ("wrl_hidden_dim(4, 2, 1, 1)", wrl_hidden_dim(4, 2, 1, 1).exact, 16),
            (
                "log2 compression_hidden_dim(1, 4, 2, 1, 1)",
                compression_hidden_dim(1, 4, 2, 1, 1).log2,
                2097164,
            ),
            ("d0_threshold(4, 2, 1, 1)", d0_threshold(4, 2, 1, 1).exact, 18_253_611_637),
            ("param_count(2, 1, 1, 4)", param_count(2, 1, 1, 4), 29),
        ):
            _require(got == want, f"{name} = {got!r}, expected {want!r}")
        return "spot values exact"

    def gradients():
        worst = numeric_gradient_check(width=8, seed=seed)
        _require(worst <= 1e-5, f"relative gap {worst:.2e}")
        return f"max relative gap {worst:.1e}"

    check("forward vs straight-line oracle", forward_oracle)
    check("network/kernel/graph equivalence", three_paths)
    check("induce/extract round trip", roundtrip)
    check("kernel cut norm vs enumeration", cut_exact)
    check("signal cut-norm sandwich", sandwich)
    check("refinement trace properties", fk_trace)
    check("bound calculator spot values", bounds_spot)
    check("backprop vs finite differences", gradients)
    return results
