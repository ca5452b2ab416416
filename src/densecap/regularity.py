"""Constructive weak regularity for step kernels, and network compression.

``weak_regularity`` is the energy-increment loop: average the kernel over
the blocks of the current partition, locate a set pair on which the
residual has large integral, refine the partition by that pair, repeat.
Each refinement raises the squared L2 norm of the projection by at least
the witness value squared, which caps the iteration count.
It starts from the regions that the kernel's block bounds cut out, so it
runs on ``induce_kernel(net).kernel`` and ``unit_blocks(net)``. Its default
``oracle="auto"`` takes the exact route wherever that fits under the cap.

``compress_network`` cuts each hidden layer's units into equal groups
by recursive splits along the top principal direction of their features
(principal direction divisive partitioning; Boley, Data Mining and
Knowledge Discovery, 1998): their rows of the layered kernel's thin
blocks, scaled by the square root of the measure on the other side. A
low-rank view of a matrix gives a weak regularity partition with few
parts (Frieze and Kannan, Combinatorica, 1999). The original's hidden
units are permuted into group order, the same function, and averaged
over contiguous slots of that order.
"""

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cutnorm import (
    ORACLES,
    comp_cut_distance_upper,
    difference_cut_norm,
    kernel_cut_norm,  # noqa: F401 - bench/tracing.py wraps this name here
)
from .errors import ParameterError, ValidationFailedError, require_count, require_real
from .kernels import (
    StepKernel,
    extract_network,  # noqa: F401 - bench/tracing.py wraps this name here
    induce_kernel,
    lift_computational,  # noqa: F401 - bench/tracing.py wraps this name here
    validate_computational,
)
from .networks import DenseNetwork, forward, forward_threads
from .partitions import Partition


def _project_grouping(kernel, labels):
    """Blockwise average over label groups; exact measure weighting.

    Each block of ``kernel`` gets the averages of the groups it meets,
    from one product per side, so on a StepKernel this is the one product
    ``W @ coeffs @ W.T``. Returns (group values, group measures, group index of
    each part).
    """
    measures = kernel.partition.measures
    uniq, inverse = np.unique(labels, return_inverse=True)
    k = uniq.size
    n = measures.size
    wg = np.zeros((k, n))
    wg[inverse, np.arange(n)] = measures
    gm = wg.sum(axis=1)
    wg /= gm[:, None]
    vals = np.zeros((k, k))
    for rs, cs, a in kernel.blocks:
        gr, gc = np.unique(inverse[rs]), np.unique(inverse[cs])
        vals[np.ix_(gr, gc)] = wg[gr, rs] @ a @ wg[gc, cs].T
    return vals, gm, inverse


@dataclass
class IterationRecord:
    """One refinement round: ``exact`` is the oracle route its cut norm took,
    ``oracle_dims`` the reduced (rows, cols) that oracle ran on (the
    merge on the exact route, the shrink on the heuristic one), and
    ``elapsed_s`` the wall time of the round's projection and oracle call."""

    iteration: int
    partition_size: int
    energy: float
    witness_value: float
    exact: bool
    oracle_dims: tuple
    elapsed_s: float


@dataclass
class RegularityTrace:
    """Log of one regularity run plus its final projection.

    ``bound`` is the last witness value: with an exact oracle it equals the
    cut norm of the final residual, so termination-by-witness certifies
    the approximation. ``labels`` groups the input kernel's parts, of
    ``partition``, into the final partition.
    """

    iterations: list
    labels: np.ndarray
    step_kernel: StepKernel
    partition: Partition
    bound: float
    status: str
    oracle_exact: bool

    @property
    def projected_fine(self):
        """The projection on the input kernel's parts, as an n x n StepKernel."""
        _, inverse = np.unique(self.labels, return_inverse=True)
        return StepKernel(self.partition, self.step_kernel.coeffs[np.ix_(inverse, inverse)])

    @property
    def certified(self):
        return self.status == "certified" and self.oracle_exact

    @property
    def partition_sizes(self):
        return [r.partition_size for r in self.iterations]

    @property
    def energies(self):
        return [r.energy for r in self.iterations]


def _refine(kernel, labels, stop, max_iter, oracle, seed):
    """The energy-increment loop of ``weak_regularity``, from ``labels``.

    Each round projects the kernel onto the label groups, records the
    projection energy and the residual's cut witness, and stops once the
    witness drops below ``stop`` or after ``max_iter`` splits. Otherwise
    it splits every group four ways by the witness indicator vectors s
    (rows) and t (columns).
    """
    records = []
    exact_used = True
    for it in range(max_iter + 1):
        t0 = time.monotonic()
        vals, gm, inverse = _project_grouping(kernel, labels)
        energy = float(np.sum(vals * vals * np.outer(gm, gm)))
        residual = []
        for rs, cs, a in kernel.blocks:
            proj = vals[np.ix_(inverse[rs], inverse[cs])]
            residual.append((rs, cs, np.subtract(a, proj, out=proj)))
        witness, was_exact = difference_cut_norm(kernel.partition, residual, oracle, seed)
        exact_used = exact_used and was_exact
        records.append(IterationRecord(
            it, int(gm.size), energy, witness.value, was_exact, witness.dims,
            time.monotonic() - t0,
        ))
        if witness.value < stop:
            status = "certified" if was_exact else "heuristic_termination"
            break
        if it == max_iter:
            status = "cap_reached"
            break
        s = np.zeros(kernel.n, dtype=np.int64)
        t = np.zeros(kernel.n, dtype=np.int64)
        s[list(witness.row_set)] = 1
        t[list(witness.col_set)] = 1
        labels = np.unique(labels * 4 + 2 * s + t, return_inverse=True)[1]
    coarse = StepKernel(Partition(gm), np.clip(vals, -1, 1))
    return RegularityTrace(
        records, labels, coarse, kernel.partition, witness.value, status, exact_used
    )


def weak_regularity(kernel, eps, oracle="auto", seed=0):
    """Approximate a step kernel in cut norm by iterative cut refinement.

    Starts from the block regions and stops as soon as the residual's
    cut witness drops below ``eps`` or the iteration cap ceil(4/eps^2) is
    hit; the cap is generous because every completed refinement raises the
    projection energy by at least eps^2 and the energy never exceeds 1.
    The regions that the kernel's block bounds cut out, numbered from 0,
    are one on a StepKernel and the L+2 layers on ``induce_kernel(net).kernel``
    and ``unit_blocks(net)``; splits only refine them, so averages vanish off
    the blocks, as the kernel does. The default ``oracle="auto"`` runs the
    exact route wherever ``oracle="exact"`` would not raise CapacityError.
    """
    require_real("eps", eps)
    if not 0 < eps <= 2:
        raise ParameterError(f"eps must lie in (0, 2], got {eps}")
    require_count("seed", seed)
    cuts = np.unique([(rs.start, rs.stop, cs.start, cs.stop) for rs, cs, _ in kernel.blocks])
    labels = np.searchsorted(cuts[cuts > 0], np.arange(kernel.n), side="right")
    return _refine(kernel, labels, eps, math.ceil(4.0 / (eps * eps)), oracle, seed)


@dataclass
class CompressionReport:
    """What ``compress_network`` measured. ``delta_hat`` is the cut norm of
    the difference, identity layout, ``iterations`` the widths tried (1
    for ``target_d``) and ``fk_status`` why the width search stopped. Each
    ``stages`` entry has a name, status, detail and ``elapsed_s``, the wall
    time from the end of the previous stage to its own end."""

    d_original: int
    d_compressed: int
    delta_hat: float
    delta_exact: bool
    output_factor: float
    amplifier: float
    theoretical_bound: float
    empirical_max: float
    samples: int
    seed: int
    iterations: int
    validation_ok: bool
    fk_status: str
    stages: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_dict(self):
        return asdict(self)

    @property
    def bound_label(self):
        """How to print ``theoretical_bound``: a heuristic ``delta_hat`` certifies nothing."""
        if self.delta_exact:
            return "output bound"
        return "output bound estimate (heuristic delta_hat, not certified)"


POWER_ITERATIONS = 30


def _principal_order(x, power):
    """Stable order of the rows of ``x`` along their top principal direction.

    The direction is the top right singular vector of the centred rows:
    from an SVD, or, with ``power``, from POWER_ITERATIONS power iterations
    started at the row farthest from the mean. Its largest entry is made
    positive, so the order does not hang on the vector's sign.
    """
    xc = x - x.mean(axis=0)
    if power:
        v = xc[np.argmax(np.einsum("ij,ij->i", xc, xc))]
        for _ in range(POWER_ITERATIONS):
            v = xc.T @ (xc @ v)
            v /= np.linalg.norm(v) or 1.0
    else:
        v = np.linalg.svd(xc, full_matrices=False)[2][0]
    return np.argsort(xc @ (v * np.sign(v[np.argmax(np.abs(v))])), kind="stable")


def _group_order(x, d_new, power):
    """Order of a hidden layer's units, rows of ``x``, into d_new groups.

    Slot k holds units k*d/d_new to (k+1)*d/d_new of the order. A run of g
    slots is split into floor(g/2) and ceil(g/2) slots, each side taking
    the units of its slots, at the principal order of the run's units.
    """
    d = len(x)
    order = np.arange(d)
    runs = [(0, d_new)]
    while runs:
        a, b = runs.pop()
        if b - a > 1:
            units = order[a * d // d_new:b * d // d_new]
            units[:] = units[_principal_order(x[units], power)]
            runs += [(a, (a + b) // 2), ((a + b) // 2, b)]
    return order


def _layer_features(net, ell):
    """Hidden layer ell's units' rows of the blocks they are grouped by.

    A unit's entries are scaled by the square root of the measure, in
    parts, of the unit on the other side. The first hidden layer takes its
    input weights and the last its output weights (at L = 2 the one hidden
    layer takes both), beside the bias; a middle layer takes its full row
    and column.
    """
    W, L, d = net.weights, net.L, net.d
    parts = [math.sqrt(d) * net.biases[ell - 1][:, None]]
    if ell == 1:
        parts.append(math.sqrt(d // net.d0) * W[0])
    elif ell < L - 1:
        parts.append(W[ell - 1])
    if ell == L - 1:
        parts.append(math.sqrt(d // net.dL) * W[-1].T)
    elif ell > 1:
        parts.append(W[ell].T)
    return np.hstack(parts)


def _slot_matrix(d, d_new):
    """The (d_new x d) matrix averaging d units into d_new contiguous slots.

    Unit i holds ticks i*d_new to (i+1)*d_new of one stream and slot k
    ticks k*d to (k+1)*d; entry (k, i) is their overlap over d, so each row
    is a convex average and the entries are exact tick ratios.
    """
    unit, slot = np.arange(d) * d_new, np.arange(d_new) * d
    overlap = np.minimum.outer(slot + d, unit + d_new) - np.maximum.outer(slot, unit)
    return np.maximum(overlap, 0) / d


def _grouped(net, d_new):
    """(``net`` with its hidden units in group order, its d_new-wide average).

    At the network's own width nothing is grouped and both are ``net``.
    """
    if d_new == net.d:
        return net, net
    L = net.L
    idx = [np.arange(net.d0)]
    idx += [_group_order(_layer_features(net, ell), d_new, 1 < ell < L - 1)
            for ell in range(1, L)]
    idx.append(np.arange(net.dL))
    W = [w[np.ix_(idx[k + 1], idx[k])] for k, w in enumerate(net.weights)]
    b = [c[idx[k + 1]] for k, c in enumerate(net.biases)]
    permuted = DenseNetwork(L, net.d0, net.dL, net.d, net.B, tuple(W), tuple(b))
    P = _slot_matrix(net.d, d_new)
    weights = [P @ W[0]] + [P @ w @ P.T for w in W[1:-1]] + [W[-1] @ P.T]
    biases = [P @ c for c in b[:-1]] + [b[-1]]
    # a convex average can overshoot the bound by an ulp
    B = float(net.B)
    return permuted, DenseNetwork(
        L, net.d0, net.dL, d_new, B,
        tuple(np.clip(a, -B, B) for a in weights),
        tuple(np.clip(a, -B, B) for a in biases),
    )


def _width_search(net, epsilon, measure):
    """The smallest width found whose distance is at most ``epsilon``.

    Tries multiples of M = lcm(d0, dL) below d, doubling from M, then
    bisects between the last width over ``epsilon`` and the first within;
    when none is within, the network's own width, at distance 0, ends the
    search. ``measure(permuted, averaged)`` is the distance. Returns
    (width, network, distance, widths tried).
    """
    M, d = net.layers.M, net.d
    tried = {}

    def fits(w):
        permuted, averaged = _grouped(net, w)
        tried[w] = averaged, measure(permuted, averaged)
        return tried[w][1].value <= epsilon

    lo, w = 0, M
    while w < d and not fits(w):
        lo, w = w, 2 * w
    hi = min(w, d)
    while (mid := M * ((lo + hi) // (2 * M))) > lo:
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    if hi == d:
        fits(d)
    return hi, *tried[hi], len(tried)


def compress_network(net, epsilon=None, target_d=None, oracle="auto", seed=0, samples=10_000):
    """Compress a dense network to a smaller hidden width.

    Either ``epsilon`` (the largest distance allowed) or ``target_d`` (a
    width at most the network's) must be given. Returns the compressed
    network and a report carrying the measured distance ``delta_hat``, the
    output bound (L+2) * dL * (2B)^L * delta_hat it implies (certified only
    if ``delta_exact``; ``bound_label`` names it an estimate otherwise),
    and the empirical maximum output gap over uniformly sampled inputs.
    ``delta_hat`` is the cut norm of the difference, identity layout,
    between the original with its hidden units in group order (the same
    function) and the result, measured on their unit quotients, so neither
    n x n kernel is built.

    Each hidden layer's units are grouped as the module describes and cut
    into target_d slots of a stream of d * target_d ticks, d per slot and
    target_d per unit, so a slot boundary may share a unit between two
    slots. The slot matrix P averages the neurons: W'_1 = P W_1,
    W'_l = P W_l P^T, W'_L = W_L P^T, b'_l = P b_l and b'_L = b_L, clipped
    to [-B, B]. At the network's own width nothing is grouped, and its
    weights come back bitwise with delta_hat and the output gap 0. An
    ``epsilon`` run searches the multiples of lcm(d0, dL) (``_width_search``)
    and returns the smallest width it tried whose delta_hat is at most
    ``epsilon``, or the network itself when none below d is. Only the
    returned network's kernel is induced, to be validated once; the gap is
    taken by ``forward``, in chunks, on the threads the empirical stage
    names. Arguments are checked before any array is built: ``target_d``
    must be a positive multiple of lcm(d0, dL), ``epsilon`` a real number
    in (0, 4], ``oracle`` one of ``ORACLES``, ``seed`` a non-negative
    integer and ``samples`` a positive one (a ``bool`` is neither).

    Outputs are reproducible bit for bit only at a fixed BLAS thread
    count: the principal directions, the averages and the heuristic oracle
    sum through BLAS products, whose order depends on the thread count.
    """
    t0 = time.monotonic()
    if (epsilon is None) == (target_d is None):
        raise ParameterError("give exactly one of epsilon or target_d")
    require_count("samples", samples, 1)
    require_count("seed", seed)
    ls, B = net.layers, float(net.B)
    if target_d is not None:
        require_count("target_d", target_d, ls.M)
        replace(ls, d=target_d)  # refuses a width that d0 or dL does not divide
        if target_d > net.d:
            raise ParameterError(f"target width {target_d} exceeds the network width {net.d}")
    else:
        require_real("epsilon", epsilon)
        if not 0 < epsilon <= 4:
            raise ParameterError(f"epsilon must lie in (0, 4], got {epsilon}")
    if oracle not in ORACLES:
        raise ParameterError(f"unknown oracle {oracle!r}")
    stages = []
    mark = time.monotonic()

    def stage(name, status, detail=""):
        nonlocal mark
        now = time.monotonic()
        stages.append({"name": name, "status": status, "detail": detail,
                       "elapsed_s": now - mark})
        mark = now

    def measure(permuted, averaged):
        return comp_cut_distance_upper(
            permuted, averaged, mode="identity", oracle=oracle, seed=seed
        )

    if target_d is None:
        d_new, net_new, dist, tried = _width_search(net, epsilon, measure)
        status = "within_epsilon" if d_new < net.d else "full_width"
        kind = "exact" if dist.exact else "estimate"
        stage("grouping", status,
              f"{tried} widths tried; width {d_new}, delta_hat {kind} {dist.value:.4g}")
    else:
        d_new, tried, status = int(target_d), 1, "target_width"
        permuted, net_new = _grouped(net, d_new)
        stage("grouping", status, f"{d_new} groups per hidden layer")
    report = validate_computational(induce_kernel(net_new))
    if not report.ok:
        raise ValidationFailedError(
            f"compressed kernel failed validation: {report.first_failure()}"
        )
    stage("validate", "ok")

    if target_d is not None:
        dist = measure(permuted, net_new)
        rows, cols = dist.witness.dims
        stage("distance", "exact" if dist.exact else "heuristic",
              f"delta_hat {dist.value:.6g}; oracle on {rows} x {cols}")

    amplifier = (2.0 * B) ** ls.L
    output_factor = (ls.L + 2) * ls.dL
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(samples, ls.d0))
    gap = float(np.max(np.abs(forward(net, xs) - forward(net_new, xs))))
    threads = forward_threads(samples)
    stage("empirical", "ok",
          f"max gap {gap:.6g} over {samples} samples on {threads} thread{'s' * (threads > 1)}")

    rep = CompressionReport(
        d_original=net.d,
        d_compressed=d_new,
        delta_hat=dist.value,
        delta_exact=dist.exact,
        output_factor=output_factor,
        amplifier=amplifier,
        theoretical_bound=output_factor * amplifier * dist.value,
        empirical_max=gap,
        samples=samples,
        seed=seed,
        iterations=tried,
        validation_ok=report.ok,
        fk_status=status,
        stages=stages,
        elapsed_s=time.monotonic() - t0,
    )
    return net_new, rep
