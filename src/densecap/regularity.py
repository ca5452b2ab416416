"""Constructive weak regularity for step kernels and network compression.

The driver is the classical energy-increment loop: project the kernel
onto the current partition, locate a set pair on which the residual has
large integral, refine the partition by that pair, repeat. Each completed
refinement raises the squared L2 norm of the projection by at least the
witness value squared, which caps the iteration count.

Compression restricts the final partition to respect the layered
structure and averages each hidden layer's neurons over equal slots of
its parts: with ``P_l`` the (d' x d) slot matrix of hidden layer l, the
smaller network has ``W'_l = P_l W_l P_{l-1}^T`` and ``b'_l = P_l b_l``
(the first layer keeps its inputs, the last its outputs). Its kernel is
induced, validated and measured against the original. One slicer,
``_slot_weights``, does every rebalancing: it cuts grouped pieces into
equal units and returns the amount of each piece in each unit as an
array. Compression runs it on integer ticks, so every slot weight is an
exact ratio and a compression to the network's own width reproduces it.
"""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cutnorm import (
    EXACT_CAP_DEFAULT,
    CutWitness,
    comp_cut_distance_upper,
    kernel_cut_norm,
)
from .errors import ParameterError, ValidationFailedError
from .kernels import (
    StepKernel,
    extract_network,  # noqa: F401 - bench/tracing.py wraps this name here
    induce_kernel,
    lift_computational,  # noqa: F401 - bench/tracing.py wraps this name here
    validate_computational,
)
from .networks import DenseNetwork, forward
from .partitions import Partition, is_refinement, overlap_matrix


def _project_grouping(coeffs, measures, labels):
    """Blockwise average over label groups; exact measure weighting.

    Returns (group values, group measures, sorted group label array).
    """
    uniq, inverse = np.unique(labels, return_inverse=True)
    k = uniq.size
    n = measures.size
    wg = np.zeros((k, n))
    wg[inverse, np.arange(n)] = measures
    gm = wg.sum(axis=1)
    wg /= gm[:, None]
    vals = wg @ coeffs @ wg.T
    return vals, gm, inverse


def project(kernel, partition):
    """Project a step kernel onto a partition (blockwise averages).

    When the target partition coarsens the kernel's own partition the
    averages use exact part measures; otherwise overlaps are computed from
    the interval realizations of both partitions. Projecting onto the
    kernel's own partition returns the kernel unchanged.
    """
    own = kernel.partition
    if partition == own:
        return kernel
    if is_refinement(own, partition):
        bounds = partition.boundaries()
        mid = (own.boundaries()[:-1] + own.boundaries()[1:]) / 2
        labels = np.clip(np.searchsorted(bounds, mid) - 1, 0, partition.size - 1)
        vals, _, _ = _project_grouping(kernel.coeffs, own.measures, labels)
        # groups come back sorted by label = target index, aligned only if
        # every target part received a part of the kernel's partition
        if vals.shape[0] != partition.size:
            raise ParameterError(
                f"{partition.size - vals.shape[0]} of {partition.size} target "
                "parts contain no part of the kernel's partition"
            )
        return StepKernel(partition, np.clip(vals, -1.0, 1.0))
    ov = overlap_matrix(partition, own)
    wg = ov / ov.sum(axis=1, keepdims=True)
    vals = wg @ kernel.coeffs @ wg.T
    return StepKernel(partition, np.clip(vals, -1.0, 1.0))


def _residual_cut_norm(diff, measures, oracle, cap, restarts, seed):
    """Cut norm of a residual with entries in [-2, 2]; exact halving trick."""
    half = StepKernel(
        Partition(measures, interval=True), np.clip(diff / 2.0, -1.0, 1.0)
    )
    w, exact = kernel_cut_norm(
        half, oracle=oracle, cap=cap, restarts=restarts, seed=seed
    )
    return CutWitness(w.value * 2.0, w.row_set, w.col_set), exact


@dataclass
class IterationRecord:
    iteration: int
    partition_size: int
    energy: float
    witness_value: float


@dataclass
class RegularityTrace:
    """Log of one regularity run plus its final projection.

    ``bound`` is the last witness value: with an exact oracle it equals the
    cut norm of the final residual, so termination-by-witness certifies
    the approximation. ``labels`` groups the input kernel's parts into the
    final partition.
    """

    iterations: list
    labels: np.ndarray
    step_kernel: StepKernel
    projected_fine: StepKernel
    bound: float
    status: str
    oracle_exact: bool

    @property
    def certified(self):
        return self.status == "certified" and self.oracle_exact

    @property
    def partition_sizes(self):
        return [r.partition_size for r in self.iterations]

    @property
    def energies(self):
        return [r.energy for r in self.iterations]


def _refine(kernel, labels, split, stop, max_iter, oracle, cap, restarts, seed):
    """The energy-increment loop shared by every refinement in this module.

    Each round projects the kernel onto the label groups, records the
    projection energy and the residual's cut witness, and stops once the
    witness drops below ``stop`` or after ``max_iter`` splits. Otherwise
    ``split(labels, s, t)`` refines the labels by the witness indicator
    vectors s (rows) and t (columns); it returns None when it refuses to
    refine, which ends the run as "budget_exhausted".
    """
    coeffs = kernel.coeffs
    meas = kernel.partition.measures
    records = []
    exact_used = True
    for it in range(max_iter + 1):
        vals, gm, inverse = _project_grouping(coeffs, meas, labels)
        proj = vals[np.ix_(inverse, inverse)]
        energy = float(np.sum(vals * vals * np.outer(gm, gm)))
        witness, was_exact = _residual_cut_norm(
            coeffs - proj, meas, oracle, cap, restarts, seed
        )
        exact_used = exact_used and was_exact
        records.append(IterationRecord(it, int(gm.size), energy, witness.value))
        if witness.value < stop:
            status = "certified" if was_exact else "heuristic_termination"
            break
        if it == max_iter:
            status = "cap_reached"
            break
        s = np.zeros(meas.size, dtype=np.int64)
        t = np.zeros(meas.size, dtype=np.int64)
        s[list(witness.row_set)] = 1
        t[list(witness.col_set)] = 1
        refined = split(labels, s, t)
        if refined is None:
            status = "budget_exhausted"
            break
        labels = refined
    fine = StepKernel(kernel.partition, np.clip(proj, -1, 1))
    coarse = StepKernel(Partition(gm, interval=False), np.clip(vals, -1, 1))
    return RegularityTrace(
        records, labels, coarse, fine, witness.value, status, exact_used
    )


def weak_regularity(
    kernel,
    eps,
    oracle="exact",
    cap=EXACT_CAP_DEFAULT,
    restarts=32,
    seed=0,
    max_iter=None,
    initial_labels=None,
):
    """Approximate a step kernel in cut norm by iterative cut refinement.

    Stops as soon as the residual's cut witness drops below ``eps`` or the
    iteration cap ceil(4/eps^2) is hit; the cap is generous because every
    completed refinement raises the projection energy by at least eps^2
    and the energy never exceeds 1. Starting labels may be supplied (e.g.
    the kernel's own partition, which terminates immediately with zero
    residual).
    """
    if not 0 < eps <= 2:
        raise ParameterError(f"eps must lie in (0, 2], got {eps}")
    if max_iter is not None and max_iter < 0:
        raise ParameterError(f"max_iter must be non-negative, got {max_iter}")
    labels = (
        np.zeros(kernel.n, dtype=np.int64)
        if initial_labels is None
        else np.asarray(initial_labels).copy()
    )
    return _refine(
        kernel,
        labels,
        lambda labels, s, t: _relabel(labels * 4 + 2 * s + t),
        eps,
        math.ceil(4.0 / (eps * eps)) if max_iter is None else max_iter,
        oracle,
        cap,
        restarts,
        seed,
    )


def _relabel(raw):
    _, inv = np.unique(raw, return_inverse=True)
    return inv.astype(np.int64)


def _first_occurrence(codes):
    """Ids of the distinct values of ``codes``, numbered by first occurrence."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _pair_labels(a, b):
    """Group ids of the pairs (a[i], b[i]), numbered by first occurrence.

    Both inputs are non-negative integer label arrays.
    """
    return _first_occurrence(a * (b.max() + 1) + b)


def _slot_weights(sizes, groups, unit):
    """Cut grouped pieces into equal units; returns (amounts, h).

    Groups are numbered by their first piece. Each group in turn gives as
    many whole units from its front as fit, its pieces taken in index
    order; what is left of every group is pooled in the same order and cut
    into the h remainder units, the last of which takes whatever remains.
    ``amounts[k, i]`` is how much of piece i unit k holds. With integer
    sizes and unit every amount is exact, each leftover is shorter than a
    unit, and so h is below the number of groups.
    """
    g = _first_occurrence(groups)
    order = np.argsort(g, kind="stable")
    s, g = np.asarray(sizes, dtype=float)[order], g[order]
    total = np.bincount(g, weights=s)
    offset = np.cumsum(s) - s - (np.cumsum(total) - total)[g]  # within group
    whole = np.floor(total / unit + 1e-9).astype(np.int64)
    front = whole * unit
    left = np.maximum(total - front, 0.0)
    h = int(round(left.sum() / unit))
    # the stream: every group's front block, then every leftover block
    in_front = np.clip(front[g] - offset, 0.0, s)
    at_front = (np.cumsum(whole) - whole)[g] * unit + offset
    at_left = (
        whole.sum() * unit
        + (np.cumsum(left) - left)[g]
        + np.maximum(offset - front[g], 0.0)
    )
    cuts = unit * np.arange(whole.sum() + h + 1.0)
    cuts[-1] = np.inf
    below = np.clip(cuts[:, None] - at_front, 0.0, in_front) + np.clip(
        cuts[:, None] - at_left, 0.0, s - in_front
    )
    amounts = np.empty((cuts.size - 1, s.size))
    amounts[:, order] = np.diff(below, axis=0)
    return amounts, h


@dataclass
class LayerRegularityResult:
    """A structure-respecting coarse approximation of a layered kernel."""

    labels: np.ndarray
    projected_fine: StepKernel
    trace: RegularityTrace
    wr_bound: float
    certified_bound: float
    measured: float = None
    measured_exact: bool = False

    @property
    def certified(self):
        return self.trace.certified


def layer_respecting_regularity(
    ck,
    eps,
    oracle="exact",
    cap=EXACT_CAP_DEFAULT,
    restarts=32,
    seed=0,
    measure_exact=True,
):
    """Weak regularity followed by refinement with the layered structure.

    Runs the cut-refinement loop at eps/2, then refines the partition by
    the input cells, hidden layers, output cells, and bias region, and
    re-projects. Refining and re-projecting at most doubles the residual
    cut norm (the residual against the refined projection integrates to
    the same value as against the coarse one on any union of refined
    parts), hence the certified bound 2 * (loop bound) <= eps. The refined
    projection inherits constancy on input-cell columns and output-cell
    rows from the kernel itself.
    """
    trace = weak_regularity(
        ck.kernel, eps / 2.0, oracle=oracle, cap=cap, restarts=restarts, seed=seed
    )
    labels = _pair_labels(trace.labels, ck.layers.structural_labels())
    vals, _, inverse = _project_grouping(
        ck.kernel.coeffs, ck.kernel.partition.measures, labels
    )
    fine = StepKernel(ck.kernel.partition, np.clip(vals[np.ix_(inverse, inverse)], -1, 1))
    measured = None
    measured_exact = False
    if measure_exact:
        w, measured_exact = _residual_cut_norm(
            ck.kernel.coeffs - fine.coeffs,
            ck.kernel.partition.measures,
            "auto",
            cap,
            restarts,
            seed,
        )
        measured = w.value
    return LayerRegularityResult(
        labels, fine, trace, trace.bound, 2.0 * trace.bound, measured, measured_exact
    )


@dataclass
class EquitizeResult:
    partition: Partition
    composition: list
    refinement_mask: np.ndarray
    h: int

    @property
    def refinement_parts(self):
        return [c for c, r in zip(self.composition, self.refinement_mask) if r]

    @property
    def remainder_parts(self):
        return [c for c, r in zip(self.composition, self.refinement_mask) if not r]


def equitize(partition, m):
    """Rebalance a partition into m equal-measure parts.

    Each part, in order, gives as many whole units of measure 1/m (times
    the total) as fit; the leftovers are pooled in the same order into the
    last h < size(partition) units, which may span several parts. Amounts
    of at most 1e-12 are dropped, so exact multiples leave no remainder.
    """
    if m <= partition.size:
        raise ParameterError(
            f"target count {m} must exceed the current {partition.size} parts"
        )
    unit = float(partition.measures.sum()) / m
    amounts, h = _slot_weights(partition.measures, np.arange(partition.size), unit)
    parts = [
        [(int(k), float(row[k])) for k in np.flatnonzero(row > 1e-12)]
        for row in amounts
    ]
    eq = Partition(np.full(m, unit), interval=True, domain=partition.domain)
    return EquitizeResult(eq, parts, np.arange(m) < m - h, h)


def sort_to_intervals(partition):
    """Permutation laying equal-measure parts out as intervals by label.

    Slot i of the returned array holds the index of the part that should
    occupy the i-th interval; sorting is by label.
    """
    meas = partition.measures
    if float(np.ptp(meas)) > 1e-12:
        raise ParameterError("parts must have equal measure to be interval-sorted")
    order = sorted(range(partition.size), key=lambda i: partition.labels[i])
    return np.asarray(order, dtype=int)


def apply_permutation(coeffs, perm, rows=None):
    """Relabel kernel rows and columns of one index range by a permutation.

    ``rows`` is a slice of the part indices (default: the whole range);
    slot i of that range takes the part previously at ``perm[i]``.
    """
    n = coeffs.shape[0]
    sl = rows if rows is not None else slice(0, n)
    idx = np.arange(n)
    idx[sl] = sl.start + np.asarray(perm, dtype=int)
    return coeffs[np.ix_(idx, idx)]


@dataclass
class CompressionReport:
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
    layer_counts: dict
    validation_ok: bool
    fk_status: str
    stages: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_dict(self):
        return asdict(self)


def _layer_group_counts(labels, ls):
    counts = {}
    for ell in list(range(1, ls.L)) + ["bias"]:
        sl = ls.layer_slice(ell)
        counts[ell] = int(np.unique(labels[sl]).size)
    return counts


def _budgeted_fk(ck, budget, oracle, cap, restarts, seed):
    """Cut refinement that keeps every hidden/bias layer within a part budget.

    Splits are applied per region; a layer is left untouched whenever the
    full split (and its one-sided fallbacks) would push it past the budget,
    unless a split lands exactly on the budget with equal-size groups.
    Layers 0 and L carry no budget since their cells are coarsened back.
    The run ends once no region can be refined.
    """
    ls = ck.layers
    struct = ls.structural_labels()
    regions = [("free", np.r_[np.arange(ls.d), np.arange(ls.L * ls.d, (ls.L + 1) * ls.d)])]
    for ell in list(range(1, ls.L)) + ["bias"]:
        sl = ls.layer_slice(ell)
        regions.append((ell, np.arange(sl.start, sl.stop)))

    def split(labels, s, t):
        new_labels = labels.copy()
        changed = False
        for ell, region in regions:
            before = int(np.unique(labels[region]).size)
            for raw in (
                labels[region] * 4 + 2 * s[region] + t[region],
                labels[region] * 2 + s[region],
                labels[region] * 2 + t[region],
            ):
                cand = _relabel(raw)
                count = int(cand.max()) + 1
                if ell != "free":
                    if count > budget:
                        continue
                    if count == budget and np.ptp(np.bincount(cand)) != 0:
                        continue
                if count > before:
                    changed = True
                new_labels[region] = cand
                break
        # regions re-separated by pairing with the structural label
        return _pair_labels(new_labels, struct) if changed else None

    return _refine(ck.kernel, struct, split, 1e-9, 200, oracle, cap, restarts, seed)


def compress_network(
    net,
    epsilon=None,
    target_d=None,
    oracle="auto",
    cap=EXACT_CAP_DEFAULT,
    restarts=32,
    seed=0,
    samples=10_000,
):
    """Compress a dense network to a smaller hidden width.

    Either ``epsilon`` (regularity accuracy; the width follows from the
    final partition) or ``target_d`` (explicit width, at most the
    network's and divisible by lcm(d0, dL)) must be given. Returns the
    compressed network and a report carrying the measured kernel distance
    ``delta_hat``, the output bound (L+2) * dL * (2B)^L * delta_hat it
    implies, and the empirical maximum output gap over uniformly sampled
    inputs. ``delta_hat`` is the cut distance between the kernels of the
    input and the returned network as laid out, measured on the common
    refinement of their partitions (at most n + n' parts), so any two
    widths can be compared without lifting either kernel.

    Each hidden layer is cut into slots by ``_slot_weights`` in integer
    ticks, d_new per fine part and d per slot, grouped by the refined
    labels; a slot's weights are its tick counts over d, exact ratios that
    sum to one. The slot matrices P average the layer's neurons:
    W'_1 = P_1 W_1, W'_l = P_l W_l P_{l-1}^T, W'_L = W_L P_{L-1}^T,
    b'_l = P_l b_l and b'_L = b_L, clipped to [-B, B]. The new network's
    kernel is induced, validated once and measured. Compressing to the
    network's own width returns its weights and biases unchanged, with
    delta_hat and the output gap 0.
    """
    t0 = time.monotonic()
    if (epsilon is None) == (target_d is None):
        raise ParameterError("give exactly one of epsilon or target_d")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if target_d is not None and target_d > net.d:
        raise ParameterError(f"target width {target_d} exceeds the network width {net.d}")
    ck = induce_kernel(net)
    ls = ck.layers
    stages = []

    if target_d is not None:
        if target_d % ls.M:
            raise ParameterError(
                f"target width {target_d} not divisible by lcm(d0, dL) = {ls.M}"
            )
        if target_d < ls.M:
            raise ParameterError(f"target width must be at least {ls.M}")
        if target_d == net.d:
            # projection onto the network's own structure, nothing to search
            trace = weak_regularity(
                ck.kernel, 2.0, oracle=oracle, cap=cap, restarts=restarts,
                seed=seed, initial_labels=np.arange(ls.n),
            )
        else:
            trace = _budgeted_fk(ck, target_d, oracle, cap, restarts, seed)
        labels = trace.labels
        d_new = int(target_d)
        fk_status = trace.status
        stages.append({"name": "refinement", "status": fk_status,
                       "detail": f"{len(trace.iterations)} iterations"})
    else:
        res = layer_respecting_regularity(
            ck, epsilon, oracle=oracle, cap=cap, restarts=restarts, seed=seed,
            measure_exact=False,
        )
        trace = res.trace
        labels = res.labels
        # a layer of k groups fits k slots only if its groups are equal
        need = 0
        for ell in list(range(1, ls.L)) + ["bias"]:
            _, sizes = np.unique(labels[ls.layer_slice(ell)], return_counts=True)
            need = max(need, sizes.size + int(np.ptp(sizes) != 0))
        d_new = ls.M * -(-need // ls.M)
        fk_status = trace.status
        stages.append({"name": "regularity", "status": fk_status,
                       "detail": f"certified bound {res.certified_bound:.4g}"})

    counts = _layer_group_counts(labels, ls)
    # slot weights in ticks: d_new per fine part, d per slot, so every
    # amount is an exact ratio and every row of a slot matrix sums to one
    P = [
        _slot_weights(np.full(ls.d, d_new), labels[ls.layer_slice(k + 1)], ls.d)[0] / ls.d
        for k in range(ls.L - 1)
    ]
    stages.append({"name": "equitize", "status": "ok",
                   "detail": f"width {d_new}"})

    W, b = net.weights, net.biases
    weights = [P[0] @ W[0]]
    weights += [P[k] @ W[k] @ P[k - 1].T for k in range(1, ls.L - 1)]
    weights.append(W[-1] @ P[-1].T)
    biases = [p @ c for p, c in zip(P, b)] + [b[-1]]
    # a convex average can overshoot the bound by an ulp
    net_new = DenseNetwork(
        ls.L, ls.d0, ls.dL, d_new, ck.B,
        tuple(np.clip(a, -ck.B, ck.B) for a in weights),
        tuple(np.clip(a, -ck.B, ck.B) for a in biases),
    )
    ck_new = induce_kernel(net_new)
    report = validate_computational(ck_new)
    if not report.ok:
        raise ValidationFailedError(
            f"compressed kernel failed validation: {report.first_failure()}"
        )
    stages.append({"name": "validate", "status": "ok", "detail": ""})

    dist = comp_cut_distance_upper(
        ck,
        ck_new,
        mode="identity",
        oracle=oracle,
        cap=cap,
        restarts=restarts,
        seed=seed,
    )
    stages.append({"name": "distance", "status": "exact" if dist.exact else "heuristic",
                   "detail": f"delta_hat {dist.value:.6g}"})

    amplifier = (2.0 * ck.B) ** ls.L
    output_factor = (ls.L + 2) * ls.dL
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(samples, ls.d0))
    gap = float(np.max(np.abs(forward(net, xs) - forward(net_new, xs))))
    stages.append({"name": "empirical", "status": "ok",
                   "detail": f"max gap {gap:.6g} over {samples} samples"})

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
        iterations=len(trace.iterations),
        layer_counts=counts,
        validation_ok=report.ok,
        fk_status=fk_status,
        stages=stages,
        elapsed_s=time.monotonic() - t0,
    )
    return net_new, rep
