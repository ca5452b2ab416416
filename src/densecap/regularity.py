"""Constructive weak regularity for step kernels and network compression.

The driver is the classical energy-increment loop: project the kernel
onto the current partition, locate a set pair on which the residual has
large integral, refine the partition by that pair, repeat. Each completed
refinement raises the squared L2 norm of the projection by at least the
witness value squared, which caps the iteration count. Restricting the
final partition to respect the layered structure, rebalancing each layer
into equally sized parts, and laying those parts out as intervals turns
the coarse projection back into a (smaller) network encoding.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cutnorm import (
    EXACT_CAP_DEFAULT,
    CutWitness,
    comp_cut_distance_upper,
    kernel_cut_norm,
)
from .errors import ParameterError, ValidationFailedError
from .kernels import (
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    _allowed_support,
    extract_network,
    induce_kernel,
    lift_computational,  # noqa: F401 - bench/tracing.py wraps this name here
    validate_computational,
)
from .networks import forward
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


def _pair_labels(a, b):
    """Group ids of the pairs (a[i], b[i]), numbered by first occurrence.

    Both inputs are non-negative integer label arrays.
    """
    codes = a * (b.max() + 1) + b
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


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


def _slice_stream(groups, unit, tol=1e-12):
    """Cut an ordered stream of measured pieces into equal units.

    Each group yields as many whole units as fit (each contained in that
    group); leftovers are pooled in order and cut into further units. The
    pooled units are the remainder parts; there are fewer of them than
    there are groups.
    """
    parts, flags = [], []
    leftovers = []
    for group in groups:
        total = sum(m for _, m in group)
        q = int(math.floor(total / unit + 1e-9))
        rem = total - q * unit
        if rem <= tol:
            rem = 0.0
        # walk the group's pieces, carving q whole units
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
            flags.append(True)
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
        flags.append(False)
    return parts, np.asarray(flags, dtype=bool), h


def equitize(partition, m, tol=1e-12):
    """Rebalance a partition into m equal-measure parts.

    All but h < size(partition) of the new parts are contained in an
    original part; the rest pool the leftovers. Exact multiples leave no
    leftover (the empty remainder is dropped).
    """
    if m <= partition.size:
        raise ParameterError(
            f"target count {m} must exceed the current {partition.size} parts"
        )
    total = float(partition.measures.sum())
    unit = total / m
    groups = [[(i, float(mu))] for i, mu in enumerate(partition.measures)]
    parts, flags, h = _slice_stream(groups, unit, tol=tol)
    if len(parts) != m:
        raise ParameterError(
            f"slicing produced {len(parts)} parts for target {m}; "
            "measures are inconsistent with the unit size"
        )
    meas = np.full(m, unit)
    eq = Partition(meas, interval=True, domain=partition.domain)
    return EquitizeResult(eq, parts, flags, h)


def sort_to_intervals(partition, key=None):
    """Permutation laying equal-measure parts out as intervals by label.

    Slot i of the returned array holds the index of the part that should
    occupy the i-th interval; sorting is by label (or the given key).
    """
    meas = partition.measures
    if float(np.ptp(meas)) > 1e-12:
        raise ParameterError("parts must have equal measure to be interval-sorted")
    key = key or (lambda lab: lab)
    order = sorted(range(partition.size), key=lambda i: key(partition.labels[i]))
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
        return {
            "d_original": self.d_original,
            "d_compressed": self.d_compressed,
            "delta_hat": self.delta_hat,
            "delta_exact": self.delta_exact,
            "output_factor": self.output_factor,
            "amplifier": self.amplifier,
            "theoretical_bound": self.theoretical_bound,
            "empirical_max": self.empirical_max,
            "samples": self.samples,
            "seed": self.seed,
            "iterations": self.iterations,
            "layer_counts": {str(k): v for k, v in self.layer_counts.items()},
            "validation_ok": self.validation_ok,
            "fk_status": self.fk_status,
            "stages": self.stages,
            "elapsed_s": self.elapsed_s,
        }


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


def _equitized_groups(labels, ls, ell):
    """Label groups of one layer as ordered streams of fine pieces."""
    sl = ls.layer_slice(ell)
    idx = np.arange(sl.start, sl.stop)
    fine = 1.0 / ls.n
    order = {}
    for i in idx:
        order.setdefault(labels[i], []).append((int(i), fine))
    groups = sorted(order.values(), key=lambda g: g[0][0])
    return groups


def _layer_slots(labels, ls, ell, d_new, tol=1e-12):
    """Equitize one hidden/bias layer into d_new slots of fine pieces."""
    groups = _equitized_groups(labels, ls, ell)
    unit = 1.0 / ((ls.L + 2) * d_new)
    if len(groups) == d_new:
        sizes = [len(g) for g in groups]
        if np.ptp(sizes) == 0:
            return groups, 0
        raise ParameterError(
            f"layer {ell}: {len(groups)} unequal parts cannot be rebalanced "
            f"into {d_new} without a strictly larger target"
        )
    if len(groups) > d_new:
        raise ParameterError(
            f"layer {ell} has {len(groups)} parts, exceeding target width {d_new}"
        )
    parts, _, h = _slice_stream(groups, unit, tol=tol)
    if len(parts) != d_new:
        raise ParameterError(
            f"layer {ell}: slicing yielded {len(parts)} parts for target {d_new}"
        )
    if h > len(groups):
        raise ParameterError(
            f"layer {ell}: {h} pooled remainder parts from only {len(groups)} groups"
        )
    return parts, h


def _cell_slots(ls, ell, cells, d_new):
    """Proportional slices of each input/output cell, repeated per slot."""
    sl = ls.layer_slice(ell)
    per_cell = ls.d // cells
    repeat = d_new // cells
    fine = 1.0 / ls.n
    scale = float(cells) / d_new
    slots = []
    for c in range(cells):
        comp = [
            (int(sl.start + c * per_cell + r), fine * scale)
            for r in range(per_cell)
        ]
        slots.extend([comp] * repeat)
    return slots


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
    final partition) or ``target_d`` (explicit width, divisible by
    lcm(d0, dL)) must be given. Returns the compressed network and a
    report carrying the measured kernel distance ``delta_hat``, the output
    bound (L+2) * dL * (2B)^L * delta_hat it implies, and the empirical
    maximum output gap over uniformly sampled inputs. ``delta_hat`` is the
    cut distance of the two kernels as laid out, measured on the common
    refinement of their partitions (at most n + n' parts), so any two
    widths can be compared without lifting either kernel.
    """
    t0 = time.monotonic()
    if (epsilon is None) == (target_d is None):
        raise ParameterError("give exactly one of epsilon or target_d")
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
    ls_new = LayerStructure(ls.L, ls.d0, ls.dL, d_new)

    slot_comps = []
    slot_comps.extend(_cell_slots(ls, 0, ls.d0, d_new))
    for ell in range(1, ls.L):
        parts, _ = _layer_slots(labels, ls, ell, d_new)
        slot_comps.extend(parts)
    slot_comps.extend(_cell_slots(ls, ls.L, ls.dL, d_new))
    bias_parts, _ = _layer_slots(labels, ls, "bias", d_new)
    slot_comps.extend(bias_parts)
    stages.append({"name": "equitize", "status": "ok",
                   "detail": f"width {d_new}"})

    n_new = ls_new.n
    weights = np.zeros((n_new, ls.n))
    for srow, comp in enumerate(slot_comps):
        for k, m in comp:
            weights[srow, k] += m
    weights /= weights.sum(axis=1, keepdims=True)
    coeffs_new = weights @ ck.kernel.coeffs @ weights.T
    coeffs_new[~_allowed_support(ls_new)] = 0.0
    bias_sl = ls_new.bias_slice
    coeffs_new[bias_sl, bias_sl] = (ls.L + 2) / ck.B
    coeffs_new = np.clip(coeffs_new, -1.0, 1.0)
    ck_new = ComputationalKernel(
        StepKernel(ls_new.fine_partition(), coeffs_new), ls_new, ck.B
    )
    report = validate_computational(ck_new)
    if not report.ok:
        raise ValidationFailedError(
            f"compressed kernel failed validation: {report.first_failure()}"
        )
    stages.append({"name": "validate", "status": "ok", "detail": ""})
    net_new = extract_network(ck_new)

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
