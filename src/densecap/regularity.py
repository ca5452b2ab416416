"""Constructive weak regularity for step kernels and network compression.

The driver is the classical energy-increment loop: average the kernel
over the blocks of the current partition, locate a set pair on which the
residual has large integral, refine the partition by that pair, repeat.
Each completed refinement raises the squared L2 norm of the projection by at least the
witness value squared, which caps the iteration count.

Compression runs the loop on the network's unit quotient: the layered
kernel with each unit's twin parts merged into one part of their summed
measure, (L-1)*d + d0 + dL + 1 parts instead of (L+2)*d, with the same cut
norms and projections. The loop takes a BlockKernel, of which a
StepKernel is the one-block case; compression gets the quotient as
its layer blocks (``kernels.unit_blocks``) and starts from the structural
labels. Its groups never mix layers, so the projection and the residual
vanish off those blocks too: each round computes them, and the oracle's
products, block by block, and no n_units x n_units array is built. The
final partition respects the layered structure, and each hidden layer's
units are averaged over equal slots: with ``P_l`` the (d' x d) slot
matrix of hidden layer l, the smaller network has
``W'_l = P_l W_l P_{l-1}^T`` and ``b'_l = P_l b_l`` (the first layer
keeps its inputs, the last its outputs). The input's n x n kernel is
never built: the quotient is read off the weights, the distance measured
between the two networks' quotients, and only the smaller network's
kernel is induced, to be validated. ``_slot_weights`` cuts the slots
from one stream of integer ticks, so every slot weight is an exact ratio
and a compression to the network's own width reproduces it.
"""

import math
import time
from dataclasses import asdict, dataclass, field

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
    layers_of,
    lift_computational,  # noqa: F401 - bench/tracing.py wraps this name here
    unit_blocks,
    validate_computational,
)
from .networks import DenseNetwork, forward, forward_threads
from .partitions import Partition


def _project_grouping(kernel, labels):
    """Blockwise average over label groups; exact measure weighting.

    Each block of ``kernel`` gets the averages of the groups it meets,
    from one product per side, so on a StepKernel this is the one product
    ``W @ coeffs @ W.T``. A group must lie within one region of the parts
    the blocks' bounds cut out, so that the average vanishes off the
    blocks, as the kernel does; labels that mix regions raise
    ParameterError. Returns (group values, group measures, group index of
    each part).
    """
    measures = kernel.partition.measures
    uniq, inverse = np.unique(labels, return_inverse=True)
    k = uniq.size
    n = measures.size
    bounds = [x for rs, cs, _ in kernel.blocks for x in (rs.start, rs.stop, cs.start, cs.stop)]
    region = np.searchsorted(np.unique(bounds), np.arange(n), side="right")
    if np.unique(inverse * (len(bounds) + 1) + region).size != k:
        raise ParameterError("label groups mix regions of the kernel's blocks")
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


def _refine(kernel, labels, split, stop, max_iter, oracle, seed):
    """The energy-increment loop shared by every refinement in this module.

    Each round projects the kernel onto the label groups, records the
    projection energy and the residual's cut witness, and stops once the
    witness drops below ``stop`` or after ``max_iter`` splits. Otherwise
    ``split(labels, s, t)`` refines the labels by the witness indicator
    vectors s (rows) and t (columns); it returns None when it refuses to
    refine, which ends the run as "budget_exhausted". ``split`` may itself
    be None when the first round is sure to stop, as for labels that are
    the kernel's own parts: their residual, and so their witness, is zero.
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
        refined = split(labels, s, t)
        if refined is None:
            status = "budget_exhausted"
            break
        labels = refined
    coarse = StepKernel(Partition(gm), np.clip(vals, -1, 1))
    return RegularityTrace(
        records, labels, coarse, kernel.partition, witness.value, status, exact_used
    )


def weak_regularity(kernel, eps, oracle="exact", seed=0):
    """Approximate a step kernel in cut norm by iterative cut refinement.

    Starts from the one-part partition and stops as soon as the residual's
    cut witness drops below ``eps`` or the iteration cap ceil(4/eps^2) is
    hit; the cap is generous because every completed refinement raises the
    projection energy by at least eps^2 and the energy never exceeds 1.
    """
    require_real("eps", eps)
    if not 0 < eps <= 2:
        raise ParameterError(f"eps must lie in (0, 2], got {eps}")
    require_count("seed", seed)
    return _refine(
        kernel,
        np.zeros(kernel.n, dtype=np.int64),
        lambda labels, s, t: _relabel(labels * 4 + 2 * s + t),
        eps,
        math.ceil(4.0 / (eps * eps)),
        oracle,
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

    The pieces form one stream of integer ticks, ``sizes[i]`` for piece i:
    group after group, numbered by their first piece, each group's pieces
    in index order. A group's ticks past its whole units are leftovers; a
    stable sort moves them behind every group's front, and the stream is
    cut every ``unit`` ticks, so the sizes must total a whole number of
    units. ``amounts[k, i]`` counts the ticks of piece i in unit k, as
    floats, and h, the number of units cut from leftovers, is below the
    number of groups.
    """
    g = _first_occurrence(groups)
    order = np.argsort(g, kind="stable")
    piece = np.repeat(order, sizes[order])
    group, tick = g[piece], np.arange(piece.size)
    count = np.bincount(group)  # group k's ticks end at cumsum(count)[k]
    left = tick >= (np.cumsum(count) - count % unit)[group]
    piece = piece[np.argsort(left, kind="stable")]
    n = len(sizes)
    ticks = np.bincount(tick // unit * n + piece, minlength=tick.size // unit * n)
    return ticks.reshape(-1, n).astype(float), int(left.sum()) // unit


@dataclass
class CompressionReport:
    """What ``compress_network`` measured. Each ``stages`` entry has a name,
    status, detail and ``elapsed_s``, the wall time from the end of the
    previous stage (the first from the unit quotient) to its own end, so
    the stage times sum to at most ``elapsed_s``."""

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

    @property
    def bound_label(self):
        """How to print ``theoretical_bound``: a heuristic ``delta_hat`` certifies nothing."""
        if self.delta_exact:
            return "output bound"
        return "output bound estimate (heuristic delta_hat, not certified)"


def _layer_group_counts(labels, ls):
    return {
        ell: int(np.unique(labels[ls.unit_slice(ell)]).size)
        for ell in list(range(1, ls.L)) + ["bias"]
    }


def _budgeted_fk(ls, quotient, budget, stop, max_iter, oracle, seed):
    """Cut refinement of a unit quotient within a group budget per hidden layer.

    Splits are applied per hidden layer; a layer is left untouched whenever
    the full split (and its one-sided fallbacks) would push it past the
    budget, unless a split lands exactly on the budget with equal-size
    groups. Every other unit is its own structural group from the start,
    so only hidden layers can split. The run ends once none can.
    """
    struct = ls.structural_labels()
    hidden = [ls.unit_slice(ell) for ell in range(1, ls.L)]

    def split(labels, s, t):
        new_labels = labels.copy()
        changed = False
        for sl in hidden:
            before = int(np.unique(labels[sl]).size)
            for raw in (
                labels[sl] * 4 + 2 * s[sl] + t[sl],
                labels[sl] * 2 + s[sl],
                labels[sl] * 2 + t[sl],
            ):
                cand = _relabel(raw)
                count = int(cand.max()) + 1
                if count > budget or (count == budget and np.ptp(np.bincount(cand))):
                    continue
                changed = changed or count > before
                new_labels[sl] = cand
                break
        # layers re-separated by pairing with the structural label
        return _pair_labels(new_labels, struct) if changed else None

    return _refine(quotient, struct, split, stop, max_iter, oracle, seed)


def compress_network(net, epsilon=None, target_d=None, oracle="auto", seed=0, samples=10_000):
    """Compress a dense network to a smaller hidden width.

    Either ``epsilon`` (regularity accuracy; the width follows from the
    final partition) or ``target_d`` (explicit width, at most the
    network's and divisible by lcm(d0, dL)) must be given. Returns the
    compressed network and a report carrying the measured kernel distance
    ``delta_hat``, the output bound (L+2) * dL * (2B)^L * delta_hat it
    implies (certified only if ``delta_exact``; ``bound_label`` names it
    an estimate otherwise), and the empirical maximum output gap over
    uniformly sampled inputs. ``delta_hat`` is the cut distance between
    the kernels of the input and the returned network as laid out,
    measured on the common refinement of their unit quotients, so any two
    widths can be compared without lifting either kernel.

    One refinement runs on the unit quotient's layer blocks, read off the
    weights, from the structural labels: groups count units, and a
    ``target_d`` run allows target_d per hidden layer and stops below
    1e-9 or after 200 splits, an ``epsilon`` run d and stops below
    epsilon or after ceil(4/epsilon^2). Groups never mix layers, so the
    ``refinement`` stage's last witness is the final residual's, a bound
    certified only if every oracle call was exact; the distance detail
    names the reduced size its oracle ran on. Arguments are checked
    before any array is built: ``target_d`` must be a positive multiple
    of lcm(d0, dL), ``epsilon`` a real number in (0, 4], ``oracle`` one
    of ``ORACLES``, ``seed`` a non-negative integer and ``samples`` a
    positive one (a ``bool`` is neither a count nor an ``epsilon``).
    ``_slot_weights`` cuts each hidden layer's d_new ticks per unit into
    slots of d ticks, grouped by the refined labels, so a slot's weights
    are its tick counts over d. The slot matrices P average the neurons:
    W'_1 = P_1 W_1, W'_l = P_l W_l P_{l-1}^T, W'_L = W_L P_{L-1}^T,
    b'_l = P_l b_l and b'_L = b_L, clipped to [-B, B]. Only the new
    network's kernel, small at d_new, is induced, to be validated once;
    the distance is taken between the two networks' quotients and the
    output gap by ``forward``, whose chunks keep its working memory
    independent of ``samples``, so the input's n x n kernel is never
    built and no array grows as samples * d; the stage log's empirical
    detail names the threads ``forward`` ran on. Compressing
    to the network's own width returns its weights and biases unchanged,
    with delta_hat and the output gap 0.

    Outputs are reproducible bit for bit only at a fixed BLAS thread
    count. The slot averages, the projections and the heuristic oracle
    sum through BLAS matrix products, whose summation order depends on
    the thread count, so runs at different counts can differ in the last
    bits and then in the oracle's choices (with the dense quotient,
    ``delta_hat`` at 960->48 read 0.0366834 on one thread and 0.0366598
    on two).
    """
    t0 = time.monotonic()
    if (epsilon is None) == (target_d is None):
        raise ParameterError("give exactly one of epsilon or target_d")
    require_count("samples", samples, 1)
    require_count("seed", seed)
    ls, B = layers_of(net), float(net.B)
    if target_d is not None:
        require_count("target_d", target_d, ls.M)
        if target_d % ls.M:
            raise ParameterError(
                f"target width {target_d} not divisible by lcm(d0, dL) = {ls.M}"
            )
        if target_d > net.d:
            raise ParameterError(f"target width {target_d} exceeds the network width {net.d}")
    else:
        require_real("epsilon", epsilon)
        if not 0 < epsilon <= 4:
            raise ParameterError(f"epsilon must lie in (0, 4], got {epsilon}")
    if oracle not in ORACLES:
        raise ParameterError(f"unknown oracle {oracle!r}")
    quotient = unit_blocks(net)
    stages = []
    mark = time.monotonic()

    def stage(name, status, detail=""):
        nonlocal mark
        now = time.monotonic()
        stages.append({"name": name, "status": status, "detail": detail,
                       "elapsed_s": now - mark})
        mark = now

    if target_d is None:
        budget, stop, max_iter = ls.d, epsilon, math.ceil(4.0 / (epsilon * epsilon))
    else:
        budget, stop, max_iter = target_d, 1e-9, 200
    if target_d == net.d:
        # one round on the network's own units: the residual is zero
        trace = _refine(quotient, np.arange(ls.n_units), None, 2.0, 1, oracle, seed)
    else:
        trace = _budgeted_fk(ls, quotient, budget, stop, max_iter, oracle, seed)
    labels, fk_status = trace.labels, trace.status
    if target_d is None:
        # a layer of k groups fits k slots only if its groups are equal
        need = 0
        for ell in range(1, ls.L):
            _, sizes = np.unique(labels[ls.unit_slice(ell)], return_counts=True)
            need = max(need, sizes.size + int(np.ptp(sizes) != 0))
        d_new = ls.M * -(-need // ls.M)
    else:
        d_new = int(target_d)
    iterations = len(trace.iterations)
    kind = "certified bound" if trace.oracle_exact else "bound estimate"
    stage("refinement", fk_status, f"{iterations} iterations; {kind} {trace.bound:.4g}")
    # the distance builds its own quotients; the refinement's quotient-sized
    # arrays would only raise its peak
    del quotient, trace

    counts = _layer_group_counts(labels, ls)
    P = [
        _slot_weights(np.full(ls.d, d_new), labels[ls.unit_slice(k + 1)], ls.d)[0] / ls.d
        for k in range(ls.L - 1)
    ]
    stage("equitize", "ok", f"width {d_new}")

    W, b = net.weights, net.biases
    weights = [P[0] @ W[0]]
    weights += [P[k] @ W[k] @ P[k - 1].T for k in range(1, ls.L - 1)]
    weights.append(W[-1] @ P[-1].T)
    biases = [p @ c for p, c in zip(P, b)] + [b[-1]]
    # a convex average can overshoot the bound by an ulp
    net_new = DenseNetwork(
        ls.L, ls.d0, ls.dL, d_new, B,
        tuple(np.clip(a, -B, B) for a in weights),
        tuple(np.clip(a, -B, B) for a in biases),
    )
    report = validate_computational(induce_kernel(net_new))
    if not report.ok:
        raise ValidationFailedError(
            f"compressed kernel failed validation: {report.first_failure()}"
        )
    stage("validate", "ok")

    dist = comp_cut_distance_upper(net, net_new, mode="identity", oracle=oracle, seed=seed)
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
        iterations=iterations,
        layer_counts=counts,
        validation_ok=report.ok,
        fk_status=fk_status,
        stages=stages,
        elapsed_s=time.monotonic() - t0,
    )
    return net_new, rep
