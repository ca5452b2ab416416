"""Cut norms of step signals and step kernels, exact and heuristic.

For step objects the cut norm is attained on unions of parts, so the
kernel cut norm is a finite maximization: enumerate subsets on one side,
pick the other side in closed form from the signs of the induced sums.
Before enumerating, rows/columns that are entrywise identical are merged
(summing their measures) and all-zero ones dropped; this is lossless for
the maximum because identical rows enter or leave an optimal subset
together. Layered kernels collapse dramatically under this reduction,
which is what keeps exact values reachable well past the nominal cap.
The merge groups rows exactly by their bytes (with -0.0 folded into 0.0),
through a hash whose groups are checked member by member, and orders the
distinct rows lexicographically; ``kernel_cut_norm`` runs it once per call
and hands the result to the oracle it picks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .kernels import ComputationalKernel, StepKernel, StepSignal

EXACT_CAP_DEFAULT = 24
PERM_CAP_DEFAULT = 1_000_000


@dataclass
class CutWitness:
    """A cut value together with the part sets attaining it."""

    value: float
    row_set: tuple
    col_set: tuple = None

    def check(self, obj, tol=1e-12):
        """Re-evaluate the witness on its object; True if it reproduces value."""
        return abs(evaluate_witness(obj, self) - self.value) <= tol


def evaluate_witness(obj, witness):
    """Bilinear (kernels) or linear (signals) mass on the witness sets."""
    if isinstance(obj, StepSignal):
        idx = np.asarray(witness.row_set, dtype=int)
        if idx.size == 0:
            return 0.0
        return float(
            np.abs(np.sum(obj.values[idx] * obj.partition.measures[idx]))
        )
    kern = obj.kernel if isinstance(obj, ComputationalKernel) else obj
    rows = np.asarray(witness.row_set, dtype=int)
    cols = np.asarray(witness.col_set, dtype=int)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    meas = kern.partition.measures
    block = kern.coeffs[np.ix_(rows, cols)] * np.outer(meas[rows], meas[cols])
    return float(abs(block.sum()))


def signal_cut_norm(signal):
    """Largest absolute integral over a union of parts: the heavier sign class."""
    masses = signal.values * signal.partition.measures
    pos = float(masses[masses > 0].sum())
    neg = float(-masses[masses < 0].sum())
    if pos >= neg:
        rows = tuple(int(i) for i in np.flatnonzero(masses > 0))
    else:
        rows = tuple(int(i) for i in np.flatnonzero(masses < 0))
    w = CutWitness(0.0, rows)
    w.value = evaluate_witness(signal, w)
    return w


def l1_norm(obj):
    if isinstance(obj, StepSignal):
        return float(np.sum(np.abs(obj.values) * obj.partition.measures))
    kern = obj.kernel if isinstance(obj, ComputationalKernel) else obj
    m = kern.partition.measures
    return float(np.sum(np.abs(kern.coeffs) * np.outer(m, m)))


def l2_norm(obj):
    if isinstance(obj, StepSignal):
        return float(np.sqrt(np.sum(obj.values**2 * obj.partition.measures)))
    kern = obj.kernel if isinstance(obj, ComputationalKernel) else obj
    m = kern.partition.measures
    return float(np.sqrt(np.sum(kern.coeffs**2 * np.outer(m, m))))


def _group_rows(rows):
    """Group equal rows exactly: (group of each row, first row of each group).

    Groups are numbered by first appearance. Rows are keyed by the hash of
    their bytes, which keeps no bytes copy of every row alive; only if some
    row differs from the first row of its group, i.e. two hashes collided,
    are they keyed by the bytes themselves.
    """
    for key in (lambda row: hash(row.tobytes()), lambda row: row.tobytes()):
        ids = {}
        inverse = np.fromiter(
            (ids.setdefault(key(row), len(ids)) for row in rows),
            dtype=np.intp,
            count=len(rows),
        )
        first = np.unique(inverse, return_index=True)[1]
        if np.array_equal(rows, rows[first[inverse]]):
            break
    return inverse, first


def _merge_axis(coeffs, meas, axis):
    """Merge identical rows (axis=0) or columns (axis=1), summing measures.

    Rows are grouped by their values after ``+ 0.0``, which turns -0.0 into
    0.0, so two rows share a group exactly when they are equal as floats.
    All-zero groups are dropped; the rest come in lexicographic order of
    their rows, each represented by its first member, as
    ``np.unique(axis=0)`` orders them. The heuristic oracle's random starts
    are indexed in that order.
    """
    mat = coeffs if axis == 0 else coeffs.T
    folded = np.add(mat, 0.0, order="C")
    inverse, first = _group_rows(folded)
    groups = [[] for _ in first]
    for orig, g in enumerate(inverse):
        groups[g].append(orig)
    merged_meas = np.bincount(inverse, weights=meas, minlength=first.size)
    reps = folded[first]
    keep = np.flatnonzero(np.any(reps != 0.0, axis=1))
    if keep.size:  # rows of length 0 keep nothing, and lexsort needs keys
        keep = keep[np.lexsort(reps[keep].T[::-1])]
    red = mat[first[keep]]
    return (red if axis == 0 else red.T), merged_meas[keep], [groups[i] for i in keep]


def _reduce(kern):
    """Lossless shrink: drop zero rows/cols, merge duplicates with measures.

    Returns (coeffs, row measures, col measures, row groups, col groups).
    """
    meas = kern.partition.measures
    c, rmeas, rgroups = _merge_axis(kern.coeffs, meas, axis=0)
    c, cmeas, cgroups = _merge_axis(c, meas, axis=1)
    return c, rmeas, cmeas, rgroups, cgroups


def reduced_dims(kern):
    """(rows, cols) after the lossless reduction; cheap feasibility probe."""
    return _reduce(kern)[0].shape


def _best_subset_enumeration(weighted, n_enum, chunk=1 << 14):
    """Max over row subsets of max(sum of positive, -sum of negative) column sums.

    Returns (value, subset_index, side) with side +1 for the positive class.
    """
    total = 1 << n_enum
    shifts = np.arange(n_enum, dtype=np.uint64)
    best_val, best_idx, best_side = 0.0, 0, 1
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        g = bits @ weighted
        pos = np.where(g > 0, g, 0.0).sum(axis=1)
        neg = np.where(g < 0, -g, 0.0).sum(axis=1)
        cand = np.maximum(pos, neg)
        k = int(np.argmax(cand))
        if cand[k] > best_val:
            best_val = float(cand[k])
            best_idx = start + k
            best_side = 1 if pos[k] >= neg[k] else -1
    return best_val, best_idx, best_side


def _expand(groups, indices):
    flat = []
    for i in indices:
        flat.extend(groups[i])
    return tuple(sorted(flat))


def kernel_cut_norm_exact(kern, cap=EXACT_CAP_DEFAULT, *, reduction=None):
    """Exact cut norm by subset enumeration on the reduced kernel.

    Enumerates the smaller side after reduction; the other side is optimal
    in closed form (take all columns whose induced sum shares the winning
    sign). Raises CapacityError when even the reduced instance exceeds the
    cap; use kernel_cut_norm_lower then. ``reduction`` is ``_reduce(kern)``
    when the caller has already computed it.
    """
    if isinstance(kern, ComputationalKernel):
        kern = kern.kernel
    c, rmeas, cmeas, rgroups, cgroups = reduction or _reduce(kern)
    if c.size == 0:
        return CutWitness(0.0, (), ())
    transposed = c.shape[0] > c.shape[1]
    if transposed:
        c, rmeas, cmeas = c.T, cmeas, rmeas
        rgroups, cgroups = cgroups, rgroups
    n_enum = c.shape[0]
    if n_enum > cap:
        raise CapacityError(
            f"reduced kernel has {n_enum} distinct nonzero rows/columns, "
            f"over the exact cap {cap}; use the heuristic lower bound"
        )
    weighted = c * rmeas[:, None] * cmeas[None, :]
    _, idx, side = _best_subset_enumeration(weighted, n_enum)
    s = [i for i in range(n_enum) if (idx >> i) & 1]
    g = weighted[s].sum(axis=0) if s else np.zeros(c.shape[1])
    t = list(np.flatnonzero(g > 0) if side > 0 else np.flatnonzero(g < 0))
    rows, cols = _expand(rgroups, s), _expand(cgroups, t)
    if transposed:
        rows, cols = cols, rows
    w = CutWitness(0.0, rows, cols)
    w.value = evaluate_witness(kern, w)
    return w


def kernel_cut_norm_lower(kern, restarts=32, seed=0, max_rounds=200, *, reduction=None):
    """Alternating-maximization lower bound; deterministic under the seed.

    Each restart alternates the closed-form update on one side against the
    current other side until a fixed point. The returned value is the
    bilinear mass of an explicit witness, hence always a valid lower bound.
    ``reduction`` is ``_reduce(kern)`` when the caller has already computed it.
    """
    if isinstance(kern, ComputationalKernel):
        kern = kern.kernel
    c, rmeas, cmeas, rgroups, cgroups = reduction or _reduce(kern)
    if c.size == 0:
        return CutWitness(0.0, (), ())
    weighted = c * rmeas[:, None] * cmeas[None, :]
    nr = weighted.shape[0]
    rng = np.random.default_rng(seed)
    starts = [np.ones(nr, dtype=bool), weighted.sum(axis=1) > 0]
    starts += [rng.random(nr) < 0.5 for _ in range(restarts)]
    best = (0.0, (), ())
    for s in starts:
        s = s.copy()
        sign = 1
        for _ in range(max_rounds):
            g = weighted[s].sum(axis=0) if s.any() else np.zeros(weighted.shape[1])
            pos, neg = g[g > 0].sum(), -g[g < 0].sum()
            sign = 1 if pos >= neg else -1
            t = g > 0 if sign > 0 else g < 0
            h = (
                weighted[:, t].sum(axis=1) * sign
                if t.any()
                else np.zeros(nr)
            )
            s_new = h > 0
            if np.array_equal(s_new, s):
                s = s_new
                break
            s = s_new
        g = weighted[s].sum(axis=0) if s.any() else np.zeros(weighted.shape[1])
        t = g > 0 if sign > 0 else g < 0
        val = abs(float(weighted[np.ix_(s, t)].sum())) if (s.any() and t.any()) else 0.0
        if val > best[0]:
            best = (val, np.flatnonzero(s), np.flatnonzero(t))
    rows, cols = _expand(rgroups, best[1]), _expand(cgroups, best[2])
    w = CutWitness(0.0, rows, cols)
    w.value = evaluate_witness(kern, w)
    return w


def kernel_cut_norm(kern, oracle="auto", cap=EXACT_CAP_DEFAULT, restarts=32, seed=0):
    """Dispatch to the exact or heuristic cut norm.

    Returns (witness, exact_flag). With oracle='auto' the exact route is
    used whenever the reduced instance fits under the cap; the kernel is
    reduced once and that reduction is handed to the chosen oracle.
    """
    if oracle == "exact":
        return kernel_cut_norm_exact(kern, cap=cap), True
    if oracle == "heuristic":
        return kernel_cut_norm_lower(kern, restarts=restarts, seed=seed), False
    if oracle != "auto":
        raise ParameterError(f"unknown oracle {oracle!r}")
    k = kern.kernel if isinstance(kern, ComputationalKernel) else kern
    red = _reduce(k)
    if min(red[0].shape) <= cap:
        return kernel_cut_norm_exact(k, cap=cap, reduction=red), True
    return kernel_cut_norm_lower(k, restarts=restarts, seed=seed, reduction=red), False


def restrict_to_layer(signal, layers, ell):
    """Zero a signal outside one layer region (partition must refine it)."""
    sl = layers.layer_slice(ell)
    lo, hi = sl.start / layers.n, sl.stop / layers.n
    bounds = signal.partition.boundaries()
    inside = (bounds[:-1] >= lo - 1e-12) & (bounds[1:] <= hi + 1e-12)
    vals = np.where(inside, signal.values, 0.0)
    return StepSignal(signal.partition, vals)


def _hidden_permutation_index(layers, perms):
    """Full index map over the fine partition from per-hidden-layer perms."""
    idx = np.arange(layers.n)
    for ell, perm in zip(range(1, layers.L), perms):
        if perm is None:
            continue
        sl = layers.layer_slice(ell)
        idx[sl] = sl.start + np.asarray(perm, dtype=int)
    return idx


def _apply_perms(ck, perms):
    idx = _hidden_permutation_index(ck.layers, perms)
    return ck.kernel.coeffs[np.ix_(idx, idx)]


def _diff_kernel(ck, other_coeffs):
    d = (ck.kernel.coeffs - other_coeffs) / 2.0
    return StepKernel(ck.kernel.partition, d)


def _layer_profiles(ck, ell):
    """Permutation-robust fingerprint of each part of a hidden layer."""
    ls, c = ck.layers, ck.kernel.coeffs
    sl = ls.layer_slice(ell)
    prev = ls.layer_slice(ell - 1)
    nxt = ls.layer_slice(ell + 1)
    incoming = c[sl, prev]
    outgoing = c[nxt, sl].T
    if ell > 1:
        incoming = np.sort(incoming, axis=1)
    if ell + 1 < ls.L:
        outgoing = np.sort(outgoing, axis=1)
    bias = c[sl, ls.bias_slice.start][:, None]
    return np.hstack([incoming, outgoing, bias])


def _greedy_match(pk, pj):
    d = pk.shape[0]
    used = np.zeros(d, dtype=bool)
    perm = np.empty(d, dtype=int)
    for p in range(d):
        dist = np.linalg.norm(pj - pk[p], axis=1)
        dist[used] = np.inf
        q = int(np.argmin(dist))
        perm[p] = q
        used[q] = True
    return tuple(int(v) for v in perm)


@dataclass
class CompDistanceResult:
    """An upper bound on the layer-aligned cut distance between two kernels.

    The minimum runs over an explored set of per-hidden-layer part
    permutations, each a valid layer-preserving relabeling, so the value
    always upper-bounds the true infimum. ``exact`` records whether the
    inner cut norms were computed exactly.
    """

    value: float
    permutations: tuple
    exact: bool
    mode: str
    witness: CutWitness = None


def comp_cut_distance_upper(
    ck,
    cj,
    mode="identity",
    oracle="auto",
    cap=EXACT_CAP_DEFAULT,
    restarts=32,
    seed=0,
    perm_cap=PERM_CAP_DEFAULT,
):
    """Cut norm of the difference, minimized over hidden-part relabelings.

    Modes: 'identity' compares as laid out; 'greedy' matches parts within
    each hidden layer by profile similarity first; 'exhaustive' tries every
    per-layer permutation (hidden width at most 8). Kernels must share
    (L, d0, dL, B) and size; lift the smaller one to a common refinement
    first if the hidden widths differ.
    """
    a, b = ck.layers, cj.layers
    if (a.L, a.d0, a.dL) != (b.L, b.d0, b.dL):
        raise ParameterError(
            f"kernels disagree on (L, d0, dL): {(a.L, a.d0, a.dL)} vs {(b.L, b.d0, b.dL)}"
        )
    if abs(ck.B - cj.B) > 1e-12:
        raise ParameterError(f"kernels disagree on B: {ck.B} vs {cj.B}")
    if a.d != b.d:
        raise ParameterError(
            f"hidden dims differ ({a.d} vs {b.d}); lift to a common refinement first"
        )
    identity = (None,) * (a.L - 1)

    def measure(perms):
        diff = _diff_kernel(ck, _apply_perms(cj, perms))
        w, is_exact = kernel_cut_norm(
            diff, oracle=oracle, cap=cap, restarts=restarts, seed=seed
        )
        scaled = CutWitness(w.value * 2.0, w.row_set, w.col_set)
        return scaled, is_exact

    if mode == "identity":
        w, is_exact = measure(identity)
        return CompDistanceResult(w.value, identity, is_exact, mode, w)
    if mode == "greedy":
        perms = tuple(
            _greedy_match(_layer_profiles(ck, ell), _layer_profiles(cj, ell))
            for ell in range(1, a.L)
        )
        best, best_perms, ex_all = None, None, True
        for cand in (identity, perms):
            w, is_exact = measure(cand)
            ex_all = ex_all and is_exact
            if best is None or w.value < best.value:
                best, best_perms = w, cand
        return CompDistanceResult(best.value, best_perms, ex_all, mode, best)
    if mode == "exhaustive":
        if a.d > 8:
            raise CapacityError(
                f"exhaustive permutation search needs hidden dim <= 8, got {a.d}"
            )
        total = math.factorial(a.d) ** (a.L - 1)
        if total > perm_cap:
            raise CapacityError(
                f"{total} permutation combinations exceed the cap {perm_cap}"
            )
        best, best_perms, ex_all = None, None, True
        layer_perms = list(itertools.permutations(range(a.d)))
        for combo in itertools.product(layer_perms, repeat=a.L - 1):
            w, is_exact = measure(combo)
            ex_all = ex_all and is_exact
            if best is None or w.value < best.value:
                best, best_perms = w, combo
        return CompDistanceResult(best.value, best_perms, ex_all, mode, best)
    raise ParameterError(f"unknown mode {mode!r}")
