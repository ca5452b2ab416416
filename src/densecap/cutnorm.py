"""Cut norms of step signals and step kernels, exact and heuristic.

For step objects the cut norm is attained on unions of parts, so the
kernel cut norm is a finite maximization: enumerate subsets on one side,
pick the other side in closed form from the signs of the induced sums.
Kernels are BlockKernels, which vanish outside a few blocks of consecutive
parts; a StepKernel is the one-block case.

Every call first shrinks the kernel once (``_shrink``): it drops the
all-zero rows and columns and cuts each block down to the rest, in layout
order. The heuristic runs on that shrink. The exact route also merges
rows/columns that are entrywise identical (summing their measures); this
is lossless for the maximum because identical rows enter or leave an
optimal subset together, and layered kernels collapse under it, which
keeps exact values reachable well past the nominal cap. ``_reduce``
writes the shrink into one dense array and merges its rows, then its
columns, by one stable ``np.lexsort`` each. The merge groups only
bitwise-equal rows, so rounding can decide it; the heuristic never meets
that. Before any merge, ``kernel_cut_norm`` hashes the shrink's rows and
columns block by block (``_hash_counts``); the count of distinct hashes
never exceeds the count of distinct rows. When it exceeds the cap on both
axes, no exact route exists and nothing is merged. Otherwise the shrink
is merged once, and the exact route runs on the merge if that fits under
the cap; if not, the heuristic still runs on the shrink. Index maps, from
each part to its reduced row or column (-1 if dropped), take the witness
sets back to the original parts.

The enumeration scores a row subset by one l1 sum: with column sums x, its
heavier sign class is (sum |x_j| + |sum x_j|) / 2, and sum x_j is the sum
of an appended column of row totals (Alon-Naor's augmentation). All subset
sums of the low rows of ``[weighted, totals]`` come from a table made by
doubling, ``low[2^b : 2^(b+1)] = low[:2^b] + row b``, sized by a number of
entries; the high rows' sums come from a second doubling table of the same
size (and, past it, from adding the remaining rows in increasing order).
Each value of the high rows adds its sum to the whole low table, then an
absolute value, a sum down the columns and an argmax score every subset,
still in index order. The enumeration runs on every core: the values of
the high rows are cut into contiguous runs, one thread each (at most one
per value, so with no high rows it starts none), and each thread holds
one table of its own for the absolute values. A subset's score takes the
same operations in any run and the runs' first maxima are joined in
order, so the result does not depend on the thread count.

The heuristic oracle advances all its starts together, two block products
per round: ``G = S @ weighted`` gives every moving start's column sums, and
``T @ weighted.T`` the row sums against its chosen columns, each summed
over the blocks. A start whose rows come back unchanged is frozen and
leaves the batch. The pick is the per-start loop's: the first start with
the largest exact block sum ``weighted[np.ix_(s, t)].sum()``, taken only
for the starts whose cheap screen (summed from ``G``) is within a rounding
bound of the best. Every sign test reads a sum within that rounding bound
as 0: a row or column joins a start's sets only above it, and the
positive class wins unless it is lighter by more. A projection residual
integrates to 0 over every group block, so its all-ones start ties its
sign classes exactly, and a singleton group's sums are exactly 0; with the
bound, such ties are settled as exact arithmetic would, not by the order of
the sums, and the witness does not hinge on it.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ValidationFailedError, require_count
from .kernels import BlockKernel, StepSignal, unit_blocks
from .partitions import Partition
from .threads import cores, spread

EXACT_CAP_DEFAULT = 24
PERM_CAP_DEFAULT = 1_000_000
LOWER_MAX_ROUNDS = 200  # alternating updates per heuristic restart
ORACLES = ("auto", "exact", "heuristic")
ENUM_BLOCK = 1 << 16  # entries in the enumeration's table of low-row subset sums


@dataclass
class CutWitness:
    """A cut value together with the part sets attaining it.

    ``kernel_cut_norm`` also records ``dims``, the (rows, cols) of the
    reduced kernel its oracle ran on: the merge on the exact route, the
    shrink on the heuristic one.
    """

    value: float
    row_set: tuple
    col_set: tuple = None
    dims: tuple = None

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
    rows = np.asarray(witness.row_set, dtype=int)
    cols = np.asarray(witness.col_set, dtype=int)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    meas = obj.partition.measures
    block = _gather(obj, rows, cols)
    block *= np.outer(meas[rows], meas[cols])
    return float(abs(block.sum()))


def _gather(bk, rows, cols):
    """``coeffs[np.ix_(rows, cols)]`` of a block kernel: zero off its blocks."""
    out = np.zeros((rows.size, cols.size))
    for rs, cs, a in bk.blocks:
        r = (rows >= rs.start) & (rows < rs.stop)
        c = (cols >= cs.start) & (cols < cs.stop)
        if r.any() and c.any():
            out[np.ix_(r, c)] = a[np.ix_(rows[r] - rs.start, cols[c] - cs.start)]
    return out


def signal_cut_norm(signal):
    """Largest absolute integral over a union of parts: the heavier sign class."""
    masses = signal.values * signal.partition.measures
    pos = float(masses[masses > 0].sum())
    neg = float(-masses[masses < 0].sum())
    rows = tuple(np.flatnonzero(masses > 0 if pos >= neg else masses < 0).tolist())
    w = CutWitness(0.0, rows)
    w.value = evaluate_witness(signal, w)
    return w


def l1_norm(obj):
    if isinstance(obj, StepSignal):
        return float(np.sum(np.abs(obj.values) * obj.partition.measures))
    m = obj.partition.measures
    return float(sum(np.sum(np.abs(a) * np.outer(m[rs], m[cs])) for rs, cs, a in obj.blocks))


def _merge_rows(mat, meas):
    """Merge equal rows, summing measures: (merged rows, their measures, each row's group).

    One stable ``np.lexsort``, first column first, orders the rows as floats
    (-0.0 equal to 0.0); equal neighbours form a group, represented by its
    first row. These are ``np.unique(axis=0)``'s groups, in its order.
    """
    order = np.lexsort(mat.T[::-1]) if mat.size else np.arange(len(mat))
    srt = mat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return mat[order[first]], np.bincount(group, weights=meas, minlength=first.sum()), group


def _hash_counts(blocks, rmeas, cmeas):
    """The number of distinct hashes among a shrink's rows, then its columns.

    A row's hash sums ``row * v`` for one fixed random v over the pieces
    that all blocks' column bounds cut: each piece by ``np.add.reduceat``,
    then the pieces in layout order. Equal rows (-0.0 read as 0.0) so hash
    equal whatever blocks hold them, and the count never exceeds the number
    of distinct rows. Columns are hashed alike.
    """
    v = np.random.default_rng(0).random(max(rmeas.size, cmeas.size))
    counts = []
    for axis, n in enumerate((rmeas.size, cmeas.size)):
        cuts = np.unique([s for b in blocks for s in (b[1 - axis].start, b[1 - axis].stop)])
        pieces = np.zeros((n, max(cuts.size - 1, 0)))
        for rs, cs, a in blocks:
            own, other, a = (rs, cs, a) if axis == 0 else (cs, rs, a.T)
            lo, hi = np.searchsorted(cuts, (other.start, other.stop))
            pieces[own, lo:hi] = np.add.reduceat(a * v[other], cuts[lo:hi] - other.start, axis=1)
        counts.append(np.unique(pieces.sum(axis=1)).size)
    return counts


def _shrink(kern):
    """The kernel's blocks cut down to their nonzero rows and columns, in layout order.

    Returns (blocks, row measures, col measures, row map, col map); a map
    sends each part to its reduced row or column, or to -1 if dropped. The
    heuristic runs on it unmerged: on 1,200-part induced kernels with 52 to
    484 distinct rows, a merge cost it more than its smaller products saved.
    """
    nonzero = np.zeros((2, kern.n), dtype=bool)
    for rs, cs, a in kern.blocks:
        nonzero[0, rs] |= a.any(axis=1)
        nonzero[1, cs] |= a.any(axis=0)
    maps = np.where(nonzero, np.cumsum(nonzero, axis=1) - 1, -1)
    blocks = []
    for rs, cs, a in kern.blocks:
        r, c = maps[0][rs], maps[1][cs]
        kr, kc = r[r >= 0], c[c >= 0]
        if kr.size and kc.size:
            a = a if kr.size == r.size and kc.size == c.size else a[np.ix_(r >= 0, c >= 0)]
            blocks.append((slice(int(kr[0]), int(kr[-1]) + 1), slice(int(kc[0]), int(kc[-1]) + 1), a))
    meas = kern.partition.measures
    return blocks, meas[nonzero[0]], meas[nonzero[1]], maps[0], maps[1]


def _reduce(kern, shrink=None):
    """The exact route's lossless reduction: ``shrink`` (or ``_shrink(kern)``) merged.

    Returns what ``_shrink`` does, for one dense array of the shrink whose
    rows, then columns, ``_merge_rows`` has merged.
    """
    blocks, rmeas, cmeas, rmap, cmap = shrink or _shrink(kern)
    c = np.zeros((rmeas.size, cmeas.size))
    for rs, cs, a in blocks:
        c[rs, cs] = a
    c, rmeas, rgroup = _merge_rows(c, rmeas)
    c, cmeas, cgroup = _merge_rows(c.T, cmeas)
    # a dropped part's -1 picks the appended -1
    return c.T, rmeas, cmeas, np.append(rgroup, -1)[rmap], np.append(cgroup, -1)[cmap]


def reduced_dims(kern):
    """(rows, cols) after the exact route's lossless reduction."""
    return _reduce(kern)[0].shape


def enumeration_threads(n_enum, n_cols, *, block=ENUM_BLOCK):
    """Threads ``_best_subset_enumeration`` spreads ``n_enum`` rows of ``n_cols`` over.

    One per core, at most one per value of the high rows: each value is a
    pass over the whole low table. With no high rows it is 1.
    """
    return min(cores(), 1 << (n_enum - _low_rows(n_enum, n_cols + 1, block)))


def _low_rows(n_enum, n_cols, block):
    """Rows whose 2^n_lo subset sums of ``n_cols`` entries fit in ``block`` entries."""
    return min(n_enum, max(1, block // n_cols).bit_length() - 1)


def _aligned(shape):
    """An empty array whose data starts on a 64-byte boundary.

    malloc promises only 16, and on an AVX-512 Xeon loads straddling cache
    lines made the enumeration a third slower whenever the heap happened to
    place its table so.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _best_subset_enumeration(weighted, n_enum, *, block=ENUM_BLOCK):
    """Max over row subsets of max(sum of positive, -sum of negative) column sums.

    Returns (value, subset_index, side): bit b of the index selects row b,
    the index is the first in index order that attains the value, and side
    (+1 for the positive class) is the sign of the row-total column there.
    The table (see the module docstring) holds the low ``n_lo`` rows' 2^n_lo
    subset sums, column by column, within ``block`` entries: 0.5 MB at the
    default block. The sums of the next ``n_mid <= n_lo`` rows come from a
    second doubling table, each extended by any rows past those in
    increasing order, so a high sum adds its rows one at a time in
    increasing order, as the sum of the selected rows does.

    The values of the high rows are cut into contiguous runs, one for each
    of ``enumeration_threads`` threads (``threads.spread``). Each thread
    holds its own absolute-valued copy of the table and score row, a
    second 0.5 MB, and returns the first strict maximum of its run; the
    runs are joined in order by a strict ``>``. Every subset's score is
    made by the same operations in any run, so the result does not depend
    on the thread count, bit for bit.
    """
    n_cols = weighted.shape[1] + 1
    aug = np.column_stack([weighted[:n_enum], weighted[:n_enum].sum(axis=1)])
    n_lo = _low_rows(n_enum, n_cols, block)
    low = _aligned((n_cols, 1 << n_lo))
    _subset_sums(aug[:n_lo], low.T)
    high = aug[n_lo:]
    n_mid = min(len(high), n_lo)
    mid = _subset_sums(high[:n_mid], np.empty((1 << n_mid, n_cols)))
    workers = enumeration_threads(n_enum, n_cols - 1, block=block)
    cuts = [(k << len(high)) // workers for k in range(workers + 1)]
    # allocated on the calling thread (see threads); where a value sets rows
    # above mid, its run adds them to its own copy of mid
    bufs = [_aligned((n_cols + 1, 1 << n_lo)) for _ in range(workers)]
    tops = np.empty((workers,) + mid.shape) if len(high) > n_mid else None

    def run(k):
        sums, cand = bufs[k][:-1], bufs[k][-1]
        best_val, best_idx, best_side = 0.0, 0, 1
        for top in range(cuts[k] >> n_mid, ((cuts[k + 1] - 1) >> n_mid) + 1):
            shifts = mid
            if top:
                shifts = tops[k]
                shifts[...] = mid
                for b, row in enumerate(high[n_mid:]):
                    if (top >> b) & 1:
                        shifts += row
            first = max(cuts[k], top << n_mid)
            for hi in range(first, min(cuts[k + 1], (top + 1) << n_mid)):
                shift = shifts[hi - (top << n_mid)]
                np.add(low, shift[:, None], out=sums)
                np.abs(sums, out=sums)
                sums.sum(axis=0, out=cand)
                j = int(np.argmax(cand))
                if cand[j] > best_val:
                    best_val = float(cand[j])
                    best_idx = (hi << n_lo) + j
                    best_side = 1 if low[-1, j] + shift[-1] >= 0.0 else -1
        return best_val, best_idx, best_side

    best = (0.0, 0, 1)
    for found in spread(run, workers):
        if found[0] > best[0]:
            best = found
    return best[0] / 2, best[1], best[2]


def _subset_sums(rows, out):
    """Fill ``out[i]`` with the sum of ``rows[b]`` over the bits b of i; returns out.

    Made by doubling, ``out[2^b : 2^(b+1)] = out[:2^b] + rows[b]``, so each
    sum adds its rows one at a time in increasing order, starting from 0.0.
    """
    out[0] = 0.0
    for b, row in enumerate(rows):
        np.add(out[: 1 << b], row, out=out[1 << b : 2 << b])
    return out


def _witness(kern, rmap, cmap, s, t):
    """Witness on the original parts from masks s, t over the reduced rows, columns.

    Each mask gains a False at its end, which the dropped parts (-1) pick.
    """
    rows = np.flatnonzero(np.append(s, False)[rmap])
    cols = np.flatnonzero(np.append(t, False)[cmap])
    w = CutWitness(0.0, tuple(rows.tolist()), tuple(cols.tolist()))
    w.value = evaluate_witness(kern, w)
    return w


def kernel_cut_norm_exact(kern, cap=EXACT_CAP_DEFAULT, *, reduction=None):
    """Exact cut norm by subset enumeration on the reduced kernel.

    Enumerates the smaller side after reduction; the other side is optimal
    in closed form (take all columns whose induced sum shares the winning
    sign). Raises CapacityError when even the reduced instance exceeds the
    cap; use kernel_cut_norm_lower then. ``reduction`` is ``_reduce(kern)``
    when the caller has already computed it.
    """
    require_count("cap", cap)
    c, rmeas, cmeas, rmap, cmap = reduction or _reduce(kern)
    if c.size == 0:
        return CutWitness(0.0, (), ())
    transposed = c.shape[0] > c.shape[1]
    if transposed:
        c, rmeas, cmeas = c.T, cmeas, rmeas
    n_enum = c.shape[0]
    if n_enum > cap:
        raise CapacityError(
            f"reduced kernel has {n_enum} distinct nonzero rows/columns, "
            f"over the exact cap {cap}; use the heuristic lower bound"
        )
    weighted = c * rmeas[:, None] * cmeas[None, :]
    _, idx, side = _best_subset_enumeration(weighted, n_enum)
    s = (idx >> np.arange(n_enum)) & 1 == 1
    t = weighted[s].sum(axis=0) * side > 0
    if transposed:
        s, t = t, s
    return _witness(kern, rmap, cmap, s, t)


def kernel_cut_norm_lower(kern, restarts=32, seed=0, *, reduction=None):
    """Alternating-maximization lower bound; deterministic under the seed.

    Runs on ``_shrink(kern)``: the kernel's blocks without their zero rows
    and columns, in layout order. Each of the
    ``restarts + 2`` starts alternates the closed-form update on one side
    against the current other side until a fixed point or
    ``LOWER_MAX_ROUNDS``. All starts run as one batch: a round takes the
    column sums ``G`` of every start still moving in one product per block,
    picks each start's sign class and columns T, and gets its new rows from
    ``T @ weighted.T``, again block by block; a start whose rows do not
    change is frozen. A start cut off by the round cap keeps its last sign,
    with t recomputed from its final s. ``_best_start`` then picks, as a
    loop over the starts would, the first one with the largest exact block
    sum, after screening out the starts whose ``G``-based sum lies more than
    a rounding bound below the best. Sums within that bound count as 0 in
    every sign test (see the module docstring), so exact ties do not turn on
    the order of the sums. The returned value is the bilinear mass of an
    explicit witness, hence always a valid lower bound. ``reduction`` is
    ``_shrink(kern)`` when the caller has already computed it.
    """
    require_count("restarts", restarts)
    require_count("seed", seed)
    blocks, rmeas, cmeas, rmap, cmap = reduction or _shrink(kern)
    if not blocks:
        return CutWitness(0.0, (), ())
    weighted = [(rs, cs, a * rmeas[rs, None] * cmeas[None, cs]) for rs, cs, a in blocks]
    nr, nc = rmeas.size, cmeas.size
    rng = np.random.default_rng(seed)
    # rounding bound on every sum below (see _best_start): a sum within it
    # of 0 counts as 0, so exact ties in a residual are not left to rounding
    tol = 4 * (nr + nc) * np.finfo(float).eps * sum(np.abs(w).sum() for _, _, w in weighted)
    row_sums = np.zeros(nr)
    for rs, _, w in weighted:
        row_sums[rs] += w.sum(axis=1)
    starts = [np.ones(nr, dtype=bool), row_sums > tol]
    starts += [rng.random(nr) < 0.5 for _ in range(restarts)]
    S = np.array(starts)
    sign = np.ones((len(S), 1))
    active = np.arange(len(S))
    for _ in range(LOWER_MAX_ROUNDS):
        G = _block_product(S[active], weighted, nc)
        sg = np.where(
            np.maximum(G, 0.0).sum(axis=1) >= -np.minimum(G, 0.0).sum(axis=1) - tol, 1.0, -1.0
        )[:, None]
        sign[active] = sg
        S_new = _block_product(G * sg > tol, weighted, nr, True) * sg > tol
        moved = np.any(S_new != S[active], axis=1)
        S[active] = S_new
        active = active[moved]
        if not active.size:
            break
    # a start cut off by the round cap keeps its last sign, t follows its final s
    G = _block_product(S, weighted, nc)
    return _witness(kern, rmap, cmap, *_best_start(weighted, S, G * sign > tol, G, tol))


def _block_product(X, weighted, width, transpose=False):
    """``X @ weighted`` (or ``X @ weighted.T``) summed block by block."""
    out = np.zeros((len(X), width))
    for rs, cs, w in weighted:
        if transpose:
            rs, cs, w = cs, rs, w.T
        out[:, cs] += X[:, rs] @ w
    return out


def _best_start(weighted, S, T, G, tol):
    """Masks (s, t) of the first start whose block sum is largest in absolute value.

    Starts are visited in order and one replaces the best only with a
    strictly greater ``|weighted[np.ix_(s, t)].sum()|``, summed block by
    block; if none is above 0 the masks are empty. That exact sum is taken
    only for the starts that pass a screen, ``|sum of G[i] over T[i]|`` with
    ``G = S @ weighted``. The screen sums a dot product of at most nr terms
    and then at most nc terms; numpy's pairwise block sum has a summation
    depth under 7 * (nr + nc), and the blocks add one term each. Each is
    within (depth * eps / 2) * sum|weighted| of the true block sum, up to
    second order, so ``tol = 4 * (nr + nc) * eps * sum|weighted|`` bounds
    the gap between the two, and every start the exact sums could pick
    survives the screen.
    """
    nr, nc = S.shape[1], T.shape[1]
    screen = np.abs((G * T).sum(axis=1))
    best = (0.0, np.zeros(nr, dtype=bool), np.zeros(nc, dtype=bool))
    for i in np.flatnonzero(screen >= screen.max() - 2 * tol):
        s, t = S[i], T[i]
        val = 0.0
        if s.any() and t.any():
            val = abs(sum(float(w[np.ix_(s[rs], t[cs])].sum()) for rs, cs, w in weighted))
        if val > best[0]:
            best = (val, s, t)
    return best[1], best[2]


def kernel_cut_norm(kern, oracle="auto", cap=EXACT_CAP_DEFAULT, restarts=32, seed=0):
    """Dispatch to the exact or heuristic cut norm.

    Returns (witness, exact_flag), the witness carrying the reduced
    ``dims`` its oracle ran on. The kernel is shrunk once (``_shrink``).
    With oracle='auto', ``_hash_counts`` then counts distinct row and
    column hashes of the shrink, which never exceed the distinct rows and
    columns. If a count fits under the cap, ``_reduce`` merges the shrink,
    and the exact route is taken whenever the merge fits too. Otherwise,
    and whenever a hash collision undercounted, the heuristic runs on the
    shrink, as the standalone ``kernel_cut_norm_lower`` does.
    """
    require_count("cap", cap)
    require_count("restarts", restarts)
    require_count("seed", seed)
    if oracle not in ORACLES:
        raise ParameterError(f"unknown oracle {oracle!r}")
    shrink = _shrink(kern)
    if oracle == "exact" or (oracle == "auto" and min(_hash_counts(*shrink[:3])) <= cap):
        red = _reduce(kern, shrink)
        if oracle == "exact" or min(red[0].shape) <= cap:
            w = kernel_cut_norm_exact(kern, cap=cap, reduction=red)
            return dataclasses.replace(w, dims=red[0].shape), True
    w = kernel_cut_norm_lower(kern, restarts=restarts, seed=seed, reduction=shrink)
    return dataclasses.replace(w, dims=(shrink[1].size, shrink[2].size)), False


def difference_cut_norm(partition, diff, oracle, seed):
    """Cut norm of a difference of two kernels on ``partition``.

    ``diff`` lists the difference's (rows, cols, array) blocks, as a
    BlockKernel holds them; it vanishes elsewhere. Kernel entries lie in
    [-1, 1], so the difference lies in [-2, 2] and its half is a step
    kernel (the clip only removes the last-bit overshoot of averaged
    kernels). Halving and doubling are exact in floating point, so the
    doubled witness value is the mass of the difference on the witness
    sets. Returns (witness, exact) as ``kernel_cut_norm`` does, at its
    default cap and restarts. Consumes the arrays: they are halved and
    clipped in place and left read-only.
    """
    for _, _, a in diff:
        a /= 2.0
        np.clip(a, -1.0, 1.0, out=a)
    w, exact = kernel_cut_norm(BlockKernel(partition, tuple(diff)), oracle=oracle, seed=seed)
    return dataclasses.replace(w, value=w.value * 2.0), exact


def restrict_to_layer(signal, layers, ell):
    """Zero a signal on the layout's fine partition outside one layer region."""
    if signal.partition != layers.fine_partition():
        raise ParameterError(
            f"restriction needs the {layers.n}-part fine partition of the layout"
        )
    vals = np.zeros(layers.n)
    sl = layers.layer_slice(ell)
    vals[sl] = signal.values[sl]
    return StepSignal(signal.partition, vals)


def _hidden_permutation_index(layers, perms):
    """Index map over the layout's units from per-hidden-layer unit perms."""
    idx = np.arange(layers.n_units)
    for ell, perm in zip(range(1, layers.L), perms):
        if perm is None:
            continue
        sl = layers.unit_slice(ell)
        idx[sl] = sl.start + np.asarray(perm, dtype=int)
    return idx


@dataclass
class CompDistanceResult:
    """An upper bound on the layer-aligned cut distance between two kernels.

    The minimum runs over an explored set of per-hidden-layer part
    permutations, each a valid layer-preserving relabeling, so the value
    always upper-bounds the true infimum. ``exact`` records whether the
    inner cut norms were computed exactly. The witness sets index parts of
    the common refinement of the two kernels' unit quotients, the
    partition the kernels were compared on.
    """

    value: float
    permutations: tuple
    exact: bool
    mode: str
    witness: CutWitness = None


def comp_cut_distance_upper(ck, cj, mode="identity", oracle="auto", seed=0):
    """Cut norm of the difference, minimized over hidden-unit relabelings.

    Modes: 'identity' compares as laid out; 'exhaustive' tries every
    per-layer permutation of the hidden units (hidden width at most 8).
    Each argument is a network or a computational kernel; a network stands
    for its induced kernel, whose n x n array is never built. Both must
    share (L, d0, dL, B). Each is read as its ``unit_blocks``, which
    ignores anything outside the layered blocks, so a kernel must be
    layered (as ``induce_kernel`` makes them): one failing condition 2 or
    3 of ``validate_computational`` raises ValidationFailedError. A network
    is layered by construction and is not checked. The two quotients
    are measured on the common refinement of their unit cuts, integer
    ticks over lcm(n, n'); only the hidden layers' cuts can differ. Neither
    twin merging nor refinement changes a step kernel's cut norm. The
    difference is taken block by block and measured as a BlockKernel, so
    no n_units x n_units array is built unless the probe finds the exact
    route within reach and the shrink is merged. Only 'identity' accepts
    different hidden widths. The witness's ``dims`` are the merge's on the
    exact route and the shrink's on the heuristic one.
    """
    require_count("seed", seed)
    a, b = ck.layers, cj.layers
    if (a.L, a.d0, a.dL) != (b.L, b.d0, b.dL):
        raise ParameterError(
            f"kernels disagree on (L, d0, dL): {(a.L, a.d0, a.dL)} vs {(b.L, b.d0, b.dL)}"
        )
    if abs(ck.B - cj.B) > 1e-12:
        raise ParameterError(f"kernels disagree on B: {ck.B} vs {cj.B}")
    if mode not in ("identity", "exhaustive"):
        raise ParameterError(f"unknown mode {mode!r}")
    quotients = []
    for which, k in (("first", ck), ("second", cj)):
        try:
            quotients.append(unit_blocks(k))
        except ValidationFailedError as exc:
            raise ValidationFailedError(f"{which} {exc}") from None
    if a.d != b.d and mode != "identity":
        raise ParameterError(f"mode {mode!r} needs equal hidden dims, got {a.d} vs {b.d}")
    candidates = [(None,) * (a.L - 1)]
    if mode == "exhaustive":
        if a.d > 8:
            raise CapacityError(
                f"exhaustive permutation search needs hidden dim <= 8, got {a.d}"
            )
        total = math.factorial(a.d) ** (a.L - 1)
        if total > PERM_CAP_DEFAULT:
            raise CapacityError(
                f"{total} permutation combinations exceed the cap {PERM_CAP_DEFAULT}"
            )
        layer_perms = list(itertools.permutations(range(a.d)))
        candidates = itertools.product(layer_perms, repeat=a.L - 1)
    N = math.lcm(a.n, b.n)
    ta = np.cumsum(np.r_[0, a.unit_parts()]) * (N // a.n)
    tb = np.cumsum(np.r_[0, b.unit_parts()]) * (N // b.n)
    cuts = np.union1d(ta, tb)
    refined = Partition(np.diff(cuts) / N)
    ri = np.searchsorted(ta, cuts[:-1], side="right") - 1
    rj = np.searchsorted(tb, cuts[:-1], side="right") - 1
    qc, qj = _on_refinement(quotients[0], ri, ri), quotients[1]
    best, best_perms, ex_all = None, None, True
    for perms in candidates:
        idx = _hidden_permutation_index(b, perms)[rj]
        diff = [
            (rs, cs, np.subtract(x, y, out=y))
            for (rs, cs, x), (_, _, y) in zip(qc, _on_refinement(qj, rj, idx))
        ]
        w, is_exact = difference_cut_norm(refined, diff, oracle, seed)
        ex_all = ex_all and is_exact
        if best is None or w.value < best.value:
            best, best_perms = w, perms
    return CompDistanceResult(best.value, best_perms, ex_all, mode, best)


def _on_refinement(q, units, read):
    """The blocks of a unit quotient ``q`` on the refined parts, as new arrays.

    ``units[i]`` is refined part i's unit, nondecreasing, and ``read[i]`` the
    unit whose row and column it takes: ``units`` itself, or a relabeling of
    it within each hidden layer. Every region keeps its own range of parts.
    """
    out = []
    for rs, cs, a in q.blocks:
        r, c = (slice(*map(int, np.searchsorted(units, (s.start, s.stop)))) for s in (rs, cs))
        out.append((r, c, a[np.ix_(read[r] - rs.start, read[c] - cs.start)]))
    return out
