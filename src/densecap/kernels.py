"""Step kernels and the layered kernels/graphs that encode dense networks.

A network with depth L and hidden width d is encoded on the unit interval
split into L+2 regions of measure 1/(L+2), layers 0..L and a bias region,
each cut into d equal parts: n = (L+2)*d. Region k holds its layer's units
in order, each on d/width_k consecutive parts (d0 input, d hidden and dL
output units; the bias region is one unit). Only the blocks
``LayerStructure.blocks()`` lists may be nonzero, each constant on every
(unit, unit) pair: weights/B from layer k-1 to layer k, biases/B in the
bias column, and (L+2)/B on the bias diagonal block so a unit bias signal
is preserved by message passing. The layout is ``networks``' LayerStructure,
which a network and a computational kernel both hold as ``.layers``.

Inducing a kernel or graph fills one d x d array per entry of
``blocks()`` on the fine parts, and message passing multiplies by those
blocks alone, so the three-path check never builds the n x n array. Files,
validation, extraction and lifting read the n x n array ``.dense()`` gives.

The parts of one unit are twins, with equal rows and columns, so
``unit_blocks`` merges them: the same kernel on (L-1)*d + d0 + dL + 1
unequal parts, held as a BlockKernel of one array per entry of
``blocks()``, which the kernel distance and weak regularity work on. It
reads those blocks off an induced kernel, or straight off a network's
weights without building the n x n kernel.
"""

import io
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidNetworkError,
    ParameterError,
    ValidationFailedError,
)
from .networks import DenseNetwork, LayerStructure, _fmt, _LineReader, check_bound
from .partitions import Partition

VALIDATION_ATOL = 1e-12  # absolute tolerance of every validation condition
MAX_INDUCED_ENTRIES = 1 << 28  # cap on the entries of induced blocks or a dense array (2 GiB)


def _checked_blocks(n, blocks, bound, what):
    """Disjoint (rows, cols, array) blocks of an n x n array, |entry| <= bound.

    Returns them read-only in row-major order of their corners, empty ones
    dropped. ``what`` names the entries and their bound in the error.
    """
    out = []
    for rows, cols, a in blocks:
        for s in (rows, cols):
            ok = isinstance(s, slice) and s.step in (None, 1)
            if not (ok and all(isinstance(b, (int, np.integer)) for b in (s.start, s.stop))
                    and 0 <= s.start <= s.stop <= n):
                raise ParameterError(f"block bounds {s} are not a slice of 0..{n}")
        a = np.ascontiguousarray(a, dtype=float)
        a.setflags(write=False)
        want = (len(range(n)[rows]), len(range(n)[cols]))
        if a.shape != want:
            raise DimensionMismatchError(f"block {rows} x {cols}", want, a.shape)
        top = max(a.max(initial=0.0), -a.min(initial=0.0))  # no |a| copy
        if not top <= bound + 1e-9:  # also refuses NaN
            raise ParameterError(f"{what[0]} magnitude {top} exceeds {what[1]}")
        if a.size:
            out.append((rows, cols, a))
    out.sort(key=lambda b: (b[0].start, b[1].start))
    for (r, c, _), (r2, c2, _) in itertools.combinations(out, 2):
        if r2.start < r.stop and r.start < r2.stop and c2.start < c.stop and c.start < c2.stop:
            raise ParameterError(f"blocks {r} x {c} and {r2} x {c2} overlap")
    return tuple(out)


def _dense(n, blocks):
    """The n x n array the blocks fill, zero elsewhere; refused over the entry cap."""
    if n * n > MAX_INDUCED_ENTRIES:
        raise CapacityError(f"dense {n} x {n} array exceeds {MAX_INDUCED_ENTRIES} entries")
    c = np.zeros((n, n))
    for rows, cols, a in blocks:
        c[rows, cols] = a
    return c


@dataclass(frozen=True)
class BlockKernel:
    """A step kernel that vanishes outside a few blocks of consecutive parts.

    ``blocks`` holds disjoint (rows, cols, array) triples, rows and cols
    slices of the parts with explicit bounds; every entry outside them is 0.
    They are kept in row-major order of their corners, which sets the order
    in which a part's row or column is summed across blocks. A StepKernel is
    the one-block case; an induced kernel has one block per entry of
    ``LayerStructure.blocks()`` on its fine parts, and its unit quotient one
    per entry on its units (``unit_blocks``).
    """

    partition: Partition
    blocks: tuple

    def __post_init__(self):
        blocks = _checked_blocks(self.n, self.blocks, 1.0, ("coefficient", 1))
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return self.partition.size

    def dense(self):
        """The same kernel as a StepKernel on its n x n array: itself if it is one."""
        if isinstance(self, StepKernel):
            return self
        return StepKernel(self.partition, _dense(self.n, self.blocks))


class StepKernel(BlockKernel):
    """The BlockKernel whose one block is the whole n x n array ``coeffs``."""

    def __init__(self, partition, coeffs):
        whole = slice(0, partition.size)
        super().__init__(partition, ((whole, whole, coeffs),))

    @property
    def coeffs(self):
        return self.blocks[0][2]


def _array(kernel):
    """The n x n array of ``kernel.dense()``, without wrapping it in a StepKernel."""
    return kernel.coeffs if isinstance(kernel, StepKernel) else _dense(kernel.n, kernel.blocks)


@dataclass(frozen=True)
class StepSignal:
    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (self.partition.size,):
            raise DimensionMismatchError(
                "signal values", (self.partition.size,), v.shape
            )


@dataclass(frozen=True)
class ComputationalKernel:
    kernel: BlockKernel
    layers: LayerStructure
    B: float

    def __post_init__(self):
        check_bound(self.B, self.layers.L)
        if self.kernel.partition != self.layers.fine_partition():  # another size too
            raise ParameterError(f"kernel partition is not the layout's {self.n} equal parts")

    @property
    def n(self):
        return self.layers.n

    @property
    def d(self):
        return self.layers.d


@dataclass(frozen=True)
class ComputationalGraph:
    """Weighted-graph form: same layout and blocks, weights unscaled, bias block L+2.

    ``blocks`` are (rows, cols, array) triples as in a BlockKernel, with
    edge weights of magnitude at most B; ``dense()`` is the n x n adjacency.
    """

    blocks: tuple
    layers: LayerStructure
    B: float

    def __post_init__(self):
        blocks = _checked_blocks(self.n, self.blocks, self.B, ("edge weight", f"B={self.B}"))
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return self.layers.n

    def dense(self):
        return _dense(self.n, self.blocks)


def _fill_blocks(net, divisor):
    """Blocks of induced kernels (divisor=B) and graphs (1), one per ``blocks()`` entry.

    Each is a d x d array on the fine parts, constant on every (unit, unit)
    pair. Refuses blocks of more than MAX_INDUCED_ENTRIES entries in total.
    """
    ls = net.layers
    pairs, d = ls.blocks(), ls.d
    if len(pairs) * d * d > MAX_INDUCED_ENTRIES:
        raise CapacityError(
            f"induced {ls.n} x {ls.n} array exceeds {MAX_INDUCED_ENTRIES} entries "
            f"even as its {len(pairs)} blocks of {d} x {d}"
        )
    params = [p for wb in zip(net.weights, net.biases) for p in wb] + [net.L + 2.0]
    out = []
    for (rows, cols), p in zip(pairs, params):
        r, c = ls.width(rows), ls.width(cols)
        # reshape copies the broadcast, but for a view of p / divisor where
        # each unit is one part (hidden to hidden)
        a = np.broadcast_to(np.reshape(p / divisor, (r, 1, c, 1)), (r, d // r, c, d // c))
        out.append((ls.layer_slice(rows), ls.layer_slice(cols), a.reshape(d, d)))
    return ls, tuple(out)


def induce_kernel(net):
    """Computational kernel of a network: weights/B on the layered blocks."""
    ls, blocks = _fill_blocks(net, float(net.B))
    return ComputationalKernel(BlockKernel(ls.fine_partition(), blocks), ls, float(net.B))


def induce_graph(net):
    """Weighted-graph encoding of a network (raw weights, bias block L+2)."""
    ls, blocks = _fill_blocks(net, 1.0)
    return ComputationalGraph(blocks, ls, float(net.B))


def unit_blocks(obj):
    """A layered kernel on its units, held as its ``blocks()``: a BlockKernel.

    The parts of a unit are twins, with equal rows and equal columns, so
    merging them changes no cut norm and no projection onto groups of
    units (Lovasz, Large Networks and Graph Limits, 2012). Part i of the
    quotient is unit i in layout order, of measure ``unit_parts()[i] / n``.
    ``obj`` is a network or a computational kernel. A network's blocks are
    its parameters over B, the values ``induce_kernel`` spreads over the
    parts, so ``unit_blocks(net)`` equals ``unit_blocks(induce_kernel(net))``
    bitwise and never builds the n x n kernel. A kernel's blocks are copied
    off ``units(c, rows, cols)[:, 0, :, 0]``, so none holds on to ``c``. It
    must be layered (conditions 2 and 3 of ``validate_computational``), since
    variation inside a unit and entries outside ``blocks()`` are not read:
    one failing condition raises ValidationFailedError.
    """
    ls = obj.layers
    if isinstance(obj, DenseNetwork):
        B = float(obj.B)
        params = [p for wb in zip(obj.weights, obj.biases) for p in wb] + [obj.L + 2.0]
        blocks = [
            np.reshape(p / B, (ls.width(rows), ls.width(cols)))
            for (rows, cols), p in zip(ls.blocks(), params)
        ]
    else:
        c = _array(obj.kernel)
        if failure := _layered_conditions(ls, c).first_failure():
            raise ValidationFailedError(f"kernel is not layered: {failure}")
        blocks = [ls.units(c, rows, cols)[:, 0, :, 0].copy() for rows, cols in ls.blocks()]
    return BlockKernel(Partition(ls.unit_parts() / ls.n), tuple(
        (ls.unit_slice(rows), ls.unit_slice(cols), block)
        for (rows, cols), block in zip(ls.blocks(), blocks)
    ))



def induce_input_signal(x, layers):
    """Step signal carrying x on the input units, 1 on the bias, 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layers.d0,):
        raise DimensionMismatchError("input vector", (layers.d0,), x.shape)
    vals = np.zeros(layers.n)
    vals[layers.layer_slice(0)] = np.repeat(x, layers.d // layers.d0)
    vals[layers.bias_slice] = 1.0
    return StepSignal(layers.fine_partition(), vals)


def graph_features(x, layers):
    """Node-feature version of the induced input signal."""
    return induce_input_signal(x, layers).values


@dataclass
class ConditionCheck:
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    conditions: dict

    @property
    def ok(self):
        return all(c.passed for c in self.conditions.values())

    def first_failure(self):
        for name, c in self.conditions.items():
            if not c.passed:
                return f"{name}: {c.detail}"
        return None

    def __str__(self):
        lines = []
        for name, c in self.conditions.items():
            mark = "pass" if c.passed else f"FAIL ({c.detail})"
            lines.append(f"condition {name}: {mark}")
        return "\n".join(lines)


def _layered_conditions(ls, c):
    """Conditions 2 and 3 of ``validate_computational``, one block at a time.

    The region pairs are visited in row-major order, which is the order of
    ``blocks()``. A pair in ``blocks()`` must be constant along the parts of
    each unit (condition 2, reported for the first block that varies); any
    other pair must vanish, since that makes the kernel realizable by a
    network (condition 3, reported at the largest entry off the blocks, the
    first in row-major order on ties). Returns them as a report.
    """
    allowed = ls.blocks()
    regions = list(range(ls.L + 1)) + ["bias"]
    constancy, worst = ConditionCheck(True), (0.0, 0, 0)  # (|c[i, j]|, -i, -j)
    for rows, cols in itertools.product(regions, regions):
        if (rows, cols) not in allowed:
            rs, cs = ls.layer_slice(rows), ls.layer_slice(cols)
            if not c[rs, cs].any():  # exactly zero, the usual case
                continue
            off = np.abs(c[rs, cs])
            i, j = divmod(int(np.argmax(off)), ls.d)
            worst = max(worst, (float(off[i, j]), -(rs.start + i), -(cs.start + j)))
        elif constancy.passed:
            u = ls.units(c, rows, cols)
            if (u == u[:, :1, :, :1]).all():  # exactly constant, the usual case
                continue
            dev = max(np.abs(u - u[:, :1]).max(), np.abs(u - u[..., :1]).max())
            if dev > VALIDATION_ATOL:
                constancy = ConditionCheck(
                    False, f"block {rows} x {cols} varies within a unit by {dev:.3g}"
                )
    v, i, j = worst[0], -worst[1], -worst[2]
    detail = f"rows {ls.region_of(i)} x cols {ls.region_of(j)} (entry {i},{j}) = {c[i, j]:.3g}"
    ok = v <= VALIDATION_ATOL
    zeros = ConditionCheck(ok, "" if ok else f"{detail}, expected 0")
    return ValidationReport({"2 (cell constancy)": constancy, "3 (zero pattern)": zeros})


def validate_computational(ck):
    """Diagnostics for the four structural conditions.

    Never raises on a kernel whose n x n array fits MAX_INDUCED_ENTRIES;
    beyond that, reading the array raises CapacityError before allocating.
    """
    ls, B = ck.layers, ck.B
    c = _array(ck.kernel)  # one n x n array for all four

    # condition 1: the types fix n = (L+2)*d, d0 and dL dividing d, and the equipartition
    out = {"1 (size and equipartition)": ConditionCheck(True)}
    out.update(_layered_conditions(ls, c).conditions)

    # condition 4: bias diagonal block pinned to (L+2)/B
    want = (ls.L + 2) / B
    blk = c[ls.bias_slice, ls.bias_slice]
    dev = np.abs(blk - want).max(initial=0.0)
    ok = dev <= VALIDATION_ATOL
    out["4 (bias block)"] = ConditionCheck(
        ok, "" if ok else f"bias block deviates from (L+2)/B={want!r} by {dev:.3g}"
    )
    return ValidationReport(out)


def extract_network(ck):
    """Read the inducing network back off a valid computational kernel."""
    ck = replace(ck, kernel=ck.kernel.dense())  # one n x n array, validated and read
    report = validate_computational(ck)
    if not report.ok:
        raise ValidationFailedError(
            f"kernel failed validation: {report.first_failure()}"
        )
    ls, c, B = ck.layers, ck.kernel.coeffs, ck.B
    params = [B * ls.units(c, *block)[:, 0, :, 0] for block in ls.blocks()[:-1]]
    weights, biases = params[0::2], [b[:, 0] for b in params[1::2]]
    try:
        return DenseNetwork(ls.L, ls.d0, ls.dL, ls.d, float(B), weights, biases)
    except InvalidNetworkError as exc:
        raise ValidationFailedError(f"extracted parameters invalid: {exc}") from None


def lift_computational(ck, factor):
    """Same kernel function on a partition refined by an integer factor."""
    if factor < 1 or int(factor) != factor:
        raise ParameterError(f"lift factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return ck
    ls = replace(ck.layers, d=ck.layers.d * factor)
    c = np.repeat(np.repeat(_array(ck.kernel), factor, axis=0), factor, axis=1)
    return ComputationalKernel(StepKernel(ls.fine_partition(), c), ls, ck.B)


MAGIC_KERNEL = "densecap-kernel v1"


def serialize_kernel(ck):
    out = io.StringIO()
    out.write(MAGIC_KERNEL + "\n")
    ls = ck.layers
    out.write(f"{ck.n} {ls.L} {ls.d0} {ls.dL} {ck.B!r}\n")
    for row in _array(ck.kernel):
        out.write(_fmt(row) + "\n")
    return out.getvalue()


def deserialize_kernel(text):
    """Parse a kernel file, checking its header before reading any row.

    The rows fill a preallocated (n x n) array one line at a time, so the
    peak memory stays near the array's size on top of the text.
    """
    reader = _LineReader(text, MAGIC_KERNEL)
    n, L, d0, dL, B = reader.dims("n L d0 dL")
    if L < 2:
        raise reader.error(f"depth L={L} must be at least 2")
    if n % (L + 2):
        raise reader.error(f"size {n} not divisible by L+2={L + 2}")
    ls = LayerStructure(L, d0, dL, n // (L + 2))
    coeffs = reader.rows(n, n, "")
    return ComputationalKernel(StepKernel(ls.fine_partition(), coeffs), ls, B)


def save_kernel(ck, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_kernel(ck))


def load_kernel(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize_kernel(fh.read())
