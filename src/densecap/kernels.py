"""Step kernels and the layered kernels/graphs that encode dense networks.

A network with depth L and hidden width d is encoded on the unit interval
split into L+2 regions of measure 1/(L+2): layers 0..L followed by a bias
region. Each region is cut into d equal cells, so the full fine partition
has n = (L+2)*d intervals. Layer 0 is additionally grouped into d0 input
cells and layer L into dL output cells; weights live on blocks between
consecutive layers (scaled by 1/B), biases in the bias column, and the
bias diagonal block holds (L+2)/B so a unit bias signal is preserved by
message passing.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBoundError,
    InvalidNetworkError,
    ParameterError,
    ParseError,
    ValidationFailedError,
)
from .networks import DenseNetwork, _numbers
from .partitions import Partition, equipartition


@dataclass(frozen=True)
class LayerStructure:
    """Index bookkeeping for the layered layout on n = (L+2)*d intervals."""

    L: int
    d0: int
    dL: int
    d: int

    def __post_init__(self):
        if self.L < 2 or min(self.d0, self.dL, self.d) < 1:
            raise ParameterError("need L >= 2 and positive dimensions")
        if self.d % self.d0 or self.d % self.dL:
            raise ParameterError(
                f"hidden dim {self.d} not divisible by d0={self.d0} and dL={self.dL}"
            )

    @property
    def n(self):
        return (self.L + 2) * self.d

    @property
    def M(self):
        return math.lcm(self.d0, self.dL)

    def layer_slice(self, ell):
        """Fine-interval range of layer ell (0..L); ell='bias' for the bias."""
        k = self.L + 1 if ell == "bias" else ell
        return slice(k * self.d, (k + 1) * self.d)

    @property
    def bias_slice(self):
        return self.layer_slice("bias")

    def in_cell_slice(self, j):
        w = self.d // self.d0
        return slice(j * w, (j + 1) * w)

    def out_cell_slice(self, i):
        w = self.d // self.dL
        base = self.L * self.d
        return slice(base + i * w, base + (i + 1) * w)

    def fine_partition(self):
        return equipartition(self.n)

    def structural_labels(self):
        """Per fine interval: input cell / hidden layer / output cell / bias.

        This is the coarsest structure a compressed kernel must respect:
        d0 + (L-1) + dL + 1 groups, numbered in layout order.
        """
        d, d0, L = self.d, self.d0, self.L
        cells = np.arange(d)
        return np.concatenate([
            cells // (d // d0),
            np.repeat(np.arange(d0, d0 + L - 1), d),
            d0 + L - 1 + cells // (d // self.dL),
            np.full(d, d0 + L - 1 + self.dL),
        ]).astype(np.int64)

    def region_of(self, idx):
        ell = idx // self.d
        return ("bias",) if ell == self.L + 1 else ("layer", ell)


@dataclass(frozen=True)
class StepKernel:
    """Kernel constant on blocks of a partition; rows and columns share it."""

    partition: Partition
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        n = self.partition.size
        if c.shape != (n, n):
            raise DimensionMismatchError("kernel coefficients", (n, n), c.shape)
        top = max(c.max(initial=0.0), -c.min(initial=0.0))  # no |c| copy
        if not top <= 1.0 + 1e-9:  # also refuses NaN
            raise ParameterError(f"coefficient magnitude {top} exceeds 1")

    @property
    def n(self):
        return self.partition.size


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
    kernel: StepKernel
    layers: LayerStructure
    B: float

    def __post_init__(self):
        if not self.B >= self.layers.L + 2:  # also refuses NaN
            raise InvalidBoundError(
                f"B={self.B} below L+2={self.layers.L + 2}: the bias block "
                "(L+2)/B would exceed 1"
            )
        if self.kernel.n != self.layers.n:
            raise DimensionMismatchError(
                "kernel size", self.layers.n, self.kernel.n
            )

    @property
    def n(self):
        return self.layers.n

    @property
    def d(self):
        return self.layers.d


@dataclass(frozen=True)
class ComputationalGraph:
    """Weighted-graph form: same layout, weights unscaled, bias block L+2."""

    adjacency: np.ndarray
    layers: LayerStructure
    B: float

    def __post_init__(self):
        a = np.ascontiguousarray(self.adjacency, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        n = self.layers.n
        if a.shape != (n, n):
            raise DimensionMismatchError("adjacency", (n, n), a.shape)
        if np.max(np.abs(a), initial=0.0) > self.B + 1e-9:
            raise ParameterError(
                f"edge weight magnitude {np.max(np.abs(a))} exceeds B={self.B}"
            )

    @property
    def n(self):
        return self.layers.n


def _fill_blocks(net, divisor):
    """Common block layout for induced kernels (divisor=B) and graphs (1)."""
    ls = LayerStructure(net.L, net.d0, net.dL, net.d)
    n = ls.n
    a = np.zeros((n, n))
    w1 = net.weights[0] / divisor
    for j in range(net.d0):
        cols = ls.in_cell_slice(j)
        a[ls.layer_slice(1), cols] = w1[:, j : j + 1]
    for ell in range(2, net.L):
        a[ls.layer_slice(ell), ls.layer_slice(ell - 1)] = net.weights[ell - 1] / divisor
    wl = net.weights[net.L - 1] / divisor
    for i in range(net.dL):
        a[ls.out_cell_slice(i), ls.layer_slice(net.L - 1)] = wl[i : i + 1, :]
    bias = ls.bias_slice
    for ell in range(1, net.L):
        a[ls.layer_slice(ell), bias] = (net.biases[ell - 1] / divisor)[:, None]
    bl = net.biases[net.L - 1] / divisor
    for i in range(net.dL):
        a[ls.out_cell_slice(i), bias] = bl[i]
    a[bias, bias] = (net.L + 2) / divisor
    return ls, a


def induce_kernel(net):
    """Computational kernel of a network: weights/B on the layered blocks."""
    if not net.B >= net.L + 2:  # also refuses NaN
        raise InvalidBoundError(
            f"B={net.B} below L+2={net.L + 2}: bias block would exceed 1"
        )
    ls, coeffs = _fill_blocks(net, float(net.B))
    return ComputationalKernel(
        StepKernel(ls.fine_partition(), coeffs), ls, float(net.B)
    )


def induce_graph(net):
    """Weighted-graph encoding of a network (raw weights, bias block L+2)."""
    ls, adj = _fill_blocks(net, 1.0)
    return ComputationalGraph(adj, ls, float(net.B))


def induce_input_signal(x, layers):
    """Step signal carrying x on the input cells, 1 on the bias, 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layers.d0,):
        raise DimensionMismatchError("input vector", (layers.d0,), x.shape)
    vals = np.zeros(layers.n)
    for j in range(layers.d0):
        vals[layers.in_cell_slice(j)] = x[j]
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


def _allowed_support(ls):
    """Boolean mask of blocks that may be nonzero.

    Nonzero entries are allowed only from each layer to its successor, in
    the bias column for rows of layers 1..L, and on the bias diagonal
    block. Everything else (including columns under the output layer and
    all rows of layer 0) must vanish; this is what makes every such kernel
    realizable by a network.
    """
    n = ls.n
    mask = np.zeros((n, n), dtype=bool)
    for ell in range(ls.L):
        mask[ls.layer_slice(ell + 1), ls.layer_slice(ell)] = True
    bias = ls.bias_slice
    for ell in range(1, ls.L + 1):
        mask[ls.layer_slice(ell), bias] = True
    mask[bias, bias] = True
    return mask


def _block_name(ls, i, j):
    return f"rows {ls.region_of(i)} x cols {ls.region_of(j)} (entry {i},{j})"


def validate_computational(ck, atol=1e-12):
    """Diagnostics for the four structural conditions; never raises."""
    ls, B, kernel = ck.layers, ck.B, ck.kernel
    c = kernel.coeffs
    out = {}

    # condition 1: equipartition of the right, divisible size
    n_ok = kernel.n == ls.n and ls.d % ls.M == 0
    eq_ok = np.allclose(
        kernel.partition.measures, 1.0 / ls.n, rtol=0, atol=1e-12
    )
    detail = ""
    if not n_ok:
        detail = f"size {kernel.n} not equal to (L+2)*d={ls.n} with d divisible by M={ls.M}"
    elif not eq_ok:
        detail = "partition is not the equipartition"
    out["1 (size and equipartition)"] = ConditionCheck(n_ok and eq_ok, detail)
    if not (n_ok and eq_ok):
        out["2 (cell constancy)"] = ConditionCheck(False, "skipped: bad partition")
        out["3 (zero pattern)"] = ConditionCheck(False, "skipped: bad partition")
        out["4 (bias block)"] = ConditionCheck(False, "skipped: bad partition")
        return ValidationReport(out)

    # condition 2: constancy along input-cell columns, output-cell rows,
    # and bias columns
    ok, detail = True, ""
    for j in range(ls.d0):
        cols = c[:, ls.in_cell_slice(j)]
        dev = np.abs(cols - cols[:, :1]).max(initial=0.0)
        if dev > atol:
            ok, detail = False, f"input cell {j} columns vary by {dev:.3g}"
            break
    if ok:
        for i in range(ls.dL):
            rows = c[ls.out_cell_slice(i), :]
            dev = np.abs(rows - rows[:1, :]).max(initial=0.0)
            if dev > atol:
                ok, detail = False, f"output cell {i} rows vary by {dev:.3g}"
                break
    if ok:
        bias = c[:, ls.bias_slice]
        dev = np.abs(bias - bias[:, :1]).max(initial=0.0)
        if dev > atol:
            ok, detail = False, f"bias columns vary by {dev:.3g}"
    out["2 (cell constancy)"] = ConditionCheck(ok, detail)

    # condition 3: zero outside the allowed support
    mask = _allowed_support(ls)
    off = np.abs(np.where(mask, 0.0, c))
    worst = off.max(initial=0.0)
    if worst > atol:
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        out["3 (zero pattern)"] = ConditionCheck(
            False, f"{_block_name(ls, i, j)} = {c[i, j]:.3g}, expected 0"
        )
    else:
        out["3 (zero pattern)"] = ConditionCheck(True)

    # condition 4: bias diagonal block pinned to (L+2)/B
    want = (ls.L + 2) / B
    blk = c[ls.bias_slice, ls.bias_slice]
    dev = np.abs(blk - want).max(initial=0.0)
    out["4 (bias block)"] = ConditionCheck(
        dev <= atol,
        "" if dev <= atol else f"bias block deviates from (L+2)/B={want!r} by {dev:.3g}",
    )
    return ValidationReport(out)


def extract_network(ck):
    """Read the inducing network back off a valid computational kernel."""
    report = validate_computational(ck)
    if not report.ok:
        raise ValidationFailedError(
            f"kernel failed validation: {report.first_failure()}"
        )
    ls, c, B = ck.layers, ck.kernel.coeffs, ck.B
    weights, biases = [], []
    w1 = np.empty((ls.d, ls.d0))
    for j in range(ls.d0):
        w1[:, j] = B * c[ls.layer_slice(1), ls.in_cell_slice(j).start]
    weights.append(w1)
    for ell in range(2, ls.L):
        weights.append(B * c[ls.layer_slice(ell), ls.layer_slice(ell - 1)])
    wl = np.empty((ls.dL, ls.d))
    for i in range(ls.dL):
        wl[i, :] = B * c[ls.out_cell_slice(i).start, ls.layer_slice(ls.L - 1)]
    weights.append(wl)
    bias_col = ls.bias_slice.start
    for ell in range(1, ls.L):
        biases.append(B * c[ls.layer_slice(ell), bias_col])
    bl = np.empty(ls.dL)
    for i in range(ls.dL):
        bl[i] = B * c[ls.out_cell_slice(i).start, bias_col]
    biases.append(bl)
    try:
        return DenseNetwork(
            ls.L, ls.d0, ls.dL, ls.d, float(B), tuple(weights), tuple(biases)
        )
    except InvalidNetworkError as exc:
        raise ValidationFailedError(f"extracted parameters invalid: {exc}") from None


def lift_computational(ck, factor):
    """Same kernel function on a partition refined by an integer factor."""
    if factor < 1 or int(factor) != factor:
        raise ParameterError(f"lift factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return ck
    ls = LayerStructure(ck.layers.L, ck.layers.d0, ck.layers.dL, ck.layers.d * factor)
    c = np.repeat(np.repeat(ck.kernel.coeffs, factor, axis=0), factor, axis=1)
    return ComputationalKernel(StepKernel(ls.fine_partition(), c), ls, ck.B)


MAGIC_KERNEL = "densecap-kernel v1"


def serialize_kernel(ck):
    out = io.StringIO()
    out.write(MAGIC_KERNEL + "\n")
    ls = ck.layers
    out.write(f"{ck.n} {ls.L} {ls.d0} {ls.dL} {ck.B!r}\n")
    for row in ck.kernel.coeffs:
        out.write(" ".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def _lines(text):
    """The newline-separated lines of ``text``, one at a time."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def deserialize_kernel(text):
    """Parse a kernel file, checking its header before reading any row.

    The rows fill a preallocated (n x n) array one line at a time, so the
    peak memory stays near the array's size on top of the text.
    """
    lines = _lines(text)
    if next(lines, "").strip() != MAGIC_KERNEL:
        raise ParseError(f"bad header, expected {MAGIC_KERNEL!r}", line=1)
    head = next(lines, None)
    if head is None:
        raise ParseError("truncated record: missing dimensions line", line=2)
    head = head.split()
    if len(head) != 5:
        raise ParseError("dimensions line needs 'n L d0 dL B'", line=2)
    n, L, d0, dL = _numbers(head[:4], int, 2, "dimensions 'n L d0 dL'")
    (B,) = _numbers(head[4:], float, 2, "bound B")
    if L < 2:
        raise ParseError(f"depth L={L} must be at least 2", line=2)
    if n % (L + 2):
        raise ParseError(f"size {n} not divisible by L+2={L + 2}", line=2)
    ls = LayerStructure(L, d0, dL, n // (L + 2))
    found = text.count("\n") + (not text.endswith("\n")) - 2
    if found < n:
        raise ParseError(
            f"truncated record: expected {n} coefficient rows, found {found}",
            line=found + 3,
        )
    # n rows of n numbers take at least 2n^2 - 1 characters; a shorter text
    # has a short row, so it fills one scratch row until that row raises
    coeffs = np.empty((n if len(text) >= 2 * n * n - 1 else 1, n))
    for r in range(n):
        vals = next(lines).split()
        if len(vals) != n:
            raise ParseError(f"row {r} has {len(vals)} entries, expected {n}", line=3 + r)
        coeffs[r % len(coeffs)] = _numbers(vals, float, 3 + r, f"row {r}")
    return ComputationalKernel(StepKernel(ls.fine_partition(), coeffs), ls, B)


def save_kernel(ck, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_kernel(ck))


def load_kernel(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize_kernel(fh.read())
