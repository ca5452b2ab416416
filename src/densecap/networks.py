"""Fixed-width dense ReLU networks with a depth-normalized forward pass.

The forward rule divides every layer's pre-activation by d_prev*(L+2) and
puts the bias inside the sum over input channels, so a bias contributes
b/(L+2) to the pre-activation (not b as in a conventional MLP). With all
parameters bounded by B, no small set of channels can dominate the output:
nontrivial computation has to be collective.

A network's shape is ``layers``, a ``LayerStructure`` that also lays out
its kernel (``kernels``). Building one is the only check of depth, widths
and divisibility, as ``check_bound`` is of B; a file's header and
``random_network`` build one before any array is read or drawn.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBoundError,
    InvalidNetworkError,
    ParseError,
)
from .partitions import equipartition
from .threads import cores, spread

# rows per chunk of a batched forward pass; a fixed grid keeps the output
# products' rounding independent of how the chunks are spread over threads
FORWARD_CHUNK = 512


@dataclass(frozen=True)
class LayerStructure:
    """Index bookkeeping for the layered layout on n = (L+2)*d intervals."""

    L: int
    d0: int
    dL: int
    d: int

    def __post_init__(self):
        if self.L < 2:
            raise InvalidNetworkError(f"depth must be >= 2, got {self.L}")
        if min(self.d0, self.dL, self.d) < 1:
            raise InvalidNetworkError("dimensions must be positive")
        if self.d % self.d0 or self.d % self.dL:
            raise InvalidNetworkError(
                f"hidden width {self.d} not divisible by d0={self.d0}, dL={self.dL}"
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

    @property
    def n_units(self):
        """Units in the layout, (L-1)*d + d0 + dL + 1: the unit quotient's size."""
        return (self.L - 1) * self.d + self.d0 + self.dL + 1

    def unit_slice(self, ell):
        """Range of region ell's units (0..L, or 'bias') in layout order."""
        k = self.L + 1 if ell == "bias" else ell
        start = sum(map(self.width, range(k)))
        return slice(start, start + self.width(ell))

    def unit_parts(self):
        """Parts per unit in layout order: d // width(k) for a unit of region k."""
        regions = list(range(self.L + 1)) + ["bias"]
        return np.concatenate(
            [np.full(self.width(k), self.d // self.width(k)) for k in regions]
        )

    def region_of(self, idx):
        ell = idx // self.d
        return ("bias",) if ell == self.L + 1 else ("layer", ell)

    def width(self, k):
        """Number of units in region k (0..L, or 'bias')."""
        return {0: self.d0, self.L: self.dL, "bias": 1}.get(k, self.d)

    def units(self, a, rows, cols):
        """Block (rows, cols) of an n x n array as a (units, parts, units, parts) view.

        The reshape only splits axes, so it never copies: writes go through.
        """
        r, c = self.width(rows), self.width(cols)
        block = a[self.layer_slice(rows), self.layer_slice(cols)]
        return block.reshape(r, self.d // r, c, self.d // c)

    def blocks(self):
        """The (rows, cols) region pairs a layered kernel may fill, once each.

        In the order of the network's parameters: layer k-1 to layer k (W_k)
        and the bias column of layer k (b_k) for k = 1..L, then the bias
        diagonal block. Every other block must vanish.
        """
        out = [b for k in range(1, self.L + 1) for b in ((k, k - 1), (k, "bias"))]
        return out + [("bias", "bias")]


def check_bound(B, L):
    """Refuse a parameter bound B that is not finite or is below L+2."""
    if not B < math.inf:  # also refuses NaN
        raise InvalidBoundError(f"B={B} is not finite")
    if not B >= L + 2:
        raise InvalidBoundError(
            f"B={B} below L+2={L + 2}: the bias block (L+2)/B would exceed 1"
        )


@dataclass(frozen=True)
class DenseNetwork:
    """Depth-L ReLU network with hidden width d and parameter bound B.

    Layer widths are (d0, d, ..., d, dL); d must be divisible by both d0
    and dL, every weight and bias must lie in [-B, B], and B is finite
    with B >= L+2.
    """

    L: int
    d0: int
    dL: int
    d: int
    B: float
    weights: tuple
    biases: tuple

    def __post_init__(self):
        ws = tuple(np.ascontiguousarray(w, dtype=float) for w in self.weights)
        bs = tuple(np.ascontiguousarray(b, dtype=float) for b in self.biases)
        for a in ws + bs:
            a.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)
        self._validate()

    def _validate(self):
        ls = self.layers  # building it checks depth, widths and divisibility
        check_bound(self.B, self.L)
        if len(self.weights) != self.L or len(self.biases) != self.L:
            raise InvalidNetworkError(
                f"expected {self.L} weight/bias entries, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        for ell in range(1, self.L + 1):
            w, b = self.weights[ell - 1], self.biases[ell - 1]
            want = (ls.width(ell), ls.width(ell - 1))
            if w.shape != want:
                raise DimensionMismatchError(f"W[{ell}]", want, w.shape)
            if b.shape != want[:1]:
                raise DimensionMismatchError(f"b[{ell}]", want[:1], b.shape)
            for name, arr in (("W", w), ("b", b)):
                top = max(arr.max(initial=0.0), -arr.min(initial=0.0))  # no |arr| copy
                if top <= self.B:  # fails on NaN too
                    continue
                idx = tuple(int(k) for k in np.argwhere(~(np.abs(arr) <= self.B))[0])
                raise InvalidNetworkError(
                    f"{name}[{ell}] entry {idx} = {float(arr[idx])!r} "
                    f"outside [-{self.B}, {self.B}]"
                )

    @property
    def layer_dims(self):
        return (self.d0,) + (self.d,) * (self.L - 1) + (self.dL,)

    @property
    def layers(self):
        """The network's LayerStructure: its shape and its kernel's layout."""
        return LayerStructure(self.L, self.d0, self.dL, self.d)


def forward_threads(rows):
    """Threads that ``forward`` spreads a batch of ``rows`` inputs over."""
    chunks = -(-rows // FORWARD_CHUNK)
    return 1 if chunks < 2 else min(cores(), chunks)


def forward(net, x):
    """Evaluate the normalized forward pass; final layer carries no ReLU.

    Accepts a single input of shape (d0,) or a batch (..., d0); returns the
    matching (dL,) or (..., dL) output.

    The inputs, read as rows, are cut into chunks of ``FORWARD_CHUNK`` rows
    on a grid that starts at row 0. Each chunk goes through the hidden
    layers in two (chunk, d) buffers that its thread reuses from chunk to
    chunk; the output layer writes into the result. With two or more
    chunks, contiguous runs of chunks go to ``forward_threads(rows)``
    threads, one per core at most, through ``threads.spread`` (which the
    exact cut norm's enumeration shares): the calling thread and others
    started for the call and joined before it returns. Every chunk makes
    the same BLAS calls whatever the thread count, so outputs do not
    depend on it; they are bitwise reproducible only at a fixed BLAS
    thread count, since BLAS may sum a product in an order that depends
    on its own.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.d0,):
        raise DimensionMismatchError("input", (net.d0,), x.shape)
    rows = x.reshape(-1, net.d0)
    n = len(rows)
    out = np.empty((n, net.dL))
    last = net.L - 1
    layers = [
        (w, d_prev * b, d_prev * (net.L + 2))
        for w, b, d_prev in zip(net.weights, net.biases, net.layer_dims)
    ]

    workers = forward_threads(n)
    chunks = -(-n // FORWARD_CHUNK)
    cuts = [min(n, FORWARD_CHUNK * (chunks * k // workers)) for k in range(workers + 1)]
    # allocated on the calling thread (see threads)
    bufs = np.empty((workers, 2, min(FORWARD_CHUNK, n), net.d))

    def run(k):
        for lo in range(cuts[k], cuts[k + 1], FORWARD_CHUNK):
            hi = min(lo + FORWARD_CHUNK, cuts[k + 1])
            h = rows[lo:hi]
            for ell, (w, shift, scale) in enumerate(layers):
                pre = out[lo:hi] if ell == last else bufs[k, ell % 2, : hi - lo]
                np.matmul(h, w.T, out=pre)
                pre += shift
                pre /= scale
                h = pre if ell == last else np.maximum(pre, 0.0, out=pre)

    spread(run, workers)
    return out.reshape(x.shape[:-1] + (net.dL,))


def param_count(L, d0, dL, d):
    """Number of parameters of the fixed-width architecture."""
    if min(L, d0, dL, d) < 1:
        raise InvalidNetworkError("all architecture parameters must be >= 1")
    return (L - 1) * d * d + (d0 + dL + L - 1) * d + dL


MAGIC_NET = "densecap-net v1"


def _fmt(values):
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def serialize_network(net):
    """Text record for a network; floats use shortest round-trip repr."""
    out = io.StringIO()
    out.write(MAGIC_NET + "\n")
    out.write(f"{net.L} {net.d0} {net.dL} {net.d} {net.B!r}\n")
    for ell in range(1, net.L + 1):
        out.write(f"W {ell}\n")
        for row in net.weights[ell - 1]:
            out.write(_fmt(row) + "\n")
        out.write(f"b {ell}\n")
        out.write(_fmt(net.biases[ell - 1]) + "\n")
    return out.getvalue()


class _LineReader:
    """A text record read one line at a time, lines numbered from 1.

    Building it checks line 1 against ``magic``. Each error names the line
    last taken, or the first missing one for a truncated record.
    """

    def __init__(self, text, magic):
        self.text, self.line, self._start = text, 0, 0
        if self.take("header").strip() != magic:
            raise self.error(f"bad header, expected {magic!r}")

    def error(self, message):
        """A ParseError at the current line, for the caller to raise."""
        return ParseError(message, line=self.line)

    def take(self, what):
        """The next line; ``what`` names it if the text has ended."""
        self.line += 1
        if self._start >= len(self.text):
            raise self.error(f"truncated record: missing {what}")
        end = self.text.find("\n", self._start)
        end = len(self.text) if end < 0 else end
        line, self._start = self.text[self._start:end], end + 1
        return line

    def numbers(self, fields, kind, what):
        """Convert text fields with ``kind`` (int or float)."""
        try:
            return [kind(v) for v in fields]
        except ValueError:
            got = " ".join(fields)
            raise self.error(f"{what}: expected {kind.__name__} values, got {got!r}") from None

    def dims(self, names):
        """The dimensions line: four ints called ``names``, then the float bound B."""
        head = self.take("dimensions line").split()
        if len(head) != 5:
            raise self.error(f"dimensions line needs '{names} B'")
        return (*self.numbers(head[:4], int, f"dimensions '{names}'"),
                *self.numbers(head[4:], float, "bound B"))

    def rows(self, count, width, what):
        """``count`` lines of ``width`` floats, filling one array row by row.

        A text shorter than such rows (count*(2*width - 1) characters) has a
        short or missing row, which raises before it is stored: one scratch
        row then stands in for the array, so a large header allocates nothing.
        """
        fits = count * (2 * width - 1) <= len(self.text)
        out = np.empty((count, width) if fits else (1, min(width, len(self.text))))
        for r in range(count):
            vals = self.take(f"{what}row {r}").split()
            if len(vals) != width:
                raise self.error(f"{what}row {r} has {len(vals)} entries, expected {width}")
            out[r % len(out)] = self.numbers(vals, float, f"{what}row {r}")
        return out


def deserialize_network(text):
    """Parse a network file; each layer fills a preallocated array line by line.

    The header's shape is checked before any row is read, as a ParseError
    on line 2.
    """
    reader = _LineReader(text, MAGIC_NET)
    L, d0, dL, d, B = reader.dims("L d0 dL d")
    try:
        ls = LayerStructure(L, d0, dL, d)
    except InvalidNetworkError as exc:
        raise reader.error(str(exc)) from None

    def marker(name):
        tag = reader.take(f"{name} marker").split()
        if tag != name.split():
            raise reader.error(f"expected '{name}' marker, got {' '.join(tag)!r}")

    weights, biases = [], []
    for ell in range(1, L + 1):
        marker(f"W {ell}")
        weights.append(reader.rows(ls.width(ell), ls.width(ell - 1), f"W {ell} "))
        marker(f"b {ell}")
        vals = reader.take(f"b {ell} values").split()
        if len(vals) != ls.width(ell):
            raise reader.error(f"b {ell} has {len(vals)} entries, expected {ls.width(ell)}")
        biases.append(np.array(reader.numbers(vals, float, f"b {ell} values")))
    return DenseNetwork(L, d0, dL, d, B, tuple(weights), tuple(biases))


def save_network(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_network(net))


def load_network(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize_network(fh.read())


def random_network(L, d0, dL, d, B, rng):
    """Network with parameters uniform in [-B, B]; shape and B are checked before any draw."""
    ls = LayerStructure(L, d0, dL, d)
    check_bound(B, L)
    ws = tuple(
        rng.uniform(-B, B, size=(ls.width(ell), ls.width(ell - 1)))
        for ell in range(1, L + 1)
    )
    bs = tuple(rng.uniform(-B, B, size=ls.width(ell)) for ell in range(1, L + 1))
    return DenseNetwork(L, d0, dL, d, B, ws, bs)


def random_small_network(rng):
    """Random network of depth 2-4, d0 and dL in 1-3, width at most 24."""
    L = int(rng.integers(2, 5))
    d0 = int(rng.integers(1, 4))
    dL = int(rng.integers(1, 4))
    mult = int(np.lcm(d0, dL))
    d = mult * int(rng.integers(1, max(2, 24 // mult + 1)))
    B = float(rng.uniform(L + 2, 10.0))
    return random_network(L, d0, dL, d, B, rng)
