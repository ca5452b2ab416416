"""Message passing on step kernels and on their weighted-graph form.

Both schemes are fixed, not trainable, and run one round loop that applies
ReLU after every round but the last. On kernels a round integrates the
signal against the kernel and amplifies by B; on graphs it averages
neighbor features weighted by the adjacency. Integrals over step objects are
measure-weighted finite sums, so evaluation is exact up to float rounding.
Both multiply by the blocks alone, so an induced kernel or graph runs on
its 2L+1 fine blocks and no n x n array is built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EquivalenceViolationError, ParameterError
from .kernels import (
    StepSignal,
    graph_features,
    induce_graph,
    induce_input_signal,
    induce_kernel,
)
from .networks import forward

READOUT_TOL = 1e-10  # largest spread of a signal over one output cell


def _block_product(blocks, v):
    """The product of the blocks' n x n array with v: ``out[rows] += a @ v[cols]``.

    On a one-block StepKernel this is ``coeffs @ v``.
    """
    out = np.zeros(v.size)
    for rows, cols, a in blocks:
        out[rows] += a @ v[cols]
    return out


def _run_rounds(step, x, L):
    """Values after rounds 0..L of ``step``, with ReLU after all but the last."""
    if L < 1:
        raise ParameterError(f"need at least one round, got L={L}")
    values = [x]
    for _ in range(L - 1):
        values.append(np.maximum(step(values[-1]), 0.0))
    values.append(step(values[-1]))
    return values


def mpnn_forward(kernel, signal, B, L, return_hidden=False):
    """Run L rounds of amplified integral-ReLU message passing.

    The signal must lie on the kernel's own partition. Returns the output
    StepSignal; with ``return_hidden=True`` also the list of signals after
    rounds 0..L.
    """
    if signal.partition != kernel.partition:
        raise ParameterError(
            f"message passing needs the kernel's {kernel.partition.size}-part partition"
        )
    measures = kernel.partition.measures
    values = _run_rounds(
        lambda g: B * _block_product(kernel.blocks, measures * g), signal.values, L
    )
    hidden = [StepSignal(kernel.partition, g) for g in values]
    return (hidden[-1], hidden) if return_hidden else hidden[-1]


def readout(signal, layers):
    """Per-output-cell value of a signal on the layout's fine partition.

    The value must be constant on each output cell; variation beyond
    ``READOUT_TOL`` signals a structural bug rather than noise, so it raises.
    """
    if signal.partition != layers.fine_partition():
        raise ParameterError(
            f"readout needs the {layers.n}-part fine partition of the layout"
        )
    return graph_readout(signal.values, layers)


def sr_mpnn_forward(graph, features, L, return_hidden=False):
    """L rounds of sum-ReLU message passing on a weighted graph."""
    features = np.asarray(features, dtype=float)
    n = graph.n
    if features.shape != (n,):
        raise ParameterError(f"features must have shape ({n},), got {features.shape}")
    hidden = _run_rounds(lambda f: _block_product(graph.blocks, f) / n, features, L)
    return (hidden[-1], hidden) if return_hidden else hidden[-1]


def graph_readout(features, layers):
    """Per-output-unit value of node features (constancy enforced)."""
    cells = np.asarray(features)[layers.layer_slice(layers.L)].reshape(layers.dL, -1)
    spread = np.ptp(cells, axis=1)
    if np.any(spread > READOUT_TOL):
        i = int(np.argmax(spread > READOUT_TOL))  # the first varying cell
        raise EquivalenceViolationError(
            f"output cell {i} not constant: spread {spread[i]:.3g} exceeds {READOUT_TOL:.1g}"
        )
    return cells[:, 0].copy()


@dataclass
class EquivalenceReport:
    """The three outputs and their agreement, plus what the encodings held.

    ``kernel_entries`` and ``graph_entries`` count the entries of the
    ``kernel_blocks`` arrays each encoding was held in, against ``n * n``
    for the dense array.
    """

    net_output: np.ndarray
    kernel_output: np.ndarray
    graph_output: np.ndarray
    max_discrepancy: float
    bias_values: list
    tolerance: float
    n: int
    kernel_blocks: int
    kernel_entries: int
    graph_entries: int

    @property
    def passed(self):
        return self.max_discrepancy <= self.tolerance

    @property
    def max_bias_drift(self):
        return max(abs(v - 1.0) for v in self.bias_values)


def check_equivalence(net, x, tolerance=1e-9):
    """Evaluate a network as itself, as a kernel, and as a graph.

    All three paths must produce the same output vector; the report also
    carries the bias-region value after every message-passing round, which
    stays exactly 1 for a correctly built encoding.
    """
    y_net = forward(net, x)

    ck = induce_kernel(net)
    sig = induce_input_signal(x, ck.layers)
    out_sig, hidden = mpnn_forward(ck.kernel, sig, ck.B, ck.layers.L, return_hidden=True)
    y_ker = readout(out_sig, ck.layers)
    bias = ck.layers.bias_slice
    bias_values = [float(h.values[bias.start]) for h in hidden]

    g = induce_graph(net)
    y_graph = graph_readout(sr_mpnn_forward(g, graph_features(x, g.layers), net.L), g.layers)

    # np.max, unlike max, keeps a NaN, so a NaN output never passes
    disc = float(np.max([
        np.max(np.abs(y_net - y_ker)),
        np.max(np.abs(y_net - y_graph)),
        np.max(np.abs(y_ker - y_graph)),
    ]))
    held = [sum(a.size for _, _, a in blocks) for blocks in (ck.kernel.blocks, g.blocks)]
    return EquivalenceReport(
        y_net, y_ker, y_graph, disc, bias_values, tolerance, ck.n, len(ck.kernel.blocks), *held
    )
