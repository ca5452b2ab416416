"""Dense ReLU networks as step kernels on the unit interval.

The package represents fixed-width dense networks, encodes them as step
kernels and weighted graphs on which fixed message-passing schemes
reproduce the forward pass exactly, measures kernels in cut norm, runs a
constructive weak-regularity compression down to a chosen hidden width,
and evaluates the closed-form expressivity bounds in exact big-integer or
log-space arithmetic. A small training harness reproduces the
width-saturation experiment for clamped-weight networks.
"""

from .networks import (
    DenseNetwork,
    forward,
    param_count,
    random_network,
)
from .partitions import (
    Partition,
    equipartition,
)
from .kernels import (
    ComputationalGraph,
    ComputationalKernel,
    LayerStructure,
    StepKernel,
    StepSignal,
    extract_network,
    induce_graph,
    induce_input_signal,
    induce_kernel,
    validate_computational,
)
from .propagation import check_equivalence, mpnn_forward, readout, sr_mpnn_forward
from .cutnorm import (
    comp_cut_distance_upper,
    kernel_cut_norm_exact,
    kernel_cut_norm_lower,
    l1_norm,
    signal_cut_norm,
)
from .regularity import (
    compress_network,
    weak_regularity,
)
from . import bounds

__version__ = "0.1.0"
