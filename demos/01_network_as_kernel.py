"""A dense network, its kernel, and its graph all compute the same function.

Builds a small depth-3 network, encodes it as a step kernel on [0,1]^2 and
as a weighted graph, runs the fixed message-passing scheme on both
encodings, and compares all three outputs. The bias region of the kernel
carries a standing value of 1 that survives every round untouched.
"""

import numpy as np

from densecap import (
    check_equivalence,
    induce_graph,
    induce_kernel,
    random_network,
    validate_computational,
)

rng = np.random.default_rng(0)
net = random_network(L=3, d0=2, dL=2, d=12, B=6.0, rng=rng)
print(f"network: depth {net.L}, widths {net.layer_dims}, bound {net.B}")

ck = induce_kernel(net)
print(f"kernel: {ck.n} x {ck.n} step kernel in {len(ck.kernel.blocks)} blocks, hidden dim {ck.d}")
print(validate_computational(ck))

g = induce_graph(net)
bias_block = g.blocks[-1][2]  # the bias region's rows and columns come last
print(f"graph: {g.n} vertices, bias block weight {bias_block[0, 0]:.0f}")

x = rng.uniform(0, 1, 2)
rep = check_equivalence(net, x)
print(f"\ninput x = {x}")
print(f"network forward : {rep.net_output}")
print(f"kernel readout  : {rep.kernel_output}")
print(f"graph readout   : {rep.graph_output}")
print(f"max discrepancy : {rep.max_discrepancy:.3e}")
print(f"bias value per round: {rep.bias_values}")
