"""Compress a wide dense network by grouping its hidden units.

The pipeline: split each hidden layer's units into equal groups by
recursive splits along the top principal direction of their entries in
the layered kernel's thin blocks (a low-rank view of a matrix gives a
weak regularity partition with few parts), permute the units into group
order (the same function), cut that order into contiguous slots and
build the smaller network from the slot averages: W'_l = P W_l P^T and
b'_l = P b_l, with P the slot matrix. The report gives the cut norm of
the difference of the two kernels, identity layout, and bounds the worst
output gap by (L+2) * dL * (2B)^L times it, a bound certified only when
that distance is exact and labelled an estimate otherwise; the empirical
gap is typically orders of magnitude below it.
"""

import numpy as np

from densecap import compress_network, forward, random_network

rng = np.random.default_rng(7)
net = random_network(L=3, d0=2, dL=2, d=240, B=5.0, rng=rng)
print(f"original width: {net.d} ({sum(w.size for w in net.weights)} weights)")

small, rep = compress_network(net, target_d=24, seed=3)
print(f"compressed width: {small.d} ({sum(w.size for w in small.weights)} weights)")
print(f"cut norm of the difference, identity layout = {rep.delta_hat:.5f} "
      f"({'exact' if rep.delta_exact else 'heuristic lower bound'})")
print(f"{rep.bound_label}  (L+2)*dL*(2B)^L*delta = {rep.theoretical_bound:.2f}")
print(f"empirical max gap over {rep.samples} inputs = {rep.empirical_max:.5f}")

xs = rng.uniform(0, 1, (5, 2))
print("\nsample outputs (original vs compressed):")
for x, a, b in zip(xs, forward(net, xs), forward(small, xs)):
    print(f"  x={np.round(x, 3)}  {np.round(a, 5)}  vs  {np.round(b, 5)}")

print("\nper-stage log:")
for stage in rep.stages:
    print(f"  {stage['name']:<11} {stage['status']:<18} {stage['detail']}")
