"""Finite partitions of an interval, stored as part measures.

A partition is an ordered list of parts with positive measures. Interval
partitions additionally promise that part ``i`` occupies the ``i``-th
consecutive interval of the domain, so boundaries are the running sums of
the measures. Abstract partitions carry no geometry; whenever geometry is
needed they are realized as intervals in listed order (every partition of
an interval can be rearranged into this form by a measure-preserving map).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MEASURE_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    measures: np.ndarray
    labels: tuple = None
    interval: bool = True
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        meas = np.asarray(self.measures, dtype=float)
        meas.setflags(write=False)
        object.__setattr__(self, "measures", meas)
        if meas.ndim != 1 or meas.size == 0:
            raise ParameterError("partition needs a nonempty 1-d measure vector")
        if np.any(meas <= 0):
            raise ParameterError("zero- or negative-measure parts are forbidden")
        total = self.domain[1] - self.domain[0]
        if abs(float(meas.sum()) - total) > MEASURE_TOL * max(1.0, abs(total)):
            raise ParameterError(
                f"measures sum to {meas.sum()!r}, expected {total!r}"
            )
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(meas.size)))
        elif len(self.labels) != meas.size:
            raise ParameterError("labels and measures disagree in length")

    @property
    def size(self):
        return int(self.measures.size)

    def boundaries(self):
        """Interval endpoints: array of size+1 running sums over the domain."""
        b = np.empty(self.size + 1)
        b[0] = self.domain[0]
        np.cumsum(self.measures, out=b[1:])
        b[1:] += self.domain[0]
        b[-1] = self.domain[1]
        return b

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.size == other.size
            and self.domain == other.domain
            and self.labels == other.labels
            and np.allclose(self.measures, other.measures, rtol=0, atol=MEASURE_TOL)
        )


def equipartition(n, domain=(0.0, 1.0)):
    """The interval partition of the domain into n equal parts."""
    if n < 1:
        raise ParameterError("need at least one part")
    total = domain[1] - domain[0]
    return Partition(np.full(n, total / n), interval=True, domain=domain)


def _merged_boundaries(p, q):
    bp, bq = p.boundaries(), q.boundaries()
    merged = np.union1d(bp, bq)
    # collapse boundary pairs closer than the measure tolerance
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > MEASURE_TOL:
            keep.append(x)
    keep[-1] = p.domain[1]
    return np.asarray(keep), bp, bq


def common_refinement(p, q, with_maps=False):
    """Coarsest partition refining both arguments (nonempty overlaps only).

    Both partitions are taken over the same domain in interval realization.
    With ``with_maps=True`` also returns, per refined part, the index of its
    parent part in ``p`` and in ``q``.
    """
    if p.domain != q.domain:
        raise ParameterError(f"domains differ: {p.domain} vs {q.domain}")
    merged, bp, bq = _merged_boundaries(p, q)
    meas = np.diff(merged)
    mid = (merged[:-1] + merged[1:]) / 2
    pi = np.clip(np.searchsorted(bp, mid) - 1, 0, p.size - 1)
    qi = np.clip(np.searchsorted(bq, mid) - 1, 0, q.size - 1)
    labels = tuple((p.labels[a], q.labels[b]) for a, b in zip(pi, qi))
    ref = Partition(meas, labels=labels, interval=True, domain=p.domain)
    if with_maps:
        return ref, pi, qi
    return ref


def is_refinement(fine, coarse):
    """Whether every part of ``fine`` lies inside a part of ``coarse``."""
    if fine.domain != coarse.domain:
        return False
    if fine.size < coarse.size:
        return False
    bf, bc = fine.boundaries(), coarse.boundaries()
    # each coarse boundary must appear among the fine ones
    pos = np.searchsorted(bf, bc)
    lo = np.clip(pos - 1, 0, bf.size - 1)
    hi = np.clip(pos, 0, bf.size - 1)
    near = np.minimum(np.abs(bf[lo] - bc), np.abs(bf[hi] - bc))
    return bool(np.all(near <= MEASURE_TOL))


def overlap_matrix(parts, base):
    """Measure of intersection between each part of two interval partitions.

    Returns the ``(parts.size, base.size)`` matrix whose ``(a, i)`` entry is
    the measure of the overlap of part ``a`` with base part ``i``.
    """
    if parts.domain != base.domain:
        raise ParameterError(f"domains differ: {parts.domain} vs {base.domain}")
    ba, bb = parts.boundaries(), base.boundaries()
    lo = np.maximum(ba[:-1, None], bb[None, :-1])
    hi = np.minimum(ba[1:, None], bb[None, 1:])
    return np.maximum(hi - lo, 0.0)
