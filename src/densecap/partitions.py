"""Finite partitions of [0, 1], stored as part measures.

A partition is its vector of positive part measures, summing to 1. Part
``i`` is realized as the ``i``-th consecutive interval, so boundaries are
the running sums of the measures. Listed order loses nothing: cut norms
and every integral of a step object are invariant under measure-preserving
rearrangements of the parts, and any partition of [0, 1] can be rearranged
into this form.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

MEASURE_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    measures: np.ndarray

    def __post_init__(self):
        meas = np.asarray(self.measures, dtype=float)
        meas.setflags(write=False)
        object.__setattr__(self, "measures", meas)
        if meas.ndim != 1 or meas.size == 0:
            raise ParameterError("partition needs a nonempty 1-d measure vector")
        # written so that a NaN measure fails both checks
        if not np.all(meas > 0):
            raise ParameterError("zero-, negative- or NaN-measure parts are forbidden")
        if not abs(float(meas.sum()) - 1.0) <= MEASURE_TOL:
            raise ParameterError(f"measures sum to {meas.sum()!r}, expected 1.0")

    @property
    def size(self):
        return int(self.measures.size)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Partition):
            return NotImplemented
        return self.size == other.size and np.allclose(
            self.measures, other.measures, rtol=0, atol=MEASURE_TOL
        )


@lru_cache
def equipartition(n):
    """The partition of [0, 1] into n equal parts, one shared read-only object per n."""
    if n < 1:
        raise ParameterError("need at least one part")
    return Partition(np.full(n, 1.0 / n))

