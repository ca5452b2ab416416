import numpy as np
import pytest

from densecap.errors import ParameterError
from densecap.partitions import (
    Partition,
    equipartition,
)


def test_equipartition_measures_sum():
    p = equipartition(7)
    assert p.size == 7
    assert abs(p.measures.sum() - 1.0) <= 1e-12
    assert np.allclose(p.measures, 1 / 7)


def test_equipartition_is_built_once_per_size():
    # one shared object per size, safe because it cannot be written
    p = equipartition(7)
    assert equipartition(7) is p and p == p and p != equipartition(8)
    assert not p.measures.flags.writeable
    with pytest.raises(ValueError):
        p.measures[0] = 1.0
    assert p == Partition(np.full(7, 1 / 7))
    with pytest.raises(ParameterError):
        equipartition(0)


def test_zero_measure_parts_forbidden():
    with pytest.raises(ParameterError):
        Partition(np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ParameterError):
        Partition(np.array([0.4, 0.4]))  # does not cover the domain


@pytest.mark.parametrize("meas", [[np.nan], [0.5, np.nan]])
def test_nan_measures_forbidden(meas):
    with pytest.raises(ParameterError):
        Partition(np.array(meas))

