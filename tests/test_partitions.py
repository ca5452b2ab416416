import numpy as np
import pytest

from densecap.errors import ParameterError
from densecap.partitions import (
    Partition,
    common_refinement,
    equipartition,
)


def test_equipartition_measures_sum():
    p = equipartition(7)
    assert p.size == 7
    assert abs(p.measures.sum() - 1.0) <= 1e-12
    assert np.allclose(p.measures, 1 / 7)


def test_zero_measure_parts_forbidden():
    with pytest.raises(ParameterError):
        Partition(np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ParameterError):
        Partition(np.array([0.4, 0.4]))  # does not cover the domain


@pytest.mark.parametrize("meas", [[np.nan], [0.5, np.nan]])
def test_nan_measures_forbidden(meas):
    with pytest.raises(ParameterError):
        Partition(np.array(meas))


def test_common_refinement_idempotent():
    p = Partition(np.array([0.3, 0.2, 0.5]))
    r, _, _ = common_refinement(p, p)
    assert r.size == p.size
    assert np.allclose(r.measures, p.measures, atol=1e-12)


def test_common_refinement_counts_and_maps():
    p = equipartition(2)
    q = equipartition(3)
    r, pi, qi = common_refinement(p, q)
    assert r.size == 4  # boundaries {0,1/3,1/2,2/3,1}
    assert r.size <= p.size * q.size
    assert abs(r.measures.sum() - 1.0) <= 1e-12
    # parent maps reconstruct the parents' measures
    for idx, part in ((pi, p), (qi, q)):
        acc = np.zeros(part.size)
        np.add.at(acc, idx, r.measures)
        assert np.allclose(acc, part.measures, atol=1e-12)


def test_measures_survive_refinement_chains():
    rng = np.random.default_rng(0)
    p = Partition(rng.dirichlet(np.ones(3)))
    for k in (2, 5, 4, 7):
        q = Partition(rng.dirichlet(np.ones(k)))
        p, _, _ = common_refinement(p, q)
        assert abs(p.measures.sum() - 1.0) <= 1e-12
        assert np.all(p.measures > 0)
