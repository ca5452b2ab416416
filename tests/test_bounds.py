import math
from fractions import Fraction

import numpy as np
import pytest

from densecap import bounds
from densecap.bounds import (
    BoundValue,
    SpikeTarget,
    compression_hidden_dim,
    d0_threshold,
    lipschitz_constant,
    non_universality_check,
    vc_lower_bound,
    wrl_hidden_dim,
)
from densecap.errors import CapacityError, ParameterError


def test_lipschitz_spot_values():
    assert lipschitz_constant(4, 2).exact == 64
    assert lipschitz_constant(1, 1).exact == 2
    v = lipschitz_constant(8, 10)
    assert v.log2 == Fraction(40)
    assert v.exact == 2**40


def test_lipschitz_non_integer_bound():
    v = lipschitz_constant("9/2", 2)
    assert v.exact == 81
    v = lipschitz_constant("7/3", 1)
    assert v.exact is None
    assert abs(v.log2_float - math.log2(14 / 3)) <= 1e-12


def test_lipschitz_keeps_to_the_exact_bit_limit(monkeypatch):
    monkeypatch.setattr(bounds, "MAX_EXACT_BITS", 64)
    v = lipschitz_constant(5, 30)  # 10^30 has 100 bits
    assert v.exact is None and v.formula == "lipschitz_constant"
    assert abs(v.log2_float - 30 * math.log2(10)) <= 1e-9
    assert lipschitz_constant(4, 21).exact == 2**63  # (2B)^L = 8^21 stays exact
    assert lipschitz_constant(4, 21).log2 == Fraction(63)


def test_wrl_dim_spot_values():
    assert wrl_hidden_dim(4, 2, 1, 1).exact == 16
    v = wrl_hidden_dim(1, 2, 1, 1)
    assert v.exact == 16 * 2**32
    # the lcm enters linearly
    assert wrl_hidden_dim(4, 2, 2, 3).exact == 6 * wrl_hidden_dim(4, 2, 1, 1).exact


def test_compression_dim_exact_log2():
    v = compression_hidden_dim(1, 4, 2, 1, 1)
    assert v.log2 == Fraction(2_097_164)
    assert v.exact == 2**2_097_164


@pytest.mark.parametrize("eps, B, L, d0, dL", [
    (1, 4, 2, 1, 1), (4, 4, 2, 1, 1), ("1/2", 4, 2, 1, 1), (2, 5, 2, 1, 1),
    ("3/2", "9/2", 2, 2, 3), (8, 4, 1, 1, 1), (100, 3, 1, 2, 2),
    (1, 5, 3, 1, 1), (64, 6, 4, 1, 1),  # log space
])
def test_compression_dim_is_the_regularity_width_at_the_scaled_accuracy(eps, B, L, d0, dL):
    v = compression_hidden_dim(eps, B, L, d0, dL)
    scaled = Fraction(eps) / ((L + 2) * dL * (2 * Fraction(B)) ** L)
    w = wrl_hidden_dim(scaled, L, d0, dL)
    assert (v.exact, v.log2, v.formula) == (w.exact, w.log2, "compression_hidden_dim")
    assert type(v.log2) is type(w.log2)


def test_compression_dim_monotone_decreasing_in_eps():
    vals = [compression_hidden_dim(e, 4, 2, 1, 1).log2_float for e in (4, 2, 1, "1/2")]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_compression_dim_output_dim_enters_squared_in_exponent():
    a = compression_hidden_dim(1, 4, 2, 1, 1).log2_float
    b = compression_hidden_dim(1, 4, 2, 1, 2).log2_float
    # dominant exponent 2*ceil(16 ((L+2) dL)^2 (2B)^(2L) / eps^2) quadruples
    assert abs(b / a - 4.0) <= 0.01


def test_compression_dim_log_space_fallback():
    v = compression_hidden_dim(1, 5, 3, 1, 1)
    assert v.exact is None
    inner = 2 * math.ceil(16 * 25 * 10**6)
    assert abs(v.log2_float - inner) <= 40  # the remaining factors are tiny


def test_vc_lower_bound_spot_values():
    assert vc_lower_bound("1/6", 5).exact == 1
    assert vc_lower_bound("1/24", 2).exact == 4
    v = vc_lower_bound("1/8", 306)
    assert abs(v.log2_float - 153 * math.log2(4 / 3)) <= 1e-9


def test_vc_lower_bound_sizes_before_it_builds(monkeypatch):
    # (4/3)^d0 can never have an integer root, so no power is formed
    monkeypatch.setattr(bounds, "_isqrt_frac", None)
    v = vc_lower_bound("1/8", 20_000_000)
    assert v.exact is None
    assert v.log2 == pytest.approx(0.5 * 20_000_000 * math.log2(4 / 3), rel=1e-15)
    with pytest.raises(CapacityError, match="float range"):
        vc_lower_bound("1/8", 10**400)


def test_vc_lower_bound_keeps_its_exact_roots():
    assert vc_lower_bound("1/12", 40).exact == 2**20
    # c's denominator cancels r's: (4/3)^2 / (16/9) = 1
    assert vc_lower_bound("1/8", 2, Fraction(16, 9)).exact == 1
    assert vc_lower_bound("1/8", 2, Fraction(1, 9)).exact == 4
    assert vc_lower_bound("1/8", 2).exact is None


def test_vc_lower_bound_domain():
    with pytest.raises(ParameterError):
        vc_lower_bound("1/3", 2)
    with pytest.raises(ParameterError):
        vc_lower_bound("2/5", 2)
    with pytest.raises(ParameterError):
        vc_lower_bound(0, 2)


def test_d0_threshold_spot_value():
    v = d0_threshold(4, 2, 1, 1)
    assert v.exact == 18_253_611_637
    assert v.consistent()


@pytest.mark.parametrize("B, L, dL, c", [
    (4, 2, 1, 1), (5, 3, 2, 4), ("9/2", 2, 3, "1/3"), (4, 2, 1, Fraction(1, 10**400)),
    (7, 5, 1, Fraction(1, 2**380)), (7, 5, 1, Fraction(3, 2**381)),
])
def test_threshold_m_is_the_smallest_power_of_four_above(B, L, dL, c):
    m, A, _, _ = bounds._threshold_terms(B, L, dL, c)
    nd = (Fraction(c) * A * A) ** 17
    assert Fraction(4) ** m >= nd > Fraction(4) ** (m - 1)


def exact_threshold_m(B, L, dL, c):
    """m from (c A^2)^17 itself, the way _threshold_terms computed it before."""
    B, c = Fraction(B), Fraction(c)
    A = Fraction(L) ** 3 * (L + 2) ** 2 * Fraction(dL) ** 4 * (2 * B) ** (2 * L)
    nd = (c * A * A) ** 17
    p, q = nd.numerator, nd.denominator
    k = p.bit_length() - q.bit_length()
    k += (p << max(-k, 0)) > (q << max(k, 0))
    return -(-k // 2)


def test_threshold_m_matches_the_exact_comparison():
    rng = np.random.default_rng(31)
    for i in range(20_000):
        L, dL = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        B = L + 2 + Fraction(int(rng.integers(0, 10**6)), int(rng.integers(1, 10**6)))
        if i % 4 == 0:  # c A^2 a power of two: x is an integer, the exact route decides
            _, A, _, _ = bounds._threshold_terms(B, L, dL, 1)
            c = Fraction(2) ** int(rng.integers(-50, 50)) / (A * A)
        else:
            c = Fraction(int(rng.integers(1, 10**9)), int(rng.integers(1, 10**9)))
            c *= Fraction(2) ** int(rng.integers(-600, 600))
        assert bounds._threshold_terms(B, L, dL, c)[0] == exact_threshold_m(B, L, dL, c)


@pytest.mark.parametrize("call", [
    lambda: compression_hidden_dim(1, "-1e400", 2, 1, 1),
    lambda: d0_threshold("-1e400", 2, 1),
])
def test_a_bound_beyond_the_float_range_is_named_in_its_error(call):
    with pytest.raises(ParameterError, match=r"got B=-2\^1328.77"):
        call()


def test_d0_threshold_monotone_in_c_and_dL():
    base = d0_threshold(4, 2, 1, 1).exact
    assert d0_threshold(4, 2, 1, 4).exact > base
    bigger_c = d0_threshold(4, 2, 1, 16).exact
    assert bigger_c > base
    # doubling dL adds 17*log2(2^4) = 68 to the log part and grows the rest
    l1 = d0_threshold(4, 2, 2, 1).exact
    assert l1 > base


def test_non_universality_check_at_threshold_and_below():
    thr = d0_threshold(4, 2, 1, 1).exact
    at = non_universality_check(4, 2, 1, thr)
    assert at.holds and at.margin_log2 >= 0.0
    assert at.direct_gap_log2 > 0.0
    below = non_universality_check(4, 2, 1, 1)
    assert not below.holds and below.margin_log2 < 0.0
    assert below.direct_gap_log2 < 0.0


@pytest.mark.parametrize("args, threshold, margin, wtilde, vc", [
    ((4, 2, 1, 18_253_611_637), 18_253_611_637, 0.0, 1073741929.1749258, 3787966663.313841),
    ((4, 2, 1, 1), 18_253_611_637, -1073741860.9411764, 1073741861.0, 0.20751874963942188),
    ((5, 3, 2, 7, 4), 27_852_800_000_890, -1638400000051.9185, 1638400000056.945,
     0.45263124747595307),
    (("9/2", 2, 3, 10**12, "1/3"), 263_148_798_687, 43344188312.53764, 15479341179.745825,
     207518749640.21436),
])
def test_non_universality_fields_are_pinned(args, threshold, margin, wtilde, vc):
    r = non_universality_check(*args)
    assert r.threshold == threshold == d0_threshold(*args[:3], *args[4:]).exact
    assert (r.margin_log2, r.wtilde_log2, r.vc_lower_log2) == (margin, wtilde, vc)
    assert r.holds == (args[3] >= threshold) and r.d0 == args[3]


def test_non_universality_margin_monotone_in_d0():
    vals = [
        non_universality_check(4, 2, 1, d0).margin_log2
        for d0 in (1, 10, 10**6, 10**9, 2 * 10**10)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("L, d0, dL", [(0, 1, 1), (2, 0, 1), (2, 1, 0)])
def test_compression_dim_checks_its_dimensions(L, d0, dL):
    with pytest.raises(ParameterError, match="dimensions must be positive"):
        compression_hidden_dim("1/2", 4, L, d0, dL)


@pytest.mark.parametrize("d0", [0, -3])
def test_non_universality_checks_d0(d0):
    with pytest.raises(ParameterError, match="d0 >= 1"):
        non_universality_check(4, 2, 1, d0)


def test_bound_value_consistency_everywhere():
    for v in (
        lipschitz_constant(4, 3),
        wrl_hidden_dim(2, 3, 2, 2),
        compression_hidden_dim(2, 5, 2, 1, 1),
        vc_lower_bound("1/12", 4),
        d0_threshold(5, 3, 2, 1),
    ):
        assert isinstance(v, BoundValue)
        assert v.consistent(1e-9)


def test_spike_target_interpolates_grid():
    rng = np.random.default_rng(0)
    for d0, N in ((1, 4), (2, 3), (3, 2)):
        y = rng.uniform(-1, 1, N**d0) / (2 * N)
        f = SpikeTarget(d0, N, y)
        pts = f.grid_points()
        assert np.allclose(f(pts), y, atol=0)


def test_spike_target_zero_labels():
    f = SpikeTarget(2, 4, np.zeros(16))
    x = np.random.default_rng(1).uniform(0, 1, (500, 2))
    assert np.all(f(x) == 0.0)


def test_spike_target_rejects_bad_label_count():
    with pytest.raises(ParameterError):
        SpikeTarget(2, 3, np.zeros(8))


def test_spike_target_empirical_lipschitz():
    rng = np.random.default_rng(2)
    d0, N = 2, 5
    y = rng.integers(0, 2, N**d0) / (2 * N)
    f = SpikeTarget(d0, N, y)
    a = rng.uniform(0, 1, (100_000, d0))
    b = rng.uniform(0, 1, (100_000, d0))
    num = np.abs(f(a) - f(b))
    den = np.linalg.norm(a - b, axis=1)
    keep = den > 1e-12
    assert float((num[keep] / den[keep]).max()) <= 1.0 + 1e-6


def test_spike_target_bounded_by_max_label():
    rng = np.random.default_rng(3)
    y = rng.uniform(0, 0.1, 9)
    f = SpikeTarget(2, 3, y)
    x = rng.uniform(0, 1, (20_000, 2))
    assert f(x).max() <= y.max() + 1e-12
    assert f(x).min() >= 0.0
