"""Overflow-safe evaluators for the closed-form size and expressivity bounds.

Values here grow like towers of exponentials, so every formula is carried
in exact rational arithmetic and materialized as a big integer only when
that stays affordable; otherwise the result is reported through its
base-2 logarithm, computed from the exact pieces (the only inexactness is
the final float, and a ceiling inside an exponent that perturbs the log
by less than one part in 2^exponent).
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError

MAX_EXACT_BITS = 50_000_000


def _frac(x):
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # text that is no fraction, "1/0", or a NaN or infinite float
    raise ParameterError(f"cannot interpret {x!r} as an exact number")


def _log2_int(n):
    """log2 of a positive integer, accurate to ~1 ulp regardless of size."""
    if n <= 0:
        raise ParameterError("log2 of a non-positive integer")
    if n.bit_length() <= 53:
        return math.log2(n)
    shift = n.bit_length() - 53
    return shift + math.log2(n >> shift)


def _log2_frac(fr):
    return _log2_int(fr.numerator) - _log2_int(fr.denominator)


def _as_float(x, formula):
    """float(x) for an exponent or a log2; refused beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise CapacityError(f"{formula}: log2 exceeds the float range") from None


def _show(x):
    """A rational as a float for a message; beyond the float range, as sign and log2."""
    try:
        return str(float(x))
    except OverflowError:
        return f"{'-' if x < 0 else ''}2^{_log2_frac(abs(x)):.6g}"


def _isqrt_frac(fr):
    """Exact square root of a nonnegative rational, or None."""
    n, d = fr.numerator, fr.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class BoundValue:
    """A bound as an exact integer (when affordable) plus its log2.

    ``log2`` is a Fraction exactly when the value is a power of two,
    otherwise a float. When ``exact`` is present the two agree to 1e-9.
    """

    exact: int
    log2: object
    formula: str

    @property
    def log2_float(self):
        return float(self.log2)

    def consistent(self, tol=1e-9):
        if self.exact is None:
            return True
        return abs(self.log2_float - _log2_int(self.exact)) <= tol

    def __str__(self):
        if self.exact is not None and self.exact.bit_length() <= 256:
            return f"{self.formula}: {self.exact} (log2 = {self.log2_float:.9g})"
        if self.exact is not None:
            return (
                f"{self.formula}: exact integer with {self.exact.bit_length()} bits "
                f"(log2 = {self.log2_float:.12g})"
            )
        return f"{self.formula}: log2 = {self.log2_float:.12g}"


def _from_fraction(fr, formula):
    """BoundValue for a positive rational that is cheap to hold exactly."""
    exact = int(fr) if fr.denominator == 1 else None
    if exact is not None and exact > 0 and exact & (exact - 1) == 0:
        return BoundValue(exact, Fraction(exact.bit_length() - 1), formula)
    return BoundValue(exact, _log2_frac(fr), formula)


def lipschitz_constant(B, L):
    """Amplification factor (2B)^L of L message-passing rounds."""
    B, f = _frac(B), "lipschitz_constant"
    if B <= 0 or L < 1:
        raise ParameterError("need B > 0 and L >= 1")
    amp = 2 * B
    # (2B)^L has parts n^L and d^L; exact products leave float() to refuse an overflow
    if L * Fraction(_log2_int(max(amp.numerator, amp.denominator))) <= MAX_EXACT_BITS:
        return _from_fraction(amp**L, f)
    return BoundValue(None, _as_float(L * Fraction(_log2_frac(amp)), f), f)


def _scaled_pow2_ceil(exp, rest, factor, formula):
    """BoundValue of factor * ceil(2^exp * rest) with exact/log-space switch."""
    e = _as_float(exp, formula)
    if e + _log2_frac(rest) <= MAX_EXACT_BITS:
        val = factor * math.ceil(Fraction(2) ** exp * rest)
        return _from_fraction(Fraction(val), formula)
    # ceil shifts the log by < 2^-exp here: far below float resolution
    return BoundValue(None, _log2_int(factor) + e + _log2_frac(rest), formula)


def wrl_hidden_dim(eps, L, d0, dL):
    """Hidden width 8*M*L*ceil(2^(2*ceil(16/eps^2))/eps) of the coarse kernel."""
    eps = _frac(eps)
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if L < 1 or d0 < 1 or dL < 1:
        raise ParameterError("dimensions must be positive")
    M = math.lcm(d0, dL)
    e = 2 * math.ceil(16 / eps**2)
    return _scaled_pow2_ceil(e, 1 / eps, 8 * M * L, "wrl_hidden_dim")


def compression_hidden_dim(eps, B, L, d0, dL):
    """Hidden width sufficient for a uniform eps-approximation of outputs.

    The regularity width evaluated at accuracy eps / ((L+2) dL (2B)^L),
    i.e. 8*M*L*ceil(2^(2*ceil(16((L+2)dL)^2(2B)^(2L)/eps^2)) (L+2)dL(2B)^L / eps).
    """
    eps, B = _frac(eps), _frac(B)
    if L < 1 or d0 < 1 or dL < 1:
        raise ParameterError("dimensions must be positive")  # before dL divides
    if B < L + 2:
        raise ParameterError(f"need B >= L+2, got B={_show(B)}, L={L}")
    try:
        v = wrl_hidden_dim(eps / ((L + 2) * dL * (2 * B) ** L), L, d0, dL)
    except CapacityError as exc:
        raise CapacityError(f"compression_hidden_dim via {exc}") from None
    return replace(v, formula="compression_hidden_dim")


def vc_lower_bound(eps, d0, c=1):
    """Parameter count c^(-1/2) (6 eps)^(-d0/2) forced by shattering a grid.

    Only meaningful for eps in (0, 1/3); outside that range the spike
    construction does not stay 1-Lipschitz and bounded, so the evaluator
    rejects it rather than extrapolate.
    """
    eps, c, f = _frac(eps), _frac(c), "vc_lower_bound"
    if not 0 < eps < Fraction(1, 3):
        raise ParameterError(f"eps must lie in (0, 1/3), got {_show(eps)}")
    if c <= 0 or d0 < 1:
        raise ParameterError("need c > 0 and d0 >= 1")
    # q = r^d0 / c has an integer root only if it is an integer, which needs
    # b^d0 to divide c's denominator; q is formed only then, and only if its
    # parts stay within MAX_EXACT_BITS
    r = 1 / (6 * eps)
    a, b = r.numerator, r.denominator
    integral = b == 1 or d0 * (b.bit_length() - 1) < c.denominator.bit_length()
    bits = d0 * Fraction(_log2_int(max(a, b))) + max(c.numerator, c.denominator).bit_length()
    if integral and bits <= MAX_EXACT_BITS:
        root = _isqrt_frac(r**d0 / c)
        if root is not None and root.denominator == 1:
            return _from_fraction(root, f)
    log2_q = d0 * Fraction(_log2_frac(r)) - Fraction(_log2_frac(c))
    return BoundValue(None, _as_float(log2_q / 2, f), f)


def _threshold_terms(B, L, dL, c):
    """d0_threshold's terms m = ceil(17 log2(sqrt(c) A)), A and T, exactly, and
    the threshold itself, m + ceil(17 T) + 306.

    m = ceil(k/2) for k = ceil(x), x = 17 log2(c A^2), read off a float x
    summed from the logs of the parts of c and A. Each ``_log2_int`` is off
    by at most 2^-46 + 2^-53 |log|, and the sum and the product by 17 round
    by at most 2^-53 of s = 17 (sum of the logs' magnitudes) each, so the
    float x is within 2^-40 (s + 1024) of the true one. Only when it lies
    that close to an integer is (c A^2)^17 formed and compared exactly.
    """
    B, c = _frac(B), _frac(c)
    if B < L + 2:
        raise ParameterError(f"need B >= L+2, got B={_show(B)}, L={L}")
    if c <= 0 or dL < 1 or L < 2:
        raise ParameterError("need c > 0, dL >= 1, L >= 2")
    A = Fraction(L) ** 3 * (L + 2) ** 2 * Fraction(dL) ** 4 * (2 * B) ** (2 * L)
    T = Fraction(2) ** 14 * (L + 2) ** 2 * dL**2 * (2 * B) ** (2 * L)
    logs = [_log2_int(c.numerator), -_log2_int(c.denominator),
            2 * _log2_int(A.numerator), -2 * _log2_int(A.denominator)]
    x = 17 * sum(logs)
    if abs(x - round(x)) > 2.0**-40 * (17 * sum(map(abs, logs)) + 1024):
        k = math.ceil(x)
    else:
        # the smallest k with 2^k >= p/q = (c A^2)^17 is a-b or a-b+1, a
        # and b the bit lengths of p and q
        nd = (c * A * A) ** 17
        p, q = nd.numerator, nd.denominator
        k = p.bit_length() - q.bit_length()
        k += (p << max(-k, 0)) > (q << max(k, 0))
    m = -(-k // 2)
    return m, A, T, m + math.ceil(17 * T) + 306


def d0_threshold(B, L, dL, c=1):
    """Input dimension beyond which width cannot buy universality.

    17*log2(sqrt(c) L^3 (L+2)^2 dL^4 (2B)^(2L)) + 17*2^14 (L+2)^2 dL^2 (2B)^(2L) + 306,
    with each term rounded up to keep the total an exact sufficient integer.
    """
    *_, threshold = _threshold_terms(B, L, dL, c)
    return _from_fraction(Fraction(threshold), "d0_threshold")


@dataclass(frozen=True)
class NonUniversalityReport:
    """Comparison of the compressed parameter count against the VC floor.

    ``margin_log2`` is the slack in the sufficient condition d0/17 >=
    log2(sqrt(c) L^3 (L+2)^2 dL^4 (2B)^(2L)) + 2^14 (L+2)^2 dL^2 (2B)^(2L) + 18;
    it grows linearly in d0. ``holds`` certifies the gap via the exact
    integer threshold. The direct comparison (compressed count W-tilde at
    accuracy 1/16 versus the VC lower bound at 1/8) is also reported.
    """

    d0: int
    threshold: int
    holds: bool
    margin_log2: float
    wtilde_log2: float
    vc_lower_log2: float

    @property
    def direct_gap_log2(self):
        return self.vc_lower_log2 - self.wtilde_log2

    def __str__(self):
        verdict = "holds" if self.holds else "fails"
        return (
            f"non-universality gap {verdict}: d0 = {self.d0}, threshold = "
            f"{self.threshold}, margin_log2 = {self.margin_log2:.6g}, "
            f"W~ log2 = {self.wtilde_log2:.6g} vs VC log2 = {self.vc_lower_log2:.6g}"
        )


def non_universality_check(B, L, dL, d0, c=1):
    """Does compression cap the parameter count below the VC requirement?

    Evaluates, in log2, the parameter bound W-tilde of the compressed
    family (at half the working accuracy 1/8) and the VC lower bound at
    1/8, plus the exact integer threshold on d0 that certifies the gap.
    """
    if d0 < 1:
        raise ParameterError("need d0 >= 1")
    _, A, T, threshold = _threshold_terms(B, L, dL, c)
    f, half_log2_c = "non_universality_check", 0.5 * _log2_frac(_frac(c))
    t, d0f = _as_float(T, f), _as_float(d0, f)
    margin_log2 = d0f / 17.0 - (half_log2_c + _log2_frac(A) + t + 18.0)
    wtilde_log2 = 2.0 * math.log2(d0) + _log2_frac(A) + t + 18.0
    vc_lower_log2 = (d0f / 2.0) * math.log2(4.0 / 3.0) - half_log2_c
    return NonUniversalityReport(
        int(d0), threshold, d0 >= threshold, margin_log2, wtilde_log2, vc_lower_log2
    )


class SpikeTarget:
    """Sum of disjoint radial spikes centered on a regular grid.

    f(x) = sum_m y_m * phi(N (x - x_m)) with phi(v) = max(0, 1 - 2 |v|_2),
    over the N^d0 grid of cell centers in [0,1]^d0 (lexicographic order).
    The spikes have disjoint supports, so f hits y_m exactly at x_m, and
    |y_m| <= 1/(2N) makes f 1-Lipschitz.
    """

    def __init__(self, d0, N, labels):
        if N < 1 or d0 < 1:
            raise ParameterError("need N >= 1 and d0 >= 1")
        labels = np.asarray(labels, dtype=float)
        if labels.shape != (N**d0,):
            raise ParameterError(
                f"labels must have length N^d0 = {N ** d0}, got {labels.shape}"
            )
        self.d0 = d0
        self.N = N
        self.labels = labels

    def grid_points(self):
        axes = [(np.arange(self.N) + 0.5) / self.N] * self.d0
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.d0:
            raise ParameterError(f"inputs must have {self.d0} coordinates")
        cells = np.clip(np.floor(pts * self.N).astype(int), 0, self.N - 1)
        centers = (cells + 0.5) / self.N
        r = np.linalg.norm(pts - centers, axis=-1)
        phi = np.maximum(0.0, 1.0 - 2.0 * self.N * r)
        idx = np.ravel_multi_index(cells.T, (self.N,) * self.d0)
        out = self.labels[idx] * phi
        return float(out[0]) if squeeze else out
