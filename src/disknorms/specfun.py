"""Scalar special functions backing the norm formulas.

Log-gamma plumbing, generalized hypergeometric series with explicit tail
bounds, the smallest Bessel J0 zero, Catalan's constant, and Riemann zeta.
Everything here is pure and thread-safe.

Hypergeometric series are summed in numpy blocks: the exact term ratio of a
whole block is formed in one expression and the terms are its cumulative
product, carried on from the block before.  Below unit argument the tail
bound is a geometric tail once the ratio is provably monotone; at unit
argument the tail is bracketed between two Gamma-ratio tails that match the
terms through their n^-2 order.  Both add a count of every rounding behind
the summed terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, PrecisionError

TERM_CAP = 10_000_000
_EPS = 2.220446049250313e-16

# Interior series are summed in numpy blocks of 64 terms doubling to 2^14,
# unit-argument series in blocks of 4096.  Roundings behind the bound, each
# counted as eps (twice the unit roundoff, which also covers the
# higher-order terms): a term t_n carries n ratios, and each ratio step
# costs one rounding per parameter shift (a+n, b+n), one per product with
# x, a or b, one division and one in the cumulative product, 2(p+q) + 2 in
# all (p counts no upper 1 that cancels the factorial); a term of the j-th
# block has also passed through j products with a block's carry; numpy's
# pairwise sum of a block of at most 2^14 terms needs at most 25 roundings
# (32 are counted); 64 relative roundings cover a Gamma-ratio scale
# (math.gamma is good to 3 ulps on (0, 2]) and the roundings of its inputs.
_FIRST_BLOCK = 64
_LAST_BLOCK = 1 << 14
_UNIT_BLOCK = 4096
_RATIO_ROUNDINGS = 2
_SUM_ROUNDINGS = 32
_SCALE_ROUNDINGS = 64


@dataclass(frozen=True)
class SeriesValue:
    """A summed series plus a bound on what the summation left behind.

    The exact sum lies in [value - tail_bound, value + tail_bound].
    """

    value: float
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of pFq(upper; lower; argument) with argument in [0, 1]."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    argument: float

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))
        for b in self.lower:
            if b <= 0 and b == int(b):
                raise DomainError(f"lower parameter {b} is a nonpositive integer")
        if not 0.0 <= self.argument <= 1.0:
            raise DomainError(f"argument {self.argument} outside [0, 1]")


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-integer x (and +1 for positive x)."""
    if x > 0:
        return 1.0
    if x == int(x):
        raise DomainError(f"Gamma sign undefined at the pole x = {x}")
    return -1.0 if int(math.floor(x)) % 2 else 1.0


def _check_finite(x: float, terms: int) -> None:
    # the summation kernels let numpy overflow quietly, then refuse here
    if not math.isfinite(x):
        raise PrecisionError(
            f"series terms overflow double precision within {terms} terms"
        )


def _stops(upper):
    """The k of every upper parameter -k: each makes t_k the last nonzero term."""
    return [int(-a) for a in upper if a <= 0.0 and a.is_integer()]


def _sum_unit_argument(upper, lower, tol, scale=1.0):
    """scale * pFq(upper; lower; 1) for p = q + 1, bracketed (see hyp_pfq).

    The terms have the ratio r(n) = prod(n+a) / prod(n+d) over the upper
    parameters a and the denominators d (the lower parameters and the
    factorial's 1, which an upper parameter 1 cancels) and decay like n^-s,
    s = 1 + sum(lower) - sum(upper).  The tail past the last summed term is
    bracketed against g_n = Gamma(n+beta)/Gamma(n+beta+s): its ratio
    (n+beta)/(n+beta+s) matches r(n) through the 1/n^2 term, its tail from N
    sums exactly to g_N (N+beta+s-1)/(s-1), and once N exceeds every |shift|
    t_n/g_n moves by at most a factor exp(+-drift) past N, where drift bounds
    the summed remainders |log r(n) - log(g_{n+1}/g_n)| = O(n^-3).
    """
    s = 1.0 + sum(lower) - sum(upper)
    if s <= 1.0:
        raise ConvergenceError(
            f"pFq diverges at unit argument (decay exponent {s:.6g} <= 1)"
        )
    ups, downs = list(upper), list(lower)
    if 1.0 in ups:
        ups.remove(1.0)
    else:
        downs.insert(0, 1.0)
    down_sq = sum(d * d for d in downs)
    up_sq = sum(a * a for a in ups)
    beta = (down_sq - up_sq - s * s) / (2.0 * s)
    # log(1 + x/n) terms of log r(n) - log(g_{n+1}/g_n), as x: multiplicity
    shifts = {}
    for x in ups + downs + [beta, beta + s]:
        shifts[x] = shifts.get(x, 0) + 1
    reach = max(abs(x) for x in shifts)
    roundings = _RATIO_ROUNDINGS + 2 * (len(ups) + len(lower))
    # Rounding in beta leaves a 1/n^2 mismatch of at most `mismatch`, which
    # sums to mismatch/n0 past N; rounding in s tilts the decay exponent,
    # which moves the tail by about that error over s - 1 (`tilt` roundings).
    mismatch = (len(ups) + len(downs) + 4) * _EPS * max(s * s, down_sq + up_sq)
    tilt = 2 * (len(upper) + len(lower) + 1) * (1.0 + sum(map(abs, upper + lower)))
    tilt /= s - 1.0

    def ratio(n):  # factors multiplied left to right, in the given order
        num, den = n + ups[0], n + downs[0]
        for a in ups[1:]:
            num *= n + a
        for d in downs[1:]:
            den *= n + d
        return num / den

    total = carry = 1.0  # t_0
    n0 = 0
    sum_err = weighted = 0.0  # summation rounding; sum of n |t_n|
    while True:
        n = np.arange(n0, n0 + _UNIT_BLOCK, dtype=float)
        terms = ratio(n).cumprod()  # t_{n0+1} .. t_{n0+B}
        terms *= carry
        mags = np.abs(terms)
        n += 1.0
        total += float(terms.sum())
        sum_err += _EPS * (_SUM_ROUNDINGS * float(mags.sum()) + abs(total))
        weighted += float(np.dot(n, mags))
        _check_finite(total + weighted, n0 + _UNIT_BLOCK)
        n0 += _UNIT_BLOCK
        carry = float(terms[-1])
        big_n = n0 + 1
        value, bound, floor, drift = scale * total, math.inf, 0.0, math.inf
        if big_n > reach:
            # sum of n^-3 over n >= N is below 1/(2 n0^2)
            drift = mismatch / n0 + sum(
                m * abs(x) ** 3 / (3.0 * (1.0 - abs(x) / big_n))
                for x, m in shifts.items()
            ) / (2.0 * n0 * n0)
        if drift < 1.0:  # a bracket within a factor e of its middle
            next_term = carry * ratio(float(n0))
            slack = max(roundings * big_n + 8, tilt) * _EPS
            mid = next_term * (big_n + beta + s - 1.0) / (s - 1.0)
            lo = mid * math.exp(-drift) * (1.0 - slack)
            hi = mid * math.exp(drift) * (1.0 + slack)
            value = scale * (total + 0.5 * (lo + hi))
            floor = scale * (sum_err + roundings * _EPS * weighted)
            floor += _SCALE_ROUNDINGS * _EPS * abs(value)
            bound = scale * 0.5 * abs(hi - lo) + floor
        target = tol * max(1.0, abs(value))
        if bound <= target:
            return SeriesValue(value, big_n, bound)
        if drift < 1.0:
            # no later bound drops below tilt eps times a middle still `share` of
            # this one: Gamma(x)/Gamma(x+u) is in [(x+u)^-u, x^-u (1+1/x)], x > 0
            x0 = big_n + beta
            share = (x0 / (TERM_CAP + _UNIT_BLOCK + beta + s - 1.0)) ** (s - 1.0)
            share *= math.exp(-drift) / (1.0 + 1.0 / x0)
            floor = max(floor, scale * abs(mid) * tilt * _EPS * share)
        if floor > target or big_n > TERM_CAP:
            raise PrecisionError(
                f"tolerance {tol:g} unreachable at unit argument: bound "
                f"{bound:g} after {big_n} terms, rounding floor {floor:g}",
                best=SeriesValue(value, big_n, bound),
            )


def _sum_blocked(upper, lower, x, tol):
    """Sum pFq(upper; lower; x) for p <= q + 1 in numpy blocks (see hyp_pfq).

    R bounds every ratio past n because, once a+n and c+n are positive,
    each factor (a+m)/(c+m) is monotone in m and so stays below
    max((a+n)/(c+n), 1); a lower parameter left unpaired gives 1/(c+n).
    """
    denominators = sorted(lower + (1.0,))
    pairs = list(zip(sorted(upper), denominators))
    unpaired = denominators[len(pairs):]
    last = min(_stops(upper), default=math.inf)
    if x == 0.0 or last == 0:
        return SeriesValue(1.0, 1, 0.0)
    settled = max(-c for c in upper + tuple(denominators))
    roundings = _RATIO_ROUNDINGS + 2 * (len(upper) + len(lower))
    total = carry = 1.0  # t_0
    n0 = 0  # index of the last summed term
    size = _FIRST_BLOCK
    blocks = 0
    sum_err = 0.0  # roundings of the carries, block sums and their total
    weighted = 0.0  # sum of n |t_n|: t_n carries n ratios
    while True:
        blocks += 1
        n = np.arange(n0, min(n0 + size, last), dtype=float)
        num = np.full(len(n), x)
        for a in upper:
            num *= a + n
        den = n + 1.0
        for b in lower:
            den *= b + n
        terms = carry * np.cumprod(num / den)  # t_{n0+1} .. t_{n0+len(n)}
        mags = np.abs(terms)
        total += float(terms.sum())
        sum_err += (_SUM_ROUNDINGS + blocks) * float(mags.sum()) + abs(total)
        weighted += float(np.dot(n + 1.0, mags))
        _check_finite(total + weighted, n0 + len(n))
        n0 += len(n)
        carry = float(terms[-1])
        floor = _EPS * (sum_err + roundings * weighted)
        tail = math.inf
        if n0 == last:
            tail = 0.0
        elif n0 > settled:
            # R, raised past the roundings of its own evaluation
            ratio_sup = x
            for a, c in pairs:
                ratio_sup *= max((a + n0) / (c + n0), 1.0)
            for c in unpaired:
                ratio_sup /= c + n0
            ratio_sup *= 1.0 + roundings * _EPS
            if ratio_sup < 1.0:
                tail = abs(carry) * ratio_sup / (1.0 - ratio_sup)
                tail *= 1.0 + _EPS * (roundings * n0 + blocks + 4)
        bound = tail + floor
        target = tol * max(1.0, abs(total))
        if bound <= target:
            return SeriesValue(total, n0 + 1, bound)
        # Every later term adds at least roundings * (n0+1) * eps times its
        # size to the floor and at most its size to |value|, so once that
        # rate reaches tol, or once the tail is bounded, a floor above the
        # target can never fall below it again.
        hopeless = floor > target and (
            roundings * _EPS * (n0 + 1) >= tol
            or floor > tol * max(1.0, abs(total) + tail)
        )
        if hopeless or not math.isfinite(floor) or n0 + 1 > TERM_CAP:
            raise PrecisionError(
                f"tolerance {tol:g} unreachable: bound {bound:g} after "
                f"{n0 + 1} terms, rounding floor {floor:g}",
                best=SeriesValue(total, n0 + 1, bound),
            )
        size = min(2 * size, _LAST_BLOCK)


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused, not warned
def hyp_pfq(spec: HypergeometricSpec, tol: float) -> SeriesValue:
    """Sum pFq(upper; lower; x) for x in [0, 1] with an honest tail bound.

    Below unit argument (and for p < q + 1 at x = 1) the terms are built in
    numpy blocks of 64 to 2^14 as cumulative products of the exact ratio
    x prod(a+n) / (prod(b+n) (n+1)); signs follow from the signed factors.
    Once n exceeds every negative parameter the ratio is bounded for good by
    R = x prod max((a+n)/(c+n), 1), pairing the sorted upper parameters with
    the sorted (lower..., 1), and the tail past t_n is at most |t_n| R/(1-R).
    tail_bound adds that to a rounding floor counting every rounding of the
    running product and of the block sums.  A tolerance that the floor alone
    provably exceeds raises PrecisionError at once, with the partial sum as
    ``best``.  A series with an upper parameter -k stops after k+1 terms.
    Terms that overflow double precision raise PrecisionError.

    At x = 1 with p = q + 1 (decay n^-s, s = 1 + sum(lower) - sum(upper) > 1)
    the tail past each block of 4096 is bracketed by that of Gamma(n+beta) /
    Gamma(n+beta+s), which matches the terms through n^-2.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    p, q, x = len(spec.upper), len(spec.lower), spec.argument
    if p > q + 1 and x > 0.0:
        raise ConvergenceError(
            f"{p}F{q} has zero radius of convergence for positive argument"
        )
    # a terminating series is a polynomial, summed to its last term below
    if x == 1.0 and p == q + 1 and not _stops(spec.upper):
        return _sum_unit_argument(spec.upper, spec.lower, tol)
    return _sum_blocked(spec.upper, spec.lower, x, tol)


def gauss_2f1_at_1(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))."""
    if c <= 0 and c == int(c):
        raise DomainError(f"c = {c} is a nonpositive integer")
    if a == 0.0 or b == 0.0:
        return 1.0  # the series terminates at its first term
    excess = c - (a + b)  # one rounding: near 0 the Gamma pole magnifies it
    if excess <= 0:
        raise DivergenceError(
            f"2F1 at unit argument diverges: c - a - b = {excess:.6g} <= 0"
        )
    for arg in (c, c - a, c - b):
        if arg <= 0:
            raise DomainError(f"Gamma argument {arg:.6g} <= 0 unsupported here")
    return math.exp(
        ln_gamma(c) + ln_gamma(excess) - ln_gamma(c - a) - ln_gamma(c - b)
    )


def _bessel_j0(x: float) -> float:
    # J0(x) = sum_k (-1)^k (x/2)^{2k} / (k!)^2; fast for |x| < 10.
    t = 1.0
    s = 1.0
    k = 0
    y = 0.25 * x * x
    while abs(t) > 1e-18:
        k += 1
        t = -t * y / (k * k)
        s += t
    return s


def _bessel_j0_deriv(x: float) -> float:
    t = -0.5 * x
    s = t
    k = 1
    y = 0.25 * x * x
    while abs(t) > 1e-18:
        t = -t * y / (k * (k + 1))
        s += t
        k += 1
    return s


@lru_cache(maxsize=1)
def bessel_j0_smallest_zero() -> float:
    """Smallest positive zero of J0, by Newton iteration from 2.4."""
    x = 2.4
    for _ in range(50):
        step = _bessel_j0(x) / _bessel_j0_deriv(x)
        x -= step
        if abs(step) < 1e-15:
            break
    return x


def _sum_alternating(term, tol):
    """Accelerated sum of sum_k (-1)^k term(k), term positive decreasing.

    Chebyshev-weighted acceleration for totally monotone coefficients;
    error shrinks like (3 + sqrt(8))^{-n}.
    """
    a0 = term(0)
    n = max(8, int(math.ceil(math.log(max(8.0 * a0 / tol, 8.0)) / 1.7627471740391)))
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * term(k)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    value = s / d
    bound = 4.0 * a0 / (3.0 + math.sqrt(8.0)) ** n + 4.0 * n * _EPS * max(a0, abs(value))
    return value, n, bound


def catalan_constant(tol: float) -> SeriesValue:
    """Catalan's constant sum_k (-1)^k / (2k+1)^2 with tail_bound <= tol."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    # Plain alternating summation when a handful of terms already suffices;
    # the first omitted term bounds the tail.
    if 1.0 / 9.0 <= tol:
        s = 0.0
        for k in range(32):
            nxt = 1.0 / (2 * (k + 1) + 1.0) ** 2
            s += (-1.0) ** k / (2 * k + 1.0) ** 2
            if nxt <= tol:
                return SeriesValue(s, k + 1, nxt)
    value, n, bound = _sum_alternating(lambda k: 1.0 / (2 * k + 1.0) ** 2, tol)
    return SeriesValue(value, n, bound)


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1 via the accelerated alternating eta series."""
    if s <= 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    eta, _, _ = _sum_alternating(lambda k: (k + 1.0) ** (-s), 1e-14)
    return eta / (1.0 - 2.0 ** (1.0 - s))

