"""Special functions backing the norm formulas.

Log-gamma plumbing, generalized hypergeometric series with explicit tail
bounds, the smallest Bessel J0 zero, Catalan's constant, and Riemann zeta.
Everything here is pure and thread-safe.

Hypergeometric series are summed below unit argument in numpy blocks: the
exact term ratio of a whole block is formed in one expression and the
terms are its cumulative product, carried on from the block before, one
row for each argument of a grid, and the tail bound is a geometric tail
once the ratio is provably monotone.  The one series summed at unit
argument, Thomae's form of the constant A(p), is one block of 4096 terms
whose tail is bracketed between two Gamma-ratio tails that match the terms
through their n^-2 order.  Both add a count of every rounding behind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, PrecisionError

TERM_CAP = 10_000_000
_EPS = 2.220446049250313e-16

# Interior series are summed in numpy blocks of 64 terms doubling to 2^14,
# Thomae's series for A(p) in one block of 4096.  Roundings behind the bound,
# each counted as eps (twice the unit roundoff, which also covers the
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
# terms held at once by a grid's block: about 2 MB a row-chunk array
_GRID_CELLS = 1 << 18


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
    """Parameters of pFq(upper; lower; argument), each argument in [0, 1).

    A grid of arguments (any sequence or array) is kept as a flat tuple."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    argument: float | tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))
        for b in self.lower:
            if b <= 0 and b == int(b):
                raise DomainError(f"lower parameter {b} is a nonpositive integer")
        grid = np.asarray(self.argument, dtype=float)
        outside = ~((grid >= 0.0) & (grid < 1.0))
        if outside.any():
            raise DomainError(f"argument {float(grid[outside][0])!r} outside [0, 1)")
        object.__setattr__(self, "argument", tuple(grid.ravel().tolist()) if grid.ndim else float(grid))


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not positive, NaN among them, before any term."""
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")


def _thomae_sum(a, b, tol):
    """Gamma(b)/Gamma(c)^2 3F2(-a, 1, b; c, c; 1), c = a + b: A(p) by Thomae.

    Summed for a = q/2 and b = 2 - q, q in [1, 2).  The terms have the ratio
    r(n) = (n-a)(n+b)/(n+c)^2 (the upper 1 cancels the factorial), keep the
    sign of t_1 after t_0 = 1, never exceed 1 in size, since |(n-a)(n+b)| <
    (n+c)^2, and decay like n^-s, s = 1 + 2c - (1 - a + b) = 2 + q/2 >= 2.5.
    One block, t_0 and 4096 terms, is summed, and its tail is bracketed
    against g_n = Gamma(n+beta)/Gamma(n+beta+s): its ratio (n+beta)/(n+beta+s)
    matches r(n) through the 1/n^2 term, its tail from N sums exactly to
    g_N (N+beta+s-1)/(s-1), and past N, t_n/g_n moves by at most a factor
    exp(+-drift), where drift bounds the summed remainders |log r(n) -
    log(g_{n+1}/g_n)| = O(n^-3).  Every shift -a, b, c, beta, beta+s is at
    most 1.9 in size, below N = 4097, where drift is at most 1.5e-7 for
    every q in [1, 2), so the block brackets its tail.  Rounding in s tilts
    the tail by at most 52 eps, below the (10 N + 8) eps that the ratios'
    roundings add.  The bound is at most 1.24e-13 max(1, A) on q in [1, 2 -
    1e-6] (20,001 values); a tol it misses raises PrecisionError with the
    block as ``best``.
    """
    c = a + b
    scale = math.gamma(b) / math.gamma(c) ** 2
    s = 1.0 + 2.0 * c - (1.0 - a + b)
    down_sq, up_sq = 2.0 * c * c, a * a + b * b
    beta = (down_sq - up_sq - s * s) / (2.0 * s)
    # log(1 + x/n) terms of log r(n) - log(g_{n+1}/g_n), as (x, multiplicity)
    shifts = ((-a, 1), (b, 1), (c, 2), (beta, 1), (beta + s, 1))
    roundings = _RATIO_ROUNDINGS + 2 * (2 + 2)  # 2(p+q) + 2 with p = q = 2
    # rounding in beta leaves a 1/n^2 mismatch of at most `mismatch`, which
    # sums to mismatch/B past N
    mismatch = 8 * _EPS * max(s * s, down_sq + up_sq)

    def ratio(n):
        return (n - a) * (n + b) / ((n + c) * (n + c))

    n = np.arange(_UNIT_BLOCK, dtype=float)
    terms = ratio(n).cumprod()  # t_1 .. t_B, B = 4096
    mags = np.abs(terms)
    n += 1.0
    total = 1.0 + float(terms.sum())  # t_0 = 1
    sum_err = _EPS * (_SUM_ROUNDINGS * float(mags.sum()) + abs(total))
    weighted = float(np.dot(n, mags))  # sum of n |t_n|
    big_n = _UNIT_BLOCK + 1
    # sum of n^-3 over n >= N is below 1/(2 B^2)
    drift = mismatch / _UNIT_BLOCK + sum(
        m * abs(x) ** 3 / (3.0 * (1.0 - abs(x) / big_n)) for x, m in shifts
    ) / (2.0 * _UNIT_BLOCK * _UNIT_BLOCK)
    next_term = float(terms[-1]) * ratio(float(_UNIT_BLOCK))
    slack = (roundings * big_n + 8) * _EPS
    mid = next_term * (big_n + beta + s - 1.0) / (s - 1.0)
    lo = mid * math.exp(-drift) * (1.0 - slack)
    hi = mid * math.exp(drift) * (1.0 + slack)
    value = scale * (total + 0.5 * (lo + hi))
    floor = scale * (sum_err + roundings * _EPS * weighted)
    floor += _SCALE_ROUNDINGS * _EPS * abs(value)
    bound = scale * 0.5 * abs(hi - lo) + floor
    result = SeriesValue(value, big_n, bound)
    if bound > tol * max(1.0, abs(value)):
        raise PrecisionError(
            f"tolerance {tol:g} unreachable for A(p): bound {bound:g} after {big_n} terms", best=result
        )
    return result


def _sum_blocked(upper, lower, x, tol):
    """Sum pFq(upper; lower; x) for p <= q + 1 at every entry of the array x.

    Returns rows of values, terms used and tail bounds.  The entries share
    one block schedule, each with its own carry, sums, floor and tail, and
    each leaves at the block where its own bound meets its target.  R bounds
    every ratio past n because, once a+n and c+n are positive, each factor
    (a+m)/(c+m) is monotone in m and so stays below max((a+n)/(c+n), 1); a
    lower parameter left unpaired gives 1/(c+n).
    """
    denominators = sorted(lower + (1.0,))
    pairs = list(zip(sorted(upper), denominators))
    unpaired = denominators[len(pairs):]
    values, used, bounds = np.ones(x.size), np.ones(x.size, dtype=int), np.zeros(x.size)
    live = np.flatnonzero(x != 0.0)
    settled = max(-c for c in upper + tuple(denominators))
    roundings = _RATIO_ROUNDINGS + 2 * (len(upper) + len(lower))
    total, carry = np.ones(live.size), np.ones(live.size)  # t_0
    n0, size, blocks = 0, _FIRST_BLOCK, 0  # n0: index of the last summed term
    sum_err = np.zeros(live.size)  # roundings of the carries, block sums and their total
    weighted = np.zeros(live.size)  # sum of n |t_n|: t_n carries n ratios
    while live.size:
        blocks += 1
        n = np.arange(n0, n0 + size, dtype=float)
        den = n + 1.0
        for b in lower:
            den *= b + n
        step = max(1, _GRID_CELLS // len(n))
        for lo in range(0, live.size, step):
            rows = slice(lo, lo + step)
            num = np.repeat(x[live[rows], None], len(n), axis=1)
            for a in upper:
                num *= a + n
            num /= den
            terms = np.cumprod(num, axis=1)  # t_{n0+1} .. t_{n0+len(n)}
            terms *= carry[rows, None]
            mags = np.abs(terms)
            total[rows] += terms.sum(axis=1)
            sum_err[rows] += (_SUM_ROUNDINGS + blocks) * mags.sum(axis=1) + np.abs(total[rows])
            mags *= n + 1.0
            weighted[rows] += mags.sum(axis=1)
            carry[rows] = terms[:, -1]
        if not np.isfinite(total + weighted).all():  # numpy overflows quietly
            raise PrecisionError(f"series terms overflow double precision within {n0 + len(n)} terms")
        n0 += len(n)
        floor = _EPS * (sum_err + roundings * weighted)
        tail = np.full(live.size, math.inf)
        if n0 > settled:
            # R, raised past the roundings of its own evaluation
            ratio_sup = x[live]
            for a, c in pairs:
                ratio_sup = ratio_sup * max((a + n0) / (c + n0), 1.0)
            for c in unpaired:
                ratio_sup = ratio_sup / (c + n0)
            ratio_sup = ratio_sup * (1.0 + roundings * _EPS)
            below = ratio_sup < 1.0
            tail[below] = np.abs(carry[below]) * ratio_sup[below] / (1.0 - ratio_sup[below])
            tail[below] *= 1.0 + _EPS * (roundings * n0 + blocks + 4)
        bound = tail + floor
        target = tol * np.maximum(1.0, np.abs(total))
        done = bound <= target
        values[live[done]], used[live[done]], bounds[live[done]] = total[done], n0 + 1, bound[done]
        # Every later term adds at least roundings * (n0+1) * eps times its
        # size to the floor and at most its size to |value|, so once that
        # rate reaches tol, or once the tail is bounded, a floor above the
        # target can never fall below it again.
        hopeless = (floor > target) & (
            (roundings * _EPS * (n0 + 1) >= tol) | (floor > tol * np.maximum(1.0, np.abs(total) + tail))
        )
        refused = ~done & (hopeless | ~np.isfinite(floor) | (n0 + 1 > TERM_CAP))
        if refused.any():
            i = int(np.argmax(refused))
            raise PrecisionError(
                f"tolerance {tol:g} unreachable at argument {float(x[live[i]])!r}: bound "
                f"{bound[i]:g} after {n0 + 1} terms, rounding floor {floor[i]:g}",
                best=SeriesValue(float(total[i]), n0 + 1, float(bound[i])),
            )
        live, total, carry, sum_err, weighted = (a[~done] for a in (live, total, carry, sum_err, weighted))
        size = min(2 * size, _LAST_BLOCK)
    return np.array([values, used, bounds])


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused, not warned
def hyp_pfq(spec: HypergeometricSpec, tol: float) -> SeriesValue:
    """Sum pFq(upper; lower; x) for x in [0, 1) with an honest tail bound.

    The terms are built in numpy blocks of 64 to 2^14 as cumulative products
    of the exact ratio x prod(a+n) / (prod(b+n) (n+1)); signs follow from
    the signed factors.  Once n exceeds every negative parameter the ratio
    is bounded for good by R = x prod max((a+n)/(c+n), 1), pairing the
    sorted upper parameters with the sorted (lower..., 1), and the tail past
    t_n is at most |t_n| R/(1-R).  tail_bound adds that to a rounding floor
    counting every rounding of the running product and of the block sums.  A
    tolerance that the floor alone provably exceeds raises PrecisionError at
    once, with the partial sum as ``best``.  A series with an upper
    parameter -k has exact zero terms past t_k and is summed like any
    other.  Terms that overflow double precision raise PrecisionError, and
    p > q + 1 diverges (DivergenceError) at every x > 0.

    A grid of arguments is summed in one pass: value and tail_bound are
    arrays, each entry bit-identical to a call on that argument alone, and
    terms_used is the most terms any entry took.  Every check applies to
    each entry; a refusal names the entry's argument.
    """
    _check_tol(tol)
    p, q = len(spec.upper), len(spec.lower)
    x = np.atleast_1d(np.asarray(spec.argument, dtype=float))
    if p > q + 1 and (x > 0.0).any():
        raise DivergenceError(
            f"{p}F{q} has zero radius of convergence for positive argument"
        )
    value, used, bound = _sum_blocked(spec.upper, spec.lower, x, tol)
    if isinstance(spec.argument, tuple):
        return SeriesValue(value, int(used.max()), bound)
    return SeriesValue(float(value[0]), int(used[0]), float(bound[0]))


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
    _check_tol(tol)
    value, n, bound = _sum_alternating(lambda k: 1.0 / (2 * k + 1.0) ** 2, tol)
    return SeriesValue(value, n, bound)


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1 via the accelerated alternating eta series."""
    if not s > 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    eta, _, _ = _sum_alternating(lambda k: (k + 1.0) ** (-s), 1e-14)
    return eta / (1.0 - 2.0 ** (1.0 - s))

