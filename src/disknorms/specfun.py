"""Scalar special functions backing the norm formulas.

Log-gamma and Pochhammer plumbing, generalized hypergeometric series with
explicit tail bounds, the smallest Bessel J0 zero, Catalan's constant, and
Riemann zeta.  Everything here is pure and thread-safe.

Hypergeometric series below unit argument are summed in numpy blocks: the
exact term ratio of a whole block is formed in one expression and the terms
are its cumulative product, carried on from the block before.  The tail
bound is built from that ratio (a geometric tail once the ratio is provably
monotone) plus a count of every rounding behind the summed terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, PrecisionError

TERM_CAP = 10_000_000
_MIN_TERMS = 50
_EPS = 2.220446049250313e-16

# Interior series are summed in numpy blocks of 64 terms doubling to 2^14.
# Roundings behind the bound, each counted as eps (twice the unit roundoff,
# which also covers the higher-order terms): a term t_n carries n ratios,
# and each ratio step costs one rounding per parameter shift (a+n, b+n), one
# per product with x, a or b, one division and one in the cumulative
# product, 2(p+q) + 2 in all; a term of the j-th block has also passed
# through j products with a block's carry; numpy's pairwise sum of a block
# of at most 2^14 terms needs at most 25 roundings (32 are counted).
_FIRST_BLOCK = 64
_LAST_BLOCK = 1 << 14
_RATIO_ROUNDINGS = 2
_SUM_ROUNDINGS = 32


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


def pochhammer_log(q: float, n: int) -> float:
    """log of the rising factorial (q)_n = Gamma(q+n)/Gamma(q), q > 0."""
    if n < 0:
        raise DomainError(f"pochhammer_log requires n >= 0, got {n}")
    return ln_gamma(q + n) - ln_gamma(q)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-integer x (and +1 for positive x)."""
    if x > 0:
        return 1.0
    if x == int(x):
        raise DomainError(f"Gamma sign undefined at the pole x = {x}")
    return -1.0 if int(math.floor(x)) % 2 else 1.0


def _term_ratio_log(upper, lower, n):
    """log |t_{n+1}/t_n| at argument 1 and the sign flip, excluding x."""
    log_r = 0.0
    sign = 1.0
    for a in upper:
        v = a + n
        if v == 0.0:
            return None, 0.0  # series terminates
        log_r += math.log(abs(v))
        if v < 0:
            sign = -sign
    for b in lower:
        log_r -= math.log(b + n)
    log_r -= math.log(n + 1.0)
    return log_r, sign


def _aitken_diagonal(seq):
    """Iterated Aitken delta-squared; returns the diagonal of the table."""
    diag = [seq[-1]]
    cur = list(seq)
    while len(cur) >= 3:
        nxt = []
        for i in range(len(cur) - 2):
            d1 = cur[i + 1] - cur[i]
            d2 = cur[i + 2] - cur[i + 1]
            den = d2 - d1
            if den == 0.0:
                nxt.append(cur[i + 2])
            else:
                nxt.append(cur[i + 2] - d2 * d2 / den)
        diag.append(nxt[-1])
        cur = nxt
    return diag


def _best_on_diagonal(diag):
    """Value at the first plateau of the diagonal, plus the plateau width."""
    if len(diag) == 1:
        return diag[0], abs(diag[0])
    best_i = 1
    best_d = abs(diag[1] - diag[0])
    for i in range(2, len(diag)):
        d = abs(diag[i] - diag[i - 1])
        if d < best_d:
            best_d = d
            best_i = i
    return diag[best_i], best_d


def _sum_unit_argument(upper, lower, tol):
    # p = q+1 at x = 1: terms decay like n^{-s}, s = 1 + sum(lower) - sum(upper).
    s_exp = 1.0 + sum(lower) - sum(upper)
    if s_exp <= 1.0:
        raise ConvergenceError(
            f"pFq diverges at unit argument (decay exponent {s_exp:.6g} <= 1)"
        )
    partial = 0.0
    abs_sum = 0.0
    log_t = 0.0
    sign = 1.0
    n = 0
    checkpoint = 64
    sums = []
    while True:
        t = sign * math.exp(log_t)
        partial += t
        abs_sum += abs(t)
        log_r, flip = _term_ratio_log(upper, lower, n)
        if log_r is None:
            return SeriesValue(partial, n + 1, 4.0 * _EPS * abs_sum)
        log_t += log_r
        sign *= flip
        n += 1
        if n == checkpoint:
            sums.append(partial)
            checkpoint *= 2
            if len(sums) >= 4:
                diag = _aitken_diagonal(sums)
                value, plateau = _best_on_diagonal(diag)
                floor = math.sqrt(n) * _EPS * abs_sum
                bound = 4.0 * plateau + 4.0 * floor
                if bound <= tol * max(1.0, abs(value)) and n >= _MIN_TERMS:
                    return SeriesValue(value, n, bound)
            if checkpoint > TERM_CAP:
                diag = _aitken_diagonal(sums)
                value, plateau = _best_on_diagonal(diag)
                bound = 4.0 * plateau + 4.0 * math.sqrt(n) * _EPS * abs_sum
                raise PrecisionError(
                    f"tolerance {tol:g} unreachable within {TERM_CAP} terms "
                    f"(best bound {bound:g})",
                    best=SeriesValue(value, n, bound),
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
    # an upper parameter -k makes t_k the last nonzero term
    stops = [int(-a) for a in upper if a <= 0.0 and a == int(a)]
    last = min(stops) if stops else math.inf
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

    At x = 1 with p = q + 1 the partial sums converge like N^{1-s}; they are
    checkpointed at doubling term counts and accelerated with iterated
    Aitken delta-squared before bounding.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    p, q, x = len(spec.upper), len(spec.lower), spec.argument
    if p > q + 1 and x > 0.0:
        raise ConvergenceError(
            f"{p}F{q} has zero radius of convergence for positive argument"
        )
    if x == 1.0 and p == q + 1:
        return _sum_unit_argument(spec.upper, spec.lower, tol)
    return _sum_blocked(spec.upper, spec.lower, x, tol)


def gauss_2f1_at_1(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))."""
    if c <= 0 and c == int(c):
        raise DomainError(f"c = {c} is a nonpositive integer")
    if a == 0.0 or b == 0.0:
        return 1.0  # the series terminates at its first term
    if c - a - b <= 0:
        raise DivergenceError(
            f"2F1 at unit argument diverges: c - a - b = {c - a - b:.6g} <= 0"
        )
    for arg in (c, c - a, c - b):
        if arg <= 0:
            raise DomainError(f"Gamma argument {arg:.6g} <= 0 unsupported here")
    return math.exp(
        ln_gamma(c) + ln_gamma(c - a - b) - ln_gamma(c - a) - ln_gamma(c - b)
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


def gautschi_interval(q: float, n: int) -> tuple[float, float]:
    """Bracket (lo, hi) with lo <= Gamma(n + q/2)/n! <= hi for 1 <= q <= 2."""
    if not 1.0 <= q <= 2.0:
        raise DomainError(f"gautschi_interval requires q in [1, 2], got {q}")
    if n < 1:
        raise DomainError(f"gautschi_interval requires n >= 1, got {n}")
    e = 0.5 * q - 1.0
    return ((n + 1.0) ** e, float(n) ** e)
