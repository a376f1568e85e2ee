"""Radial profile functions behind the operator-norm formulas.

Each profile is the exact angular reduction of a disk integral against one
of the kernels: the Parseval mean handles 1/|1 - rho e^{it}|^{2 beta}, K is
the q-energy of the Cauchy kernel, M and N are the q-energies of the two
fractional-integral kernels, and F/H carry the monotonicity structure of K.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError, EvaluationError, PrecisionError
from .specfun import (
    TERM_CAP,
    HypergeometricSpec,
    SeriesValue,
    gamma_sign,
    gauss_2f1_at_1,
    hyp_pfq,
    ln_gamma,
    riemann_zeta,
)

_INTERNAL_TOL = 1e-12

# K and N blow up as q -> 2 (p -> 2+): K(0) = 2/(2-q) and N(1) = A(p) both
# diverge like 1/(2-q).  N(1) is still summed in milliseconds up to the
# cutoff (Thomae's form carries the blow-up in an explicit Gamma(2-q)), but
# the region past it, where both exceed 1e6, is refused rather than modeled.
Q_BLOWUP_CUTOFF = 2.0 - 1e-6


def _conjugate_exponent(p: float) -> float:
    # q = p/(p-1); exact 1 at p = inf so 1/p + 1/q = 1 holds in the
    # representation actually used downstream
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _check_q(q: float) -> None:
    if not 1.0 <= q < 2.0:
        raise DomainError(f"profile exponent q must lie in [1, 2), got {q}")


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {rho}")


def angular_power_mean(rho: float, beta: float, tol: float) -> SeriesValue:
    """Mean of 1/|1 - rho e^{it}|^{2 beta} over the circle.

    Parseval turns the mean into sum_n (Gamma(n+beta)/(n! Gamma(beta)))^2
    rho^{2n}, which is 2F1(beta, beta; 1; rho^2).  At rho = 1 the terms decay
    like n^{2 beta - 2}, so the mean is finite only for 2 beta < 1, where it
    is Gauss's sum Gamma(1-2 beta)/Gamma(1-beta)^2 (no series terms).  Its
    tail_bound covers 32 ulps for the log-gammas near 1 (measured up to 11),
    4 ulps per unit of their size, and the rounding of 1 - 2 beta inside
    gauss_2f1_at_1, whose effect grows like 1/(1 - 2 beta).
    """
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    _check_rho(rho)
    if rho == 1.0:
        if 2.0 * beta >= 1.0:
            raise DivergenceError(
                f"angular mean diverges at rho = 1 for 2*beta = {2 * beta:g} >= 1"
            )
        value = gauss_2f1_at_1(beta, beta, 1.0)
        excess = 1.0 - 2.0 * beta
        logs = abs(ln_gamma(excess)) + 2.0 * abs(ln_gamma(1.0 - beta))
        return SeriesValue(value, 0, _EPS * value * (32.0 + 4.0 * logs + 1.0 / excess))
    return hyp_pfq(HypergeometricSpec((beta, beta), (1.0,), rho * rho), tol)


def profile_F(q: float, t: float) -> float:
    """F(t) = (1-t)^{2-q} 2F1(1-q/2, 2-q/2; 1; t), decreasing on [0, 1].

    The hypergeometric factor alone blows up like (1-t)^{q-2} as t -> 1;
    the prefactor cancels that exactly and leaves the finite limit
    Gamma(2-q) / (Gamma(1-q/2) Gamma(2-q/2)).
    """
    _check_q(q)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if t == 1.0:
        return math.exp(
            ln_gamma(2.0 - q) - ln_gamma(1.0 - 0.5 * q) - ln_gamma(2.0 - 0.5 * q)
        )
    core = hyp_pfq(
        HypergeometricSpec((1.0 - 0.5 * q, 2.0 - 0.5 * q), (1.0,), t), _INTERNAL_TOL
    )
    return (1.0 - t) ** (2.0 - q) * core.value


def profile_K(p: float, rho: float) -> float:
    """q-energy of the Cauchy kernel at radius rho: 2 F(rho^2) / (2 - q).

    Equals the disk integral of |w - rho|^{-q} against normalized area
    measure, q conjugate to p.  Decreasing in rho; K(0) = 2/(2-q).
    """
    if not p > 2:
        raise DomainError(f"profile_K requires p > 2, got {p}")
    _check_rho(rho)
    q = _conjugate_exponent(p)
    if q > Q_BLOWUP_CUTOFF:
        raise DomainError(
            f"p = {p:g} is too close to 2: K blows up like 2/(2-q) there "
            f"(supported region is q = p/(p-1) <= {Q_BLOWUP_CUTOFF})"
        )
    return 2.0 * profile_F(q, rho * rho) / (2.0 - q)


def profile_M(q: float, rho: float) -> float:
    """q-energy of the analytic kernel 1/(1 - conj(w) z): rho^q 2F1(q/2,q/2;2;rho^2)."""
    _check_q(q)
    _check_rho(rho)
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        body = gauss_2f1_at_1(0.5 * q, 0.5 * q, 2.0)
    else:
        body = hyp_pfq(
            HypergeometricSpec((0.5 * q, 0.5 * q), (2.0,), rho * rho), _INTERNAL_TOL
        ).value
    return rho**q * body


# Thomae's boundary series of N is summed in numpy blocks of this many terms.
# Roundings behind its bound: each term passes through at most 10 in the
# running product (8 for the ratio (n-a)(n+b)/(n+c)^2, 1 for the product, 1
# for the block's carry) and at most 32 in numpy's pairwise block sum (it
# needs 23 for 4096 terms); 64 relative roundings cover the Gamma prefactor
# (math.gamma is good to 3 ulps on (0, 2]) and the roundings of a, b and c.
_BLOCK = 4096
_PRODUCT_ROUNDINGS = 10
_SUM_ROUNDINGS = 32
_PREFACTOR_ROUNDINGS = 64
_EPS = 2.220446049250313e-16


def _boundary_N(q: float, b: float, tol: float) -> SeriesValue:
    """N_q(1) through Thomae's relation, b = 2 - q.

    N_q(1) = Gamma(b)/Gamma(c)^2 3F2(-a, 1, b; c, c; 1) with a = q/2 and
    c = a + b.  The 3F2 terms t_n have the ratio r(n) = (n-a)(n+b)/(n+c)^2,
    keep one (negative) sign after t_0 = 1 and decay like n^-s, s = 3a + b.
    They are built block by block as a running product.  The tail past the
    last summed term is bracketed against g_n = Gamma(n+beta)/Gamma(n+beta+s):
    its ratio (n+beta)/(n+beta+s) matches r(n) through the 1/n^2 term, its
    tail from N sums exactly to g_N (N+beta+s-1)/(s-1), and t_n/g_n moves by
    at most a factor exp(+-drift) past N, where drift bounds the summed
    remainders |log r(n) - log(g_{n+1}/g_n)| = O(n^-3).
    """
    a = 0.5 * q
    c = a + b
    s = 3.0 * a + b
    beta = (a * a + 4.0 * a * b + b * b - s * s) / (2.0 * s)
    # log(1 + x/n) terms of log r(n) - log(g_{n+1}/g_n), as (x, multiplicity)
    shifts = ((a, 1.0), (b, 1.0), (c, 2.0), (beta, 1.0), (beta + s, 1.0))
    prefactor = math.gamma(b) / math.gamma(c) ** 2
    total = carry = 1.0  # t_0
    n0 = 0
    sum_err = weighted = 0.0  # summation rounding; sum of n |t_n|
    while True:
        n = np.arange(n0, n0 + _BLOCK, dtype=float)
        terms = carry * np.cumprod((n - a) * (n + b) / ((n + c) * (n + c)))
        block = float(np.sum(terms))  # t_{n0+1} .. t_{n0+B}, all negative
        total += block
        sum_err += _EPS * (-_SUM_ROUNDINGS * block + abs(total))
        weighted -= float(np.dot(n + 1.0, terms))
        n0 += _BLOCK
        carry = float(terms[-1])
        big_n = n0 + 1
        next_term = -carry * (n0 - a) * (n0 + b) / (n0 + c) ** 2
        drift = sum(m * abs(x) ** 3 / (3.0 * (1.0 - abs(x) / big_n)) for x, m in shifts)
        # sum of n^-3 over n >= N is below 1/(2 n0^2); the last term covers
        # the 1/n^2 mismatch left by rounding in beta
        drift = drift / (2.0 * n0 * n0) + 8.0 * _EPS * s * s / n0
        slack = (_PRODUCT_ROUNDINGS * big_n + 8) * _EPS
        mid = next_term * (big_n + beta + s - 1.0) / (s - 1.0)
        lo = mid * math.exp(-drift) * (1.0 - slack)
        hi = mid * math.exp(drift) * (1.0 + slack)
        value = prefactor * (total - 0.5 * (lo + hi))
        floor = (
            prefactor * (sum_err + _PRODUCT_ROUNDINGS * _EPS * weighted)
            + _PREFACTOR_ROUNDINGS * _EPS * abs(value)
        )
        bound = prefactor * 0.5 * (hi - lo) + floor
        target = tol * max(1.0, abs(value))
        if bound <= target:
            return SeriesValue(value, big_n, bound)
        if floor > target or big_n > TERM_CAP:
            raise PrecisionError(
                f"tolerance {tol:g} unreachable for N_q(1), q = {q:g} "
                f"(best bound {bound:g} after {big_n} terms)",
                best=SeriesValue(value, big_n, bound),
            )


def _check_boundary(q: float, tol: float) -> None:
    if q > Q_BLOWUP_CUTOFF:
        raise DomainError(
            f"q = {q:g} is too close to 2: N(1) = A(p) diverges as p -> 2+ "
            f"(supported region is q <= {Q_BLOWUP_CUTOFF})"
        )
    if tol <= 0:
        raise DomainError("tol must be positive")


def profile_N(q: float, rho: float, tol: float) -> SeriesValue:
    """q-energy of the conjugate-weighted kernel conj(w)/(1 - conj(w) z).

    The radial reduction gives 2 sum_n (Gamma(n+q/2)/(n! Gamma(q/2)))^2
    rho^{2n} / (2n+q+2); absorbing the denominator into a Pochhammer ratio
    turns it into (2/(q+2)) 3F2(q/2, q/2, 1+q/2; 1, 2+q/2; rho^2).
    Increasing in rho; N(1) is the constant A(p).

    At rho = 1 that series has parameter excess b = 2 - q and terms decaying
    like n^-(3-q).  Thomae's relation (Bailey 1935, 3.2; DLMF 16.4) turns it
    into Gamma(b)/Gamma(2-q/2)^2 3F2(-q/2, 1, b; 2-q/2, 2-q/2; 1), whose
    terms decay like n^-(2+q/2) and keep one sign after the first.  That
    series is summed exactly in numpy blocks; tail_bound adds a bracket of
    the remaining tail derived from the term ratio, the rounding of every
    summed term, and the rounding of the Gamma prefactor and of a, b, c.
    """
    _check_q(q)
    _check_rho(rho)
    _check_boundary(q, tol)
    if rho == 1.0:
        return _boundary_N(q, 2.0 - q, tol)
    spec = HypergeometricSpec(
        (0.5 * q, 0.5 * q, 1.0 + 0.5 * q), (1.0, 2.0 + 0.5 * q), rho * rho
    )
    scale = 2.0 / (q + 2.0)
    body = hyp_pfq(spec, tol)
    value = scale * body.value
    # three roundings form scale and value
    return SeriesValue(value, body.terms_used, scale * body.tail_bound + 2.0 * _EPS * value)


def h_coefficient(q: float, m: int) -> float:
    """Taylor coefficient a_m of the auxiliary series H(t) with -F'(t) = H(t) shape.

    a_m = -Gamma(1+m-q/2) Gamma(2+m-q/2)
          / (Gamma(1+m) Gamma(2+m) Gamma(2-q/2) Gamma(-q/2)),
    computed in log space.  Gamma(-q/2) < 0 for q in (0, 2), which makes
    every a_m nonnegative.
    """
    _check_q(q)
    if m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    half = 0.5 * q
    log_mag = (
        ln_gamma(1.0 + m - half)
        + ln_gamma(2.0 + m - half)
        - ln_gamma(1.0 + m)
        - ln_gamma(2.0 + m)
        - ln_gamma(2.0 - half)
        - math.lgamma(-half)
    )
    return -gamma_sign(-half) * math.exp(log_mag)


def a_p_constant(p: float, tol: float) -> SeriesValue:
    """The boundary constant A(p) = N_q(1) for q conjugate to p, p > 2.

    Summed by ``profile_N``'s route at rho = 1, Thomae's relation A(p) =
    Gamma(b)/Gamma(2-q/2)^2 3F2(-q/2, 1, b; 2-q/2, 2-q/2; 1).  The blow-up
    as p -> 2+ sits in Gamma(b), so b = 2 - q = (p-2)/(p-1) is computed
    from p rather than from the rounded q: near p = 2 that keeps the
    relative error of b, and of A(p), at a few ulps.  The tail_bound
    brackets the series tail from its term ratio and adds every rounding
    (see ``profile_N``).  Verifies the zeta-function ceiling on the way out;
    a violation would mean the summation itself went wrong.
    """
    if not p > 2:
        raise DomainError(f"a_p_constant requires p > 2, got {p}")
    q = _conjugate_exponent(p)
    b = 1.0 if math.isinf(p) else (p - 2.0) / (p - 1.0)
    _check_boundary(q, tol)
    result = _boundary_N(q, b, tol)
    ceiling = a_p_upper_bound(p)
    if result.value - result.tail_bound > ceiling:
        raise EvaluationError(
            f"A({p:g}) = {result.value:.12g} exceeds its upper bound {ceiling:.12g}"
        )
    return result


def a_p_upper_bound(p: float) -> float:
    """Strict ceiling 2(1/(2+q) + zeta(3-q)/(2 Gamma(q/2)^2)) for A(p), q = p/(p-1)."""
    if not p > 2:
        raise DomainError(f"a_p_upper_bound requires p > 2, got {p}")
    q = _conjugate_exponent(p)
    gamma_sq = math.exp(2.0 * ln_gamma(0.5 * q))
    return 2.0 * (1.0 / (2.0 + q) + riemann_zeta(3.0 - q) / (2.0 * gamma_sq))
