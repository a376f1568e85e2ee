"""Radial profile functions behind the operator-norm formulas.

Each profile is the exact angular reduction of a disk integral against one
of the kernels: K is the q-energy of the Cauchy kernel, M and N are the
q-energies of the two fractional-integral kernels, and F/H carry the
monotonicity structure of K.  F, K, M and N take one radius or an array,
summed as one grid of ``hyp_pfq`` with every check applied to each entry
and the closed forms at 0 and 1 kept; each entry equals the lone call on
it, and a scalar in gives a float out.  ``hyp_pfq`` sums below unit
argument only: N(1) = A(p) is one 4,097-term block of Thomae's form, by
``specfun._thomae_sum``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError
from .specfun import (
    _EPS,
    HypergeometricSpec,
    SeriesValue,
    gauss_2f1_at_1,
    hyp_pfq,
    ln_gamma,
    riemann_zeta,
    _check_tol,
    _thomae_sum,
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


def _grid(values, name: str) -> np.ndarray:
    """values as a float array, each entry checked to lie in [0, 1]."""
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    outside = ~((grid >= 0.0) & (grid <= 1.0))
    if outside.any():
        raise DomainError(f"{name} must lie in [0, 1], got {float(grid[outside][0])!r}")
    return grid


def _check_blowup(q: float, profile: str) -> None:
    # repr, not :g: every q past the cutoff would print as 2
    if q > Q_BLOWUP_CUTOFF:
        raise DomainError(
            f"q = {q!r} is too close to 2: {profile} diverges as p -> 2+ "
            f"(supported region is q = p/(p-1) <= {Q_BLOWUP_CUTOFF})"
        )


def profile_F(q: float, t):
    """F(t) = (1-t)^{2-q} 2F1(1-q/2, 2-q/2; 1; t), decreasing on [0, 1].

    The hypergeometric factor alone blows up like (1-t)^{q-2} as t -> 1;
    the prefactor cancels that exactly and leaves the finite limit
    Gamma(2-q) / (Gamma(1-q/2) Gamma(2-q/2)).  t may be an array.
    """
    _check_q(q)
    grid = _grid(t, "t")
    out = np.full(grid.shape, math.exp(ln_gamma(2.0 - q) - ln_gamma(1.0 - 0.5 * q) - ln_gamma(2.0 - 0.5 * q)))
    inner = grid < 1.0
    if inner.any():
        core = hyp_pfq(HypergeometricSpec((1.0 - 0.5 * q, 2.0 - 0.5 * q), (1.0,), grid[inner]), _INTERNAL_TOL)
        out[inner] = (1.0 - grid[inner]) ** (2.0 - q) * core.value
    return float(out[0]) if np.ndim(t) == 0 else out


def profile_K(p: float, rho):
    """q-energy of the Cauchy kernel at radius rho: 2 F(rho^2) / (2 - q).

    Equals the disk integral of |w - rho|^{-q} against normalized area
    measure, q conjugate to p.  Decreasing in rho; K(0) = 2/(2-q).  rho
    may be an array; a refusal names its series argument rho^2.
    """
    if not p > 2:
        raise DomainError(f"profile_K requires p > 2, got {p}")
    grid = _grid(rho, "radius")
    q = _conjugate_exponent(p)
    _check_blowup(q, "K(0) = 2/(2-q)")
    out = 2.0 * profile_F(q, grid * grid) / (2.0 - q)
    return float(out[0]) if np.ndim(rho) == 0 else out


def profile_M(q: float, rho):
    """q-energy of the analytic kernel 1/(1 - conj(w) z): rho^q 2F1(q/2,q/2;2;rho^2).

    rho may be an array; M(0) = 0, and M(1) is Gauss's sum.
    """
    _check_q(q)
    grid = _grid(rho, "radius")
    out = np.where(grid == 1.0, gauss_2f1_at_1(0.5 * q, 0.5 * q, 2.0), 0.0)
    inner = (grid > 0.0) & (grid < 1.0)
    if inner.any():
        r = grid[inner]
        body = hyp_pfq(HypergeometricSpec((0.5 * q, 0.5 * q), (2.0,), r * r), _INTERNAL_TOL)
        out[inner] = r**q * body.value
    return float(out[0]) if np.ndim(rho) == 0 else out


def profile_N(q: float, rho, tol: float) -> SeriesValue:
    """q-energy of the conjugate-weighted kernel conj(w)/(1 - conj(w) z).

    The radial reduction gives 2 sum_n (Gamma(n+q/2)/(n! Gamma(q/2)))^2
    rho^{2n} / (2n+q+2); absorbing the denominator into a Pochhammer ratio
    turns it into (2/(q+2)) 3F2(q/2, q/2, 1+q/2; 1, 2+q/2; rho^2).
    Increasing in rho; N(1) is the constant A(p).  Only N(1) diverges as
    q -> 2, so q past ``Q_BLOWUP_CUTOFF`` is refused at rho = 1 alone.

    At rho = 1 that series has parameter excess b = 2 - q and terms decaying
    like n^-(3-q).  Thomae's relation (Bailey 1935, 3.2; DLMF 16.4) turns it
    into Gamma(b)/Gamma(2-q/2)^2 3F2(-q/2, 1, b; 2-q/2, 2-q/2; 1), whose
    terms decay like n^-(2+q/2) and keep one sign after the first.
    ``specfun._thomae_sum`` sums it in one 4,097-term block; tail_bound adds
    its Gamma-ratio bracket of the remaining tail, the rounding of every
    summed term, and that of the prefactor and a, b, c.  A tol below the
    block's bound (none from 1e-12 up) raises PrecisionError.

    For an array rho, value and tail_bound are arrays, terms_used the most
    any entry took; a refusal names its series argument rho^2.
    """
    _check_q(q)
    grid = _grid(rho, "radius")
    _check_tol(tol)
    value, bound, terms = np.empty(grid.shape), np.empty(grid.shape), 0
    edge = grid == 1.0
    if edge.any():
        _check_blowup(q, "N(1) = A(p)")
        boundary = _thomae_sum(0.5 * q, 2.0 - q, tol)
        value[edge], bound[edge], terms = boundary.value, boundary.tail_bound, boundary.terms_used
    if not edge.all():
        r = grid[~edge]
        scale = 2.0 / (q + 2.0)
        body = hyp_pfq(HypergeometricSpec((0.5 * q, 0.5 * q, 1.0 + 0.5 * q), (1.0, 2.0 + 0.5 * q), r * r), tol)
        inner = scale * body.value
        # three roundings form scale and value
        value[~edge], bound[~edge] = inner, scale * body.tail_bound + 2.0 * _EPS * inner
        terms = max(terms, body.terms_used)
    if np.ndim(rho) == 0:
        return SeriesValue(float(value[0]), terms, float(bound[0]))
    return SeriesValue(value, terms, bound)


def h_coefficient(q: float, m: int) -> float:
    """Taylor coefficient a_m of the auxiliary series H(t) with -F'(t) = H(t) shape.

    a_m = -Gamma(1+m-q/2) Gamma(2+m-q/2)
          / (Gamma(1+m) Gamma(2+m) Gamma(2-q/2) Gamma(-q/2)),
    computed in log space.  Gamma(-q/2) < 0 for q in (0, 2), which makes
    every a_m nonnegative, so only the magnitude is formed.
    """
    _check_q(q)
    if not isinstance(m, (int, np.integer)) or m < 0:
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
    return math.exp(log_mag)


def a_p_constant(p: float, tol: float) -> SeriesValue:
    """The boundary constant A(p) = N_q(1) for q conjugate to p, p > 2.

    Summed by ``profile_N``'s route at rho = 1, Thomae's relation A(p) =
    Gamma(b)/Gamma(2-q/2)^2 3F2(-q/2, 1, b; 2-q/2, 2-q/2; 1).  The blow-up
    as p -> 2+ sits in Gamma(b), so b = 2 - q = (p-2)/(p-1) is computed
    from p rather than from the rounded q: near p = 2 that keeps the
    relative error of b, and of A(p), at a few ulps.  The tail_bound comes
    from ``specfun._thomae_sum``, the kernel of this one series: one
    4,097-term block, a Gamma-ratio bracket of its tail plus every rounding,
    at most 1.24e-13 max(1, A).  Verifies the zeta-function ceiling on the
    way out; a violation would mean the summation itself went wrong.
    """
    if not p > 2:
        raise DomainError(f"a_p_constant requires p > 2, got {p}")
    q = _conjugate_exponent(p)
    b = 1.0 if math.isinf(p) else (p - 2.0) / (p - 1.0)
    _check_blowup(q, "N(1) = A(p)")
    _check_tol(tol)
    result = _thomae_sum(0.5 * q, b, tol)
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
