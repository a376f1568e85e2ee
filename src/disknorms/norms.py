"""Norm catalog, extremal families, mode analysis, counterexamples.

The catalog is the package's ground truth for what is actually known about
the five disk operators: one table ``_EXACT`` of exact norms at endpoint
exponents, and for every other exponent one ``_INTERIOR`` rule per
(operator, target) -- a closed p-to-sup form, a Riesz-Thorin interpolation
between table entries (an explicit upper bound), or a refusal.
``closed_form_norm`` and ``riesz_thorin_bound`` both read the table.
Queries outside the catalog raise ``UnsupportedQueryError`` rather than
guessing; in particular the p-to-p norm of the Cauchy transform away from
p in {1, 2, infinity} is an open problem and only its interpolation bounds
are served.

Lower bounds come from ``extremal_function``: for cauchy, j0 and j0star,
the unit-L^p density anchored at a disk point b that is Hoelder's equality
case for the operator's kernel K_b, so its operator value at the anchor is
the kernel's q-norm, read from the profiles, exactly.  Pushing the anchor
toward the profile's maximizing point squeezes the lower bound against the
catalog value.

The L^2 theory of the conjugate-weighted kernel operator reduces to
independent angular modes; ``mode_reduce`` gives the one coefficient of a
mode's image, ``mode_best_constant`` its rank-one constant 1/(d(d+1)), and
``l2_norm_numeric`` rebuilds the exact norm sqrt(1/2) from them.

``counterexample`` serves the failure half of the story: explicit L^2
densities with logarithmically divergent transforms, plus ladder helpers
that turn "not bounded" into a measurable growth slope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Tuple, Union

import numpy as np

from .errors import DomainError, UnsupportedQueryError
from .operators import Operator, apply
from .profiles import _conjugate_exponent, a_p_constant, profile_K, profile_M, profile_N
from .quadrature import (
    DiskRule,
    FieldFn,
    _LAYER_DECAY,
    _MAX_RADIAL,
    _eval_nodes,
    _gauss01,
    _required_angular_nodes,
    integrate_disk_singular,
    truncated_singular_integral,
)
from .specfun import _EPS, bessel_j0_smallest_zero, catalan_constant

__all__ = [
    "Target",
    "NormKind",
    "NormQuery",
    "NormResult",
    "closed_form_norm",
    "riesz_thorin_bound",
    "extremal_function",
    "lower_bound_via_extremal",
    "mode_reduce",
    "mode_best_constant",
    "mode_rayleigh_maximum",
    "l2_norm_numeric",
    "counterexample",
    "COUNTEREXAMPLE_NAMES",
    "divergence_ladder",
    "divergence_slope",
    "counterexample_l2_mass",
    "fatou_limit_integrand",
    "fatou_limit_integrand_adjoint",
]

_INF = math.inf


class Target(str, enum.Enum):
    """Which norm is being asked about: p-to-p, or p-to-sup."""

    SAME_P = "same"
    L_INFINITY = "linf"


class NormKind(str, enum.Enum):
    EXACT_NORM = "EXACT_NORM"
    UPPER_BOUND = "UPPER_BOUND"
    LOWER_BOUND = "LOWER_BOUND"


def _check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"exponent p must lie in [1, infinity], got {p}")
    return p


@dataclass(frozen=True)
class NormQuery:
    operator: Operator
    source_p: float
    target: Target = Target.SAME_P

    def __post_init__(self):
        object.__setattr__(self, "operator", Operator(self.operator))
        object.__setattr__(self, "target", Target(self.target))
        object.__setattr__(self, "source_p", _check_p(self.source_p))
        if self.target is Target.L_INFINITY and not self.source_p > 2.0:
            raise DomainError(
                "the p-to-sup catalog only covers source_p > 2 (including infinity); "
                f"got p = {self.source_p:g}"
            )


@dataclass(frozen=True)
class NormResult:
    value: float
    kind: NormKind
    provenance: str
    error_estimate: float = 0.0


# ---------------------------------------------------------------------------
# the catalog: one table of exact entries, one interior entry per query kind

_CATALAN = catalan_constant(1e-15)

# (value, error_estimate) of the exact constants shared by several entries;
# _KERNEL_MASS is (1+2*Catalan)/pi, the sup over the disk of the
# |w|-weighted kernel mass
_TWO = (2.0, 0.0)
_TWO_OVER_J0 = (2.0 / bessel_j0_smallest_zero(), 8.0 * _EPS)
_FOUR_OVER_PI = (4.0 / math.pi, 2.0 * _EPS)
_KERNEL_MASS = ((1.0 + 2.0 * _CATALAN.value) / math.pi,
                (2.0 * _CATALAN.tail_bound + 4.0 * _EPS) / math.pi)

# (operator, target) -> {exponent: (value, error_estimate, provenance)}
_EXACT = {
    (Operator.CAUCHY, Target.SAME_P): {
        1.0: (*_TWO, "exact L1 norm 2"),
        2.0: (*_TWO_OVER_J0, "exact L2 norm 2/j0 via the smallest positive zero of the "
                             "order-zero Bessel function"),
        _INF: (*_TWO, "exact sup norm 2; coincides with the sup-to-sup kernel-mass value"),
    },
    (Operator.J0, Target.SAME_P): {
        _INF: (*_FOUR_OVER_PI, "exact sup norm 4/pi (sup-to-sup kernel mass at the boundary)"),
    },
    (Operator.J0_STAR, Target.SAME_P): {
        1.0: (*_FOUR_OVER_PI, "exact L1 norm 4/pi, dual to the companion operator's sup norm"),
        2.0: (math.sqrt(0.5), _EPS,
              "exact L2 norm sqrt(1/2): best angular-mode constant 1/(d(d+1)) at d=1"),
        _INF: (*_KERNEL_MASS, "exact sup norm (1+2*Catalan)/pi"),
    },
    (Operator.C_DELTA, Target.SAME_P): {
        1.0: (*_TWO, "attained endpoint norm 2 of the combined Dirichlet transform"),
        2.0: (*_TWO_OVER_J0, "attained endpoint norm 2/j0 of the combined Dirichlet transform"),
        _INF: (4.0 / 3.0, _EPS, "attained endpoint norm 4/3 of the combined Dirichlet transform"),
    },
    (Operator.CAUCHY, Target.L_INFINITY): {
        _INF: (*_TWO, "exact sup-to-sup norm: the absolute-kernel mass peaks at the center "
                      "with value 2"),
    },
    (Operator.J0, Target.L_INFINITY): {
        _INF: (*_FOUR_OVER_PI, "exact sup-to-sup norm 4/pi, the boundary limit of the kernel mass"),
    },
    (Operator.J0_STAR, Target.L_INFINITY): {
        _INF: (*_KERNEL_MASS, "exact sup-to-sup norm (1+2*Catalan)/pi, the boundary limit of "
                              "the |w|-weighted kernel mass"),
    },
}
_J0STAR_ENTRIES = _EXACT[(Operator.J0_STAR, Target.SAME_P)]
_SPACE = {1.0: "L1", 2.0: "L2", _INF: "sup"}


def _riesz_thorin(entries: dict, p: float, p0: float, p1: float) -> float:
    """n0^(1-theta) n1^theta with 1/p = (1-theta)/p0 + theta/p1 between two exact entries."""
    theta = (1.0 / p0 - 1.0 / p) / (1.0 / p0 - 1.0 / p1)
    return entries[p0][0] ** (1.0 - theta) * entries[p1][0] ** theta


def _interpolation_rule(entries: dict, text: str) -> Callable[[float], NormResult]:
    """Upper bound at p by interpolating the two exact entries adjacent to p."""

    def rule(p: float) -> NormResult:
        p0, p1 = (1.0, 2.0) if p < 2.0 else (2.0, _INF)
        value = _riesz_thorin(entries, p, p0, p1)
        provenance = text.format(lo=_SPACE[p0], hi=_SPACE[p1])
        return NormResult(value, NormKind.UPPER_BOUND, provenance, 8.0 * _EPS * value)

    return rule


_j0star_interpolation = _interpolation_rule(
    _J0STAR_ENTRIES, "Riesz-Thorin interpolation between the exact ({lo}, {hi}) endpoint norms"
)


def _j0star_same_p(p: float) -> NormResult:
    # the direct kernel-mass bound 4^(1/p) (1+2*Catalan)^(1-1/p) / pi is the
    # interpolation between the exact L1 and sup entries
    value = _j0star_interpolation(p).value
    direct = _riesz_thorin(_J0STAR_ENTRIES, p, 1.0, _INF)
    which = "interpolation" if value <= direct else "direct kernel-mass"
    value = min(value, direct)
    return NormResult(value, NormKind.UPPER_BOUND,
                      "smaller of the interpolation bound and the direct kernel-mass bound "
                      f"4^(1/p) (1+2*Catalan)^(1-1/p) / pi ({which} bound wins here)",
                      8.0 * _EPS * value)


def _cauchy_p_to_sup(p: float) -> NormResult:
    # (2p-2)/(p-2) written so that it neither overflows nor loses its limit 2
    value = (2.0 * (1.0 + 1.0 / (p - 2.0))) ** (1.0 - 1.0 / p)
    return NormResult(value, NormKind.EXACT_NORM,
                      "exact p-to-sup norm ((2p-2)/(p-2))^(1-1/p), attained in the limit "
                      "by unit densities concentrating at the center",
                      4.0 * _EPS * value)


def _j0_p_to_sup(p: float) -> NormResult:
    a = (p - 2.0) / (p - 1.0)
    b = 1.5 - 0.5 / (p - 1.0)  # (3p-4)/(2p-2) without overflow at huge p
    value = math.exp((1.0 - 1.0 / p) * (math.lgamma(a) - 2.0 * math.lgamma(b)))
    return NormResult(value, NormKind.EXACT_NORM,
                      "exact p-to-sup norm: gamma-quotient form of the boundary "
                      "kernel-profile limit, power 1-1/p",
                      16.0 * _EPS * value)


def _j0star_p_to_sup(p: float) -> NormResult:
    a_p = a_p_constant(p, 1e-12)
    exponent = 1.0 - 1.0 / p
    value = a_p.value**exponent
    err = exponent * a_p.value ** (exponent - 1.0) * a_p.tail_bound + 8.0 * _EPS * value
    return NormResult(value, NormKind.EXACT_NORM,
                      "exact p-to-sup norm A(p)^(1-1/p) with A(p) the boundary value of "
                      "the weighted kernel profile",
                      err)


# (operator, target) -> the rule for every exponent without an exact entry:
# a function of p, or the refusal message
_INTERIOR = {
    (Operator.CAUCHY, Target.SAME_P): _interpolation_rule(
        _EXACT[(Operator.CAUCHY, Target.SAME_P)],
        "interpolation upper bound between the exact {lo} and {hi} norms "
        "(Bessel-zero endpoints); the exact p-norm is an open problem",
    ),
    (Operator.C_DELTA, Target.SAME_P): _interpolation_rule(
        _EXACT[(Operator.C_DELTA, Target.SAME_P)],
        "interpolation upper bound for the combined Dirichlet transform, "
        "exact only at the attained endpoints p in {{1, 2, infinity}}",
    ),
    (Operator.J0_STAR, Target.SAME_P): _j0star_same_p,
    (Operator.J0, Target.SAME_P): "no proven p-to-p value for the analytic-kernel operator at "
                                  "finite p; only its sup norm 4/pi is in the catalog",
    (Operator.BERGMAN, Target.SAME_P): "no p-to-p entry for operator 'bergman'",
    (Operator.CAUCHY, Target.L_INFINITY): _cauchy_p_to_sup,
    (Operator.J0, Target.L_INFINITY): _j0_p_to_sup,
    (Operator.J0_STAR, Target.L_INFINITY): _j0star_p_to_sup,
    (Operator.C_DELTA, Target.L_INFINITY): "no p-to-sup entry for operator 'cdelta'; "
                                           "the catalog covers cauchy, j0 and j0star only",
    (Operator.BERGMAN, Target.L_INFINITY): "operator 'bergman' is unbounded from L^p to L^infinity "
                                           "for every p > 2: ||K_z||_q >= ||K_z||_1 = "
                                           "log(1/(1 - |z|^2))/|z|^2, which grows without bound",
}


def riesz_thorin_bound(p: float) -> NormResult:
    """Interpolated p-to-p bound for the conjugate-weighted kernel operator.

    Exact at the three endpoints (4/pi at p=1, sqrt(1/2) at p=2, the
    Catalan-constant mass at p=infinity); in between the interpolation
    inequality only gives an upper bound.  Endpoints are read from the
    catalog table, so equality with ``closed_form_norm`` there is bitwise.
    """
    p = _check_p(p)
    if p in _J0STAR_ENTRIES:
        value, error, provenance = _J0STAR_ENTRIES[p]
        return NormResult(value, NormKind.EXACT_NORM,
                          "interpolation endpoint: " + provenance, error)
    return _j0star_interpolation(p)


def closed_form_norm(query: NormQuery) -> NormResult:
    """Serve one catalog entry; raise UnsupportedQueryError outside it."""
    key, p = (query.operator, query.target), query.source_p
    if p in _EXACT.get(key, {}):
        value, error, provenance = _EXACT[key][p]
        return NormResult(value, NormKind.EXACT_NORM, provenance, error)
    interior = _INTERIOR[key]
    if isinstance(interior, str):
        raise UnsupportedQueryError(interior)
    return interior(p)


# operator -> its kernel K_b(w) at the anchor b (the ``operators`` module's
# K_z at z = b) and its profile ||K_b||_q^q at |b|, a function of (p, q, |b|)
_EXTREMAL = {
    Operator.CAUCHY: (lambda b, w: 1.0 / (w - b), lambda p, q, r: profile_K(p, r)),
    Operator.J0: (lambda b, w: b / (1.0 - np.conj(w) * b), lambda p, q, r: profile_M(q, r)),
    Operator.J0_STAR: (lambda b, w: np.conj(w) / (1.0 - np.conj(w) * b),
                       lambda p, q, r: profile_N(q, r, 1e-12).value),
}


def extremal_function(op: Operator, p: float, b: complex) -> FieldFn:
    """Unit-L^p density anchored at b whose operator value there is a profile.

    Hoelder's equality case conj(K_b) |K_b|^(q-2) / E^(1/p), q = p/(p-1), of
    the operator's kernel K_b and its profile E = ||K_b||_q^q (``profile_K``,
    ``profile_M``, ``profile_N`` for cauchy, j0, j0star): unit norm, value
    E^(1-1/p) at b.  For p > 2; at p = infinity E is not formed and the
    members are unimodular.  A family refuses where E is not a positive
    normal float, and j0, whose kernel vanishes at b = 0, a subnormal |b|.
    """
    op = Operator(op)
    p = _check_p(p)
    if op not in _EXTREMAL:
        raise UnsupportedQueryError(f"no extremal family for operator {op.value!r}")
    if not p > 2.0:
        raise UnsupportedQueryError(f"extremal families exist only for p > 2 (or infinity); got p = {p:g}")
    b = complex(b)
    if not abs(b) < 1.0:
        raise DomainError(f"anchor must be interior, got |b| = {abs(b):.6g}")
    kernel, profile = _EXTREMAL[op]
    q = _conjugate_exponent(p)
    energy = 1.0 if p == _INF else profile(p, q, abs(b))
    tiny = np.finfo(float).tiny
    if not tiny <= energy < _INF or (op is Operator.J0 and not abs(b) >= tiny):
        raise DomainError(f"the {op.value} extremal family degenerates at |b| = {abs(b):.3g}: its profile vanishes")
    scale = energy ** (-1.0 / p)

    def member(w):
        k = kernel(b, np.asarray(w, dtype=complex))
        return scale * np.conj(k) * np.abs(k) ** (q - 2.0)

    return member


def lower_bound_via_extremal(op: Operator, p: float, b: complex) -> NormResult:
    """Operator value on the extremal family at its anchor: a certified lower bound.

    For the singular kernel the pairing integrand is |w-b|^(-q), so it is
    integrated with its true exponent q (the substitution rule then flattens
    it completely) rather than through the generic exponent-1 route, which
    would leave an algebraic endpoint factor and waste the family's exactness.
    The bounded families concentrate at 1/conj(b) like the kernel, so they
    too take the quadrature rule sized for b rather than the mode engine.
    Both take ``DiskRule.for_point(b)`` with the angles b's layer needs: on
    a ring of radius r the member times the kernel (on the Mobius rule, the
    constant times c^(2-q) |D|^(q-4)) has angular modes of size (r|b|)^|n|,
    so N angles alias at |b|^N, and 64/-log|b| of them keep that below
    e^-64, as ``_ring_counts`` does for a field's modes: 16 at |b| <= 0.01,
    94 at 0.5, 180 at 0.7, and ``for_point``'s own count past |b| = 0.9.
    Past the Mobius rule's reach (1 - |b| < 7.8e-5 at p = infinity, more as
    p falls to 2) it raises DomainError.
    """
    op = Operator(op)
    f = extremal_function(op, p, b)
    b = complex(b)
    angular = max(_required_angular_nodes(b), math.ceil(_LAYER_DECAY / -math.log(abs(b)))) if b else 16
    rule = replace(DiskRule.for_point(b, singular=op is Operator.CAUCHY), angular_nodes=angular)
    if op is Operator.CAUCHY:
        q = _conjugate_exponent(p)
        result = integrate_disk_singular(lambda w: f(w) * np.abs(w - b) ** q / (w - b), b, q, rule)
        family = "singular-kernel"
    else:
        result = apply(op, f, b, rule)
        family = "bounded-kernel"
    estimate = result.abs_error_estimate
    if op is Operator.J0:
        # its member and M(|b|) raise numbers of size |b| to rounded exponents
        estimate += _EPS * -math.log(abs(b)) * abs(result.value)
    return NormResult(
        abs(result.value),
        NormKind.LOWER_BOUND,
        f"operator value on the unit-norm {family} extremal family anchored at "
        f"|b| = {abs(b):.6g}; equals the kernel profile there",
        estimate,
    )


def mode_reduce(d: int, f_d: Callable) -> Union[float, complex]:
    """Coefficient c of the mode-d image: f_d(r) e^{i d t} maps to c z^(d-1).

    c is twice the moment integral of r^(d+1) f_d(r) over (0, 1), and 0.0 for
    d < 1; it is a float unless the radial profile is genuinely complex.
    """
    if not isinstance(d, (int, np.integer)):
        raise DomainError(f"mode index must be an integer, got {d!r}")
    d = int(d)
    if d < 1:
        return 0.0
    t, w = _gauss01(256)
    vals = _eval_nodes(f_d, t)
    coefficient = 2.0 * complex(np.sum(w * t ** (d + 1) * vals))
    if abs(coefficient.imag) <= 1e-13 * max(1.0, abs(coefficient)):
        return float(coefficient.real)
    return coefficient


def mode_best_constant(d: int) -> Tuple[float, Callable]:
    """Best L2 constant of mode d, with the radial profile that attains it."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"mode index must be a positive integer, got {d!r}")
    d = int(d)

    def maximizer(r):
        return r**d

    return 1.0 / (d * (d + 1)), maximizer


def _mode_grid_nodes(d: int) -> int:
    """Nodes of mode d's Rayleigh grid: 256, past d = 255 the power of two above d."""
    n = max(256, 1 << d.bit_length())
    if n > _MAX_RADIAL:
        raise DomainError(f"mode {d} needs a {n}-node Gauss grid, past the {_MAX_RADIAL}-node cap")
    return n


def mode_rayleigh_maximum(d: int) -> float:
    """Grid maximum of the mode-d Rayleigh quotient (4 A_d^2 / d) / (2 int r f^2).

    The quotient is a rank-one form in f, so its maximum over any discrete
    grid is attained exactly at the weight profile r^d; evaluating there IS
    the grid maximization, by the discrete Cauchy-Schwarz equality case.
    The grid is the 256-node radial Gauss rule that ``mode_reduce`` uses,
    widened past d = 255 to the power of two above d, at least d + 1 nodes,
    so it stays exact for t^(2d+1) and a sweep builds one rule per doubling;
    d past 2047 raises ``DomainError``.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"mode index must be a positive integer, got {d!r}")
    d = int(d)
    t, w = _gauss01(_mode_grid_nodes(d))
    prof = t**d
    moment = float(np.sum(w * t ** (d + 1) * prof))
    energy = 2.0 * float(np.sum(w * t * prof * prof))
    return (4.0 * moment * moment / d) / energy


def l2_norm_numeric(max_d: int) -> NormResult:
    """L2 norm of the conjugate-weighted kernel operator from the mode sweep."""
    if not isinstance(max_d, (int, np.integer)) or max_d < 1:
        raise DomainError(f"max_d must be a positive integer, got {max_d!r}")
    max_d = int(max_d)
    _mode_grid_nodes(max_d)  # refuse a sweep past the cap before any mode is summed
    best = max(mode_rayleigh_maximum(d) for d in range(1, max_d + 1))
    return NormResult(
        math.sqrt(best),
        NormKind.EXACT_NORM,
        "L2 norm from the angular mode decomposition; the best mode constant "
        "1/(d(d+1)) peaks at d = 1 with value 1/2",
        1e-14,
    )


# ---------------------------------------------------------------------------
# counterexamples: L^2 densities with unbounded transforms

_LOG3 = math.log(3.0)
_L2_CEILING = 2.0 / math.log(1.5)

CAUCHY_P2 = "CAUCHY_P2"
J0_P2 = "J0_P2"
J0STAR_P2 = "J0STAR_P2"
COUNTEREXAMPLE_NAMES = (CAUCHY_P2, J0_P2, J0STAR_P2)

_CAUCHY_ANCHOR = 0.3  # interior anchor; any |b| < 1 works, the bound does not depend on it


def _cauchy_p2_density(w):
    w = np.asarray(w, dtype=complex)
    m = np.abs(_CAUCHY_ANCHOR - w)
    return 1.0 / ((_CAUCHY_ANCHOR - np.conj(w)) * (_LOG3 - np.log(m)))


def _j0_p2_density(w):
    w = np.asarray(w, dtype=complex)
    m = np.abs(1.0 - w)
    return 1.0 / ((1.0 - w) * (_LOG3 - np.log(m)))


def _j0star_p2_density(w):
    w = np.asarray(w, dtype=complex)
    m = np.abs(1.0 - w)
    return w / ((1.0 - w) * (_LOG3 - np.log(m)))


# name -> (density, ladder anchor, |integrand| of the divergent pairing,
#          ladder transform applied to epsilon, law text)
_COUNTEREXAMPLES = {
    CAUCHY_P2: (
        _cauchy_p2_density,
        _CAUCHY_ANCHOR + 0.0j,
        lambda w: 1.0 / (np.abs(w - _CAUCHY_ANCHOR) ** 2 * (_LOG3 - np.log(np.abs(w - _CAUCHY_ANCHOR)))),
        lambda eps: 2.0 * math.log(_LOG3 - math.log(eps)),
        "transform magnitude at the interior anchor, truncated outside radius eps, "
        "grows like 2 log log(3/eps) + const: the anchor sees the full circle of "
        "approach directions",
    ),
    J0_P2: (
        _j0_p2_density,
        1.0 + 0.0j,
        lambda w: 1.0 / (np.abs(1.0 - w) ** 2 * (_LOG3 - np.log(np.abs(1.0 - w)))),
        lambda eps: math.log(_LOG3 - math.log(eps)),
        "radial limit of the analytic-kernel transform diverges at the boundary "
        "anchor 1; the truncated mass grows like log log(3/eps) + const (a boundary "
        "anchor sees half the circle)",
    ),
    J0STAR_P2: (
        _j0star_p2_density,
        1.0 + 0.0j,
        lambda w: np.abs(w) ** 2 / (np.abs(1.0 - w) ** 2 * (_LOG3 - np.log(np.abs(1.0 - w)))),
        lambda eps: math.log(_LOG3 - math.log(eps)),
        "radial limit of the conjugate-weighted transform diverges at the boundary "
        "anchor 1; the |w|^2 weight tends to 1 there, so the truncated mass grows "
        "like log log(3/eps) + const",
    ),
}


def _lookup(name: str) -> tuple:
    try:
        return _COUNTEREXAMPLES[name]
    except KeyError:
        raise UnsupportedQueryError(
            f"unknown counterexample {name!r}; choose one of {', '.join(COUNTEREXAMPLE_NAMES)}"
        ) from None


def counterexample(name: str) -> Tuple[FieldFn, float, str]:
    """An L^2 density whose transform is unbounded, its L^2 ceiling, and the law.

    All three densities share the ceiling 2/log(3/2) on their squared L^2
    norm: the disk sits inside the radius-2 ball around the anchor and the
    ball mass of 1/(R^2 log^2(3/R)) integrates in closed form.
    """
    density, _, _, _, law = _lookup(name)
    return density, _L2_CEILING, law


def divergence_ladder(
    name: str,
    epsilons: Tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
) -> Tuple[np.ndarray, np.ndarray]:
    """Truncated pairing mass at each epsilon, with its transformed coordinate.

    Returns (x, values) where x is the iterated-log coordinate in which the
    divergence law is affine with unit slope.  The masses are
    ``truncated_singular_integral``'s on its default rule.
    """
    _, anchor, integrand, transform, _ = _lookup(name)
    values = truncated_singular_integral(integrand, anchor, list(epsilons))
    x = np.asarray([transform(e) for e in epsilons])
    return x, np.asarray(values)


def divergence_slope(
    name: str,
    epsilons: Tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
) -> float:
    """Least-squares slope of the truncated mass against its iterated-log law
    (``divergence_ladder``); a line needs at least two epsilons."""
    if len(epsilons) < 2:
        raise DomainError(f"a slope needs at least two epsilons, got {len(epsilons)}")
    x, values = divergence_ladder(name, epsilons)
    slope, _ = np.polyfit(x, values, 1)
    return float(slope)


def counterexample_l2_mass(name: str, epsilon: float = 0.05) -> float:
    """Numerical squared L^2 norm of a counterexample density.

    Splits the mass at radius epsilon around the anchor: outside by
    quadrature (``truncated_singular_integral`` on its default rule),
    inside by the closed-form ball mass 2/log(3/eps).  For the
    interior anchor the split is exact; for boundary anchors only part of
    the ball lies in the disk, so the returned value is an upper estimate,
    which is the useful direction for checking the ceiling.
    """
    density, anchor, _, _, _ = _lookup(name)

    def squared(w):
        return np.abs(density(w)) ** 2

    outside = truncated_singular_integral(squared, anchor, [epsilon])[0]
    return outside + 2.0 / (_LOG3 - math.log(epsilon))


def fatou_limit_integrand(t: float, rho: float, r: float) -> float:
    """Real part of the analytic-kernel pairing against the boundary density.

    Strictly positive for rho, r in (0, 1): the numerator satisfies
    1 + r rho^2 - rho (1+r) cos t >= (1-rho)(1-r rho) > 0, which is what
    lets the radial limit be taken under the integral sign.
    """
    if not (0.0 < rho < 1.0 and 0.0 < r < 1.0):
        raise DomainError("rho and r must lie strictly between 0 and 1")
    if not math.isfinite(t):
        raise DomainError(f"angle t must be finite, got {t!r}")
    ct = math.cos(t)
    d_kernel = 1.0 + (r * rho) ** 2 - 2.0 * r * rho * ct
    d_anchor = 1.0 + rho * rho - 2.0 * rho * ct
    log_term = _LOG3 - 0.5 * math.log(d_anchor)
    num = r * (1.0 + r * rho * rho - rho * (1.0 + r) * ct)
    return num / (d_kernel * d_anchor * log_term)


def fatou_limit_integrand_adjoint(t: float, rho: float, r: float) -> float:
    """Same pairing for the conjugate-weighted operator: (rho^2 / r) times the base integrand."""
    return rho * rho / r * fatou_limit_integrand(t, rho, r)
