"""Verification suites behind the command line's `verify` subcommand.

Each suite re-derives a slice of the package's claims at runtime and emits
one ReportRow per check: the claimed value, what was computed, the absolute
error, and PASS/FAIL against the row's declared tolerance.  Rows are fixed
in content and order for a given seed, so reports are reproducible.

One row fails by design: the radius-0.99 analytic-kernel energy is asked to
sit within 2% of its boundary limit 4/pi, but the true gap at 0.99 is about
2.9%.  The check is kept as stated rather than silently widened; see the
README for the analysis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

import numpy as np

from .norms import (
    NormQuery,
    Target,
    closed_form_norm,
    counterexample_l2_mass,
    divergence_slope,
    fatou_limit_integrand,
    fatou_limit_integrand_adjoint,
    lower_bound_via_extremal,
    mode_rayleigh_maximum,
    mode_reduce,
    l2_norm_numeric,
    riesz_thorin_bound,
)
from .operators import (
    Operator,
    adjoint_pairing_residual,
    apply,
    dbar_identity_residual,
)
from .profiles import (
    a_p_constant,
    a_p_upper_bound,
    h_coefficient,
    profile_F,
    profile_K,
    profile_M,
    profile_N,
)
from .quadrature import (
    DiskRule,
    Mobius,
    _annulus_stages,
    integrate_disk,
    integrate_disk_singular,
)
from .specfun import bessel_j0_smallest_zero, catalan_constant, gauss_2f1_at_1

__all__ = ["ReportRow", "SUITE_NAMES", "run_suite"]

CATALAN_REFERENCE = 0.91596559417721901505
J0_ZERO_REFERENCE = 2.4048255576957727686

SUITE_NAMES = ("specfun", "profiles", "operators", "norms", "counterexamples")


@dataclass(frozen=True)
class ReportRow:
    label: str
    claimed: float
    computed: float
    abs_err: float
    status: str
    citation: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _status(err: float, tol: float) -> str:
    return "PASS" if err <= tol else "FAIL"


def _match(label, claimed, computed, tol, citation) -> ReportRow:
    err = abs(computed - claimed)
    return ReportRow(label, float(claimed), float(computed), err, _status(err, tol), citation, tol)


def _ceiling(label, ceiling, computed, tol, citation) -> ReportRow:
    # one-sided: computed must not exceed the ceiling by more than tol
    err = max(0.0, computed - ceiling)
    return ReportRow(label, float(ceiling), float(computed), err, _status(err, tol), citation, tol)


def _floor(label, floor, computed, tol, citation) -> ReportRow:
    # one-sided: computed must reach the floor
    err = max(0.0, floor - computed)
    return ReportRow(label, float(floor), float(computed), err, _status(err, tol), citation, tol)


def _positive(label, minimum, citation) -> ReportRow:
    err = 0.0 if minimum > 0.0 else abs(minimum) + 1e-12
    return ReportRow(label, 0.0, float(minimum), err, _status(err, 0.0), citation, 0.0)


# ---------------------------------------------------------------------------


def suite_specfun(seed: int = 42) -> List[ReportRow]:
    rows = [
        _match(
            "2F1(1/2,1/2;2;1) = 4/pi",
            4.0 / math.pi,
            gauss_2f1_at_1(0.5, 0.5, 2.0),
            1e-10,
            "Gauss summation of the unit-argument hypergeometric series",
        ),
        _match(
            "Catalan constant",
            CATALAN_REFERENCE,
            catalan_constant(1e-10).value,
            5e-7,
            "alternating odd-square series with sequence acceleration",
        ),
        _match(
            "smallest positive zero of the order-zero Bessel function",
            J0_ZERO_REFERENCE,
            bessel_j0_smallest_zero(),
            5e-7,
            "Newton iteration on the even power series",
        ),
    ]
    return rows


def _direct_boundary_series(q: float) -> float:
    # raw partial sums of 2 sum_n c_n^2/(2n+q+2), Richardson-extrapolated on
    # the known tail exponents q-2 then q-3; independent of the 3F2 machinery
    sizes = [2000, 4000, 8000, 16000]
    n = np.arange(0, sizes[-1], dtype=float)
    log_c = np.cumsum(np.log((n + 0.5 * q) / (n + 1.0)))
    coeff = np.concatenate(([1.0], np.exp(log_c[:-1])))
    csum = np.cumsum(2.0 * coeff**2 / (2.0 * n + q + 2.0))
    vals = [float(csum[m - 1]) for m in sizes]
    for shift in (q - 2.0, q - 3.0):
        r = 2.0**shift
        vals = [(vals[i + 1] - r * vals[i]) / (1.0 - r) for i in range(len(vals) - 1)]
    return vals[-1]


def suite_profiles(seed: int = 42) -> List[ReportRow]:
    rows: List[ReportRow] = []
    alpha = catalan_constant(1e-12).value
    rows.append(
        _match(
            "N1(1) = (1+2*Catalan)/pi",
            (1.0 + 2.0 * alpha) / math.pi,
            profile_N(1.0, 1.0, 1e-9).value,
            1e-6,
            "boundary value of the weighted kernel energy",
        )
    )
    for p in (3.0, 4.0, 10.0):
        q = p / (p - 1.0)
        a = (p - 2.0) / (p - 1.0)
        b = (3.0 * p - 4.0) / (2.0 * p - 2.0)
        gamma_form = math.exp((1.0 - 1.0 / p) * (math.lgamma(a) - 2.0 * math.lgamma(b)))
        rows.append(
            _match(
                f"gamma form equals boundary energy M_q(1)^(1-1/p), p={p:g}",
                gamma_form,
                profile_M(q, 1.0) ** (1.0 - 1.0 / p),
                1e-8,
                "gamma-quotient closed form vs hypergeometric route",
            )
        )
    rows.append(
        _match(
            "M1(0.99) within 2% of 4/pi",
            4.0 / math.pi,
            profile_M(1.0, 0.99),
            0.02 * 4.0 / math.pi,
            "proximity of the radius-0.99 energy to its boundary limit; "
            "the true gap there is 2.9%, so this row fails as stated",
        )
    )
    for p in (2.5, 3.0, 4.0):
        q = p / (p - 1.0)
        accel = a_p_constant(p, 1e-10)
        rows.append(
            _match(
                f"boundary constant A(p) two-route agreement, p={p:g}",
                _direct_boundary_series(q),
                accel.value,
                accel.tail_bound + 1e-8,
                "Thomae's transformation vs Richardson-extrapolated raw series",
            )
        )
        rows.append(
            _ceiling(
                f"zeta ceiling dominates A(p), p={p:g}",
                a_p_upper_bound(p),
                accel.value + accel.tail_bound,
                0.0,
                "zeta-function ceiling for the boundary constant",
            )
        )
    rhos = np.linspace(0.0, 1.0, 100)
    for q in (1.0, 1.25, 1.5, 1.75):
        p = math.inf if q == 1.0 else q / (q - 1.0)
        N = np.append(profile_N(q, rhos[:-1], 1e-10).value, profile_N(q, 1.0, 1e-7).value)
        # the steps that break K and F decreasing, M and N increasing
        rises = (np.diff(profile_K(p, rhos)), -np.diff(profile_M(q, rhos)), -np.diff(N), np.diff(profile_F(q, rhos)))
        a_min = min(h_coefficient(q, m) for m in range(100))
        violation = max(max(r.max() for r in rises), -a_min)
        rows.append(
            _ceiling(
                f"profile monotonicity on a 100-point grid, q={q:g}",
                0.0,
                violation,
                0.0,
                "K decreasing, M and N increasing, F decreasing, "
                "series coefficients nonnegative",
            )
        )
    return rows


def suite_operators(seed: int = 42) -> List[ReportRow]:
    rows: List[ReportRow] = []
    rng = random.Random(seed)

    def normal() -> complex:
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    # monomial exactness: GL-64 x 64 angles integrates w^a conj(w)^b exactly
    rule = DiskRule(64, 64)
    worst = 0.0
    for a in range(11):
        for b in range(11):
            got = integrate_disk(lambda w: w**a * np.conj(w) ** b, rule).value
            exact = 1.0 / (a + 1.0) if a == b else 0.0
            worst = max(worst, abs(got - exact))
    rows.append(
        _match(
            "monomial integrals exact for degrees up to 10",
            0.0,
            worst,
            1e-12,
            "polar tensor rule integrates low-degree monomials exactly",
        )
    )

    # Mobius substitution vs exclusion of the ball of radius 0.05 around b on
    # seeded singular integrands: the disk outside it on the truncation grid,
    # the ball by the mean-value property of the harmonic g, 2 g(b)
    # eps^(2-s)/(2-s)
    excess = 0.0
    mobius = DiskRule(192, 96, Mobius())
    for _ in range(10):
        b = complex(*(0.6 * rng.uniform(-1, 1) / math.sqrt(2.0) for _ in range(2)))
        s = rng.uniform(0.5, 1.5)
        c0, c1, c2 = normal(), normal(), normal()

        def g(w, c0=c0, c1=c1, c2=c2):
            w = np.asarray(w, dtype=complex)
            return c0 + c1 * w + c2 * np.conj(w)

        via_mobius = integrate_disk_singular(g, b, s, mobius)
        outside = _annulus_stages(g, b, s, (0.05,), DiskRule(192, 96))[0]
        via_exclusion = outside.value + 2.0 * complex(g(b)) * 0.05 ** (2.0 - s) / (2.0 - s)
        diff = abs(via_mobius.value - via_exclusion)
        budget = via_mobius.abs_error_estimate + outside.abs_error_estimate
        excess = max(excess, diff - budget)
    rows.append(
        _ceiling(
            "substitution and exclusion routes agree on 10 seeded singular integrands",
            0.0,
            excess,
            0.0,
            "two independent treatments of the point singularity, "
            "compared within their reported error estimates",
        )
    )

    # adjoint pairing on 20 seeded polynomial pairs of total degree <= 4
    idx = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    worst = 0.0
    for _ in range(20):
        cf, cg = [normal() for _ in idx], [normal() for _ in idx]

        def make(coeffs):
            table = dict(zip(idx, coeffs))

            def poly(w):
                # Horner in w over Horner polynomials in conj(w)
                w = np.asarray(w, dtype=complex)
                wc = np.conj(w)
                out = np.zeros_like(w)
                for a in range(4, -1, -1):
                    inner = np.full_like(w, table[a, 4 - a])
                    for b in range(3 - a, -1, -1):
                        inner *= wc
                        inner += table[a, b]
                    out *= w
                    out += inner
                return out

            return poly

        worst = max(worst, adjoint_pairing_residual(make(cf), make(cg)))
    rows.append(
        _match(
            "adjoint pairing residual on 20 seeded polynomial pairs",
            0.0,
            worst,
            1e-12,
            "the analytic and conjugate-weighted kernels are adjoint on L^2",
        )
    )

    # Wirtinger derivative identities at a fixed interior point
    z = 0.2 + 0.1j

    def field(w):
        w = np.asarray(w, dtype=complex)
        return w**2 + 0.5 * np.conj(w)

    rows.append(
        _match(
            "dbar identity for the combined Dirichlet transform",
            0.0,
            dbar_identity_residual(field, z, 1e-3),
            1e-3,
            "the combined transform solves dbar u = f",
        )
    )
    rows.append(
        _match(
            "dbar identity for the singular transform (sign -1)",
            0.0,
            dbar_identity_residual(field, -0.1 + 0.3j, 1e-3, op=Operator.CAUCHY),
            1e-3,
            "the singular transform solves dbar u = -f",
        )
    )
    rows.append(
        _match(
            "dbar annihilates the projection output",
            0.0,
            dbar_identity_residual(field, z, 1e-3, op=Operator.BERGMAN),
            1e-3,
            "projection images are analytic",
        )
    )
    return rows


def suite_norms(seed: int = 42) -> List[ReportRow]:
    rows: List[ReportRow] = []
    rng = random.Random(seed)
    j0 = bessel_j0_smallest_zero()

    rows.append(
        _match(
            "L2 norm of the singular transform is 2/j0",
            2.0 / j0,
            closed_form_norm(NormQuery(Operator.CAUCHY, 2.0)).value,
            1e-15,
            "L2 norm via the smallest Bessel zero",
        )
    )

    # at b = 0 the Mobius substitution makes the center energy's integrand
    # the constant 2/(2 - q), which 16 angles on the mode engine's cached
    # 33 rings sum to rounding
    mobius = DiskRule(33, 16, Mobius())
    for p in (3.0, 4.0, 10.0):
        q = p / (p - 1.0)
        closed = closed_form_norm(NormQuery(Operator.CAUCHY, p, Target.L_INFINITY)).value
        quad = integrate_disk_singular(np.ones_like, 0.0, q, mobius).value.real ** (1.0 - 1.0 / p)
        rows.append(
            _match(
                f"p-to-sup closed form vs center energy by quadrature, p={p:g}",
                closed,
                quad,
                1e-4,
                "center kernel energy integrated with its true singular exponent",
            )
        )
        low = lower_bound_via_extremal(Operator.CAUCHY, p, 0.01)
        rows.append(
            _floor(
                f"extremal family reaches 99.5% of the p-to-sup norm, p={p:g}",
                0.995 * closed,
                low.value,
                0.0,
                "anchored unit-norm family squeezes the exact constant",
            )
        )

    worst = max(
        abs(mode_rayleigh_maximum(d) - 1.0 / (d * (d + 1))) for d in range(1, 11)
    )
    rows.append(
        _match(
            "mode constants 1/(d(d+1)) from grid maximization, d=1..10",
            0.0,
            worst,
            1e-6,
            "rank-one Rayleigh quotient on the 256-point radial Gauss grid",
        )
    )
    rows.append(
        _match(
            "mode d=1 constant = 1/2",
            0.5,
            mode_rayleigh_maximum(1),
            1e-6,
            "best L2 mode constant, attained by the weight profile",
        )
    )
    rows.append(
        _match(
            "L2 norm sqrt(1/2) from the mode sweep",
            math.sqrt(0.5),
            l2_norm_numeric(50).value,
            1e-9,
            "supremum of mode constants, attained at d=1",
        )
    )

    c = mode_reduce(3, lambda r: 1.0 - r)

    def g(w):
        w = np.asarray(w, dtype=complex)
        r = np.abs(w)
        u = w / r
        return (1.0 - r) * (u * u * u)  # (w / r)^3, the mode reduced above

    zs = [0.8 * math.sqrt(rng.uniform(0.05, 1)) * np.exp(2j * math.pi * rng.uniform(0, 1)) for _ in range(10)]
    # the quadrature rule, not the default mode engine, which would compare
    # the reduction with itself.  After the angular mean the integrand is
    # (1 - r) r^4 z^2, degree 5 against the 33 rings' exactness to degree
    # 49, and 256 angles alias it only through z^(2+256k), about 0.8^258
    fid_rule = DiskRule(33, 256)
    worst = max(
        abs(apply(Operator.J0_STAR, g, complex(z), fid_rule).value - c * complex(z) ** 2)
        for z in zs
    )
    rows.append(
        _match(
            "mode-3 reduction matches full quadrature at 10 interior points",
            0.0,
            worst,
            1e-6,
            "rank-one action of the conjugate-weighted kernel on one mode",
        )
    )

    for p, name in ((1.0, "p=1"), (2.0, "p=2"), (math.inf, "p=inf")):
        rows.append(
            _match(
                f"interpolation endpoint shares the catalog constant, {name}",
                closed_form_norm(NormQuery(Operator.J0_STAR, p)).value,
                riesz_thorin_bound(p).value,
                0.0,
                "endpoint bounds come from the same constant sources",
            )
        )

    def monomial_lp(a: int, b: int, p: float) -> float:
        return (2.0 / ((a + b) * p + 2.0)) ** (1.0 / p)

    for p in (1.5, 3.0, 4.0):
        bound = closed_form_norm(NormQuery(Operator.J0_STAR, p)).value
        sampled = max(
            0.5 / monomial_lp(1, 0, p),
            (1.0 / 3.0) / monomial_lp(2, 1, p),
            monomial_lp(1, 0, p) / 3.0 / monomial_lp(2, 0, p),
        )
        rows.append(
            _ceiling(
                f"interpolated bound dominates monomial-image samples, p={p:g}",
                bound,
                sampled,
                0.0,
                "upper-bound discipline for the conjugate-weighted kernel",
            )
        )
    for p in (1.5, 3.0):
        bound = closed_form_norm(NormQuery(Operator.CAUCHY, p)).value
        sampled = max(
            monomial_lp(1, 0, p),
            # the L^p norm of 1 - r^2
            (1.0 / (p + 1.0)) ** (1.0 / p) / monomial_lp(1, 0, p),
            0.5 * monomial_lp(2, 0, p) / monomial_lp(0, 1, p),
        )
        rows.append(
            _ceiling(
                f"singular-transform bound dominates monomial-image samples, p={p:g}",
                bound,
                sampled,
                0.0,
                "upper-bound discipline for the interpolated singular transform",
            )
        )

    limit = closed_form_norm(NormQuery(Operator.J0_STAR, math.inf)).value
    at_1000 = closed_form_norm(NormQuery(Operator.J0_STAR, 1000.0, Target.L_INFINITY)).value
    rows.append(
        _match(
            "boundary constant curve near its limit at p=1000",
            limit,
            at_1000,
            0.01 * limit,
            "A(p)^(1-1/p) approaches the Catalan-mass limit",
        )
    )
    return rows


def suite_counterexamples(seed: int = 42) -> List[ReportRow]:
    rows: List[ReportRow] = []
    ceiling = 2.0 / math.log(1.5)
    for name in ("CAUCHY_P2", "J0_P2", "J0STAR_P2"):
        mass = counterexample_l2_mass(name)
        rows.append(
            _ceiling(
                f"squared L2 mass under the ball-mass ceiling, {name}",
                ceiling,
                mass,
                1e-3,
                "the disk sits inside the radius-2 ball around the anchor",
            )
        )
    for name in ("CAUCHY_P2", "J0_P2", "J0STAR_P2"):
        slope = divergence_slope(name)
        rows.append(
            _match(
                f"divergence-law slope in iterated-log coordinates, {name}",
                1.0,
                slope,
                0.1,
                "truncated mass is affine in the transformed truncation radius",
            )
        )
    rng = random.Random(seed)
    n = 1000
    ts = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    rhos = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(n)]
    rs = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(n)]
    g_min = min(fatou_limit_integrand(t, rho, r) for t, rho, r in zip(ts, rhos, rs))
    rows.append(
        _positive(
            "radial-limit integrand positive on 1000 seeded samples",
            g_min,
            "pointwise positivity justifies the limit under the integral",
        )
    )
    g1_min = min(
        fatou_limit_integrand_adjoint(t, rho, r) for t, rho, r in zip(ts, rhos, rs)
    )
    rows.append(
        _positive(
            "weighted radial-limit integrand positive on the same samples",
            g1_min,
            "the conjugate-weighted analog keeps the positivity",
        )
    )
    return rows


_SUITES = {
    "specfun": suite_specfun,
    "profiles": suite_profiles,
    "operators": suite_operators,
    "norms": suite_norms,
    "counterexamples": suite_counterexamples,
}


def run_suite(name: str, seed: int = 42) -> List[ReportRow]:
    """Run one suite (or 'all'), each row judged by its own tolerance."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose all or one of {', '.join(SUITE_NAMES)}")
    rows: List[ReportRow] = []
    for n in names:
        rows.extend(_SUITES[n](seed))
    return rows
