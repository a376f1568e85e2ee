"""Acceptance suite: one test per stated criterion, at the stated tolerance.

Run with -v to get one PASS/FAIL line per criterion.  Criterion 5's second
clause (the radius-0.99 analytic-kernel energy within 2% of its boundary
limit 4/pi) is not attainable: the true relative gap at rho = 0.99 is
2.8607%.  The assertion is kept exactly as stated and marked strict-xfail,
so the suite records the failure without hiding it; if the claim ever
started to pass, the suite would flag that too.  See README for the
analysis.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from disknorms.norms import (
    NormQuery,
    Target,
    closed_form_norm,
    counterexample_l2_mass,
    divergence_slope,
    fatou_limit_integrand,
    l2_norm_numeric,
    lower_bound_via_extremal,
    mode_rayleigh_maximum,
    mode_reduce,
    riesz_thorin_bound,
)
from disknorms.operators import Operator, adjoint_pairing_residual, apply
from disknorms.profiles import (
    a_p_constant,
    a_p_upper_bound,
    h_coefficient,
    profile_F,
    profile_K,
    profile_M,
    profile_N,
)
from disknorms.quadrature import (
    AnnulusExclude,
    DiskRule,
    Mobius,
    integrate_disk,
    integrate_disk_singular,
)
from disknorms.specfun import bessel_j0_smallest_zero, catalan_constant, gauss_2f1_at_1
from disknorms.verify import run_suite, _direct_boundary_series

CATALAN_REFERENCE = 0.91596559417721901505
J0_ZERO_REFERENCE = 2.4048255576957727686


def test_criterion_01_gauss_identity():
    assert abs(gauss_2f1_at_1(0.5, 0.5, 2.0) - 4.0 / math.pi) < 1e-10


def test_criterion_02_catalan_constants():
    alpha = catalan_constant(1e-10).value
    assert abs(alpha - CATALAN_REFERENCE) < 5e-7
    limit = (1.0 + 2.0 * alpha) / math.pi
    assert abs(profile_N(1.0, 1.0, 1e-9).value - limit) < 1e-6


def test_criterion_03_bessel_zero():
    j0 = bessel_j0_smallest_zero()
    assert abs(j0 - J0_ZERO_REFERENCE) < 5e-7
    reported = closed_form_norm(NormQuery(Operator.CAUCHY, 2.0))
    assert reported.value == 2.0 / j0


def test_criterion_04_center_squeeze():
    for p in (3.0, 4.0, 10.0):
        q = p / (p - 1.0)
        closed = closed_form_norm(NormQuery(Operator.CAUCHY, p, Target.L_INFINITY)).value
        rule = DiskRule.for_point(0.0, singular=True)
        quad = integrate_disk_singular(np.ones_like, 0.0, q, rule)
        assert abs(closed - quad.value.real ** (1.0 - 1.0 / p)) < 1e-4
        low = lower_bound_via_extremal(Operator.CAUCHY, p, 0.01)
        assert low.value >= 0.995 * closed


def test_criterion_05_gamma_form_equals_boundary_energy():
    for p in (3.0, 4.0, 10.0):
        q = p / (p - 1.0)
        a = (p - 2.0) / (p - 1.0)
        b = (3.0 * p - 4.0) / (2.0 * p - 2.0)
        gamma_form = math.exp((1.0 - 1.0 / p) * (math.lgamma(a) - 2.0 * math.lgamma(b)))
        assert abs(gamma_form - profile_M(q, 1.0) ** (1.0 - 1.0 / p)) < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="stated proximity is unattainable: the true relative gap between "
    "M1(0.99) and 4/pi is 2.8607%, outside the 2% band; kept as stated",
)
def test_criterion_05_boundary_proximity_clause():
    limit = 4.0 / math.pi
    assert abs(profile_M(1.0, 0.99) - limit) <= 0.02 * limit


def test_criterion_06_boundary_constant_routes():
    for p in (2.5, 3.0, 4.0):
        q = p / (p - 1.0)
        accel = a_p_constant(p, 1e-10)
        direct = _direct_boundary_series(q)
        combined = accel.tail_bound + 1e-8
        assert abs(accel.value - direct) <= combined
        e = 1.0 - 1.0 / p
        assert abs(accel.value**e - direct**e) <= combined
        assert accel.value + accel.tail_bound < a_p_upper_bound(p)


def test_criterion_07_mode_structure():
    for d in range(1, 11):
        assert abs(mode_rayleigh_maximum(d) - 1.0 / (d * (d + 1))) < 1e-6
    assert abs(l2_norm_numeric(10).value - math.sqrt(0.5)) < 1e-9

    d = 3
    c = mode_reduce(d, lambda r: 1.0 - r)

    def g(w):
        w = np.asarray(w, dtype=complex)
        r = np.abs(w)
        return (1.0 - r) * (w / r) ** d

    rng = np.random.default_rng(42)
    zs = 0.8 * np.sqrt(rng.uniform(0.05, 1, 10)) * np.exp(2j * math.pi * rng.uniform(0, 1, 10))
    for z in zs:
        # an explicit rule, so the modes are checked against the quadrature
        full = apply(Operator.J0_STAR, g, complex(z), DiskRule.for_point(complex(z)))
        assert abs(full.value - c * complex(z) ** (d - 1)) < 1e-6


def test_criterion_08_adjoint_pairing():
    rng = np.random.default_rng(42)
    idx = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]

    def make(coeffs):
        def poly(w):
            w = np.asarray(w, dtype=complex)
            out = np.zeros_like(w)
            for (a, b), c in zip(idx, coeffs):
                out = out + c * w**a * np.conj(w) ** b
            return out

        return poly

    for _ in range(20):
        f = make(rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx)))
        g = make(rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx)))
        assert adjoint_pairing_residual(f, g) <= 1e-12


def test_criterion_09_interpolation_endpoints_and_dominance():
    for p in (1.0, 2.0, math.inf):
        assert riesz_thorin_bound(p).value == closed_form_norm(NormQuery(Operator.J0_STAR, p)).value

    t, w = np.polynomial.legendre.leggauss(400)
    t, w = 0.5 * (t + 1.0), 0.5 * w

    def radial_lp(vals, p):
        return float(np.sum(2.0 * w * t * vals**p)) ** (1.0 / p)

    def monomial_lp(a, b, p):
        return (2.0 / ((a + b) * p + 2.0)) ** (1.0 / p)

    for p in (1.5, 3.0, 4.0):
        bound = closed_form_norm(NormQuery(Operator.J0_STAR, p)).value
        sampled = max(
            0.5 / monomial_lp(1, 0, p),
            (1.0 / 3.0) / monomial_lp(2, 1, p),
            radial_lp(t / 3.0, p) / monomial_lp(2, 0, p),
        )
        assert sampled <= bound
    for p in (1.5, 3.0):
        bound = closed_form_norm(NormQuery(Operator.CAUCHY, p)).value
        sampled = max(
            radial_lp(t, p),
            radial_lp(1.0 - t**2, p) / monomial_lp(1, 0, p),
            radial_lp(0.5 * t**2, p) / monomial_lp(0, 1, p),
        )
        assert sampled <= bound


def test_criterion_10_counterexamples():
    ceiling = 2.0 / math.log(1.5)
    assert counterexample_l2_mass("CAUCHY_P2") <= ceiling + 1e-3
    for name in ("CAUCHY_P2", "J0_P2", "J0STAR_P2"):
        assert 0.9 <= divergence_slope(name) <= 1.1
    rng = np.random.default_rng(42)
    n = 1000
    ts = rng.uniform(0.0, 2.0 * math.pi, n)
    rhos = rng.uniform(1e-6, 1.0 - 1e-6, n)
    rs = rng.uniform(1e-6, 1.0 - 1e-6, n)
    assert all(
        fatou_limit_integrand(tt, rho, r) > 0.0 for tt, rho, r in zip(ts, rhos, rs)
    )


def test_criterion_11_quadrature_exactness():
    rule = DiskRule(64, 64)
    for a in range(11):
        for b in range(11):
            got = integrate_disk(lambda w: w**a * np.conj(w) ** b, rule).value
            exact = 1.0 / (a + 1.0) if a == b else 0.0
            assert abs(got - exact) < 1e-12

    _assert_substitution_and_exclusion_agree(42)


def _assert_substitution_and_exclusion_agree(seed):
    # the verify row's check on ten integrands drawn from numpy's generator
    rng = np.random.default_rng(seed)
    for _ in range(10):
        b = complex(*(0.6 * rng.uniform(-1, 1, 2) / math.sqrt(2.0)))
        s = rng.uniform(0.5, 1.5)
        c0, c1, c2 = rng.normal(size=3) + 1j * rng.normal(size=3)

        def g(w, c0=c0, c1=c1, c2=c2):
            w = np.asarray(w, dtype=complex)
            return c0 + c1 * w + c2 * np.conj(w)

        via_mobius = integrate_disk_singular(g, b, s, DiskRule(192, 96, Mobius()))
        via_annulus = integrate_disk_singular(g, b, s, DiskRule(192, 96, AnnulusExclude(0.05)))
        budget = via_mobius.abs_error_estimate + via_annulus.abs_error_estimate
        assert abs(via_mobius.value - via_annulus.value) <= budget


@pytest.mark.parametrize("seed", [0, 11, 13, 16, 20])
def test_substitution_and_exclusion_agree_at_seeds_that_once_failed(seed):
    # the annulus route errs by about 2e-14 relative whatever its counts;
    # a floor of 1e-14 (1 + |value|) in its estimate missed that on the
    # integrands the verify row drew from numpy's generator at these seeds.
    # The row now draws from the standard library, so its seeds name other
    # integrands; these are kept here
    _assert_substitution_and_exclusion_agree(seed)


def test_criterion_12_monotonicity_suites():
    rhos = np.linspace(0.0, 1.0, 100)
    for q in (1.0, 1.25, 1.5, 1.75):
        p = math.inf if q == 1.0 else q / (q - 1.0)
        K = [profile_K(p, float(r)) for r in rhos]
        assert all(K[i] > K[i + 1] for i in range(99))
        M = [profile_M(q, float(r)) for r in rhos]
        assert all(M[i] < M[i + 1] for i in range(99))
        N = [profile_N(q, float(r), 1e-10).value for r in rhos[:-1]]
        N.append(profile_N(q, 1.0, 1e-7).value)
        assert all(N[i] < N[i + 1] for i in range(99))
        F = [profile_F(q, float(tt)) for tt in rhos]
        assert all(F[i] > F[i + 1] for i in range(99))
        assert all(h_coefficient(q, m) >= 0.0 for m in range(100))


def test_runtime_target_full_verify_suite():
    start = time.monotonic()
    rows = run_suite("all")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    # exactly one designed failure: the criterion-5 proximity clause
    failed = [r.label for r in rows if not r.passed]
    assert failed == ["M1(0.99) within 2% of 4/pi"]


@pytest.mark.parametrize("seed", [42, 0])
def test_verify_rows_match_the_benchmark_reference(seed):
    # the benchmark fails every verify run whose labels differ from this
    # file's, in order; the labels do not depend on the seed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "verify_seed42.csv"
    with path.open(newline="") as handle:
        labels = [row["label"] for row in csv.DictReader(handle)]
    assert len(labels) == 52
    rows = run_suite("all", seed=seed)
    assert [r.label for r in rows] == labels
    assert {r.label for r in rows if r.status != "PASS"} == {"M1(0.99) within 2% of 4/pi"}
