"""Tests for the norm catalog, extremal families, modes and counterexamples."""

import math
import sys

import numpy as np
import pytest

from disknorms.errors import DomainError, UnsupportedQueryError
from disknorms.norms import (
    COUNTEREXAMPLE_NAMES,
    NormKind,
    NormQuery,
    Target,
    closed_form_norm,
    counterexample,
    counterexample_l2_mass,
    divergence_ladder,
    divergence_slope,
    extremal_function,
    fatou_limit_integrand,
    fatou_limit_integrand_adjoint,
    l2_norm_numeric,
    lower_bound_via_extremal,
    mode_best_constant,
    mode_rayleigh_maximum,
    mode_reduce,
    riesz_thorin_bound,
    subharmonic_comparison_field,
)
from disknorms.operators import Operator, apply
from disknorms.profiles import profile_K, profile_M, profile_N
from disknorms.quadrature import DiskRule, integrate_disk, integrate_disk_singular
from disknorms.specfun import bessel_j0_smallest_zero

INF = math.inf

# reference values, frozen from independent high-precision summation
CATALAN = 0.91596559417721901505
KERNEL_MASS_LIMIT = 0.90143169424542823181  # (1 + 2*Catalan)/pi
M1_AT_099 = 1.2368164808754954355
N1_AT_099 = 0.87897473476075989542
A3 = 1.5762267609646316533
A4 = 1.1979464800047525603
GAMMA_QUOTIENT_P3 = 2.1574104047535174267  # Gamma(1/2) / Gamma(5/4)^2


def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def lp_norm_radial(values_of_r, p, n=400):
    """L^p norm over the disk of a |z|-radial |function| given as r -> |f|."""
    t, w = gauss01(n)
    return float(np.sum(2.0 * w * t * values_of_r(t) ** p)) ** (1.0 / p)


def monomial_lp(a, b, p):
    # ||w^a conj(w)^b||_p = (2/((a+b)p + 2))^(1/p)
    return (2.0 / ((a + b) * p + 2.0)) ** (1.0 / p)


class TestCatalogValidation:
    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            NormQuery(Operator.CAUCHY, 0.5)

    def test_sup_target_needs_p_above_two(self):
        with pytest.raises(DomainError):
            NormQuery(Operator.CAUCHY, 2.0, Target.L_INFINITY)
        with pytest.raises(DomainError):
            NormQuery(Operator.J0, 1.5, Target.L_INFINITY)

    def test_string_coercion(self):
        q = NormQuery("cauchy", 3.0, "linf")
        assert q.operator is Operator.CAUCHY
        assert q.target is Target.L_INFINITY

    def test_bergman_not_cataloged(self):
        with pytest.raises(UnsupportedQueryError):
            closed_form_norm(NormQuery(Operator.BERGMAN, 2.0))
        with pytest.raises(UnsupportedQueryError):
            closed_form_norm(NormQuery(Operator.BERGMAN, 3.0, Target.L_INFINITY))

    def test_cdelta_has_no_sup_entry(self):
        with pytest.raises(UnsupportedQueryError):
            closed_form_norm(NormQuery(Operator.C_DELTA, 3.0, Target.L_INFINITY))

    def test_j0_finite_p_not_cataloged(self):
        with pytest.raises(UnsupportedQueryError):
            closed_form_norm(NormQuery(Operator.J0, 3.0))


class TestCauchyCatalog:
    def test_p_to_sup_values(self):
        r3 = closed_form_norm(NormQuery(Operator.CAUCHY, 3.0, Target.L_INFINITY))
        assert r3.value == pytest.approx(4.0 ** (2.0 / 3.0), abs=1e-14)
        r4 = closed_form_norm(NormQuery(Operator.CAUCHY, 4.0, Target.L_INFINITY))
        assert r4.value == pytest.approx(2.2795070569547775, abs=1e-13)
        assert r4.kind is NormKind.EXACT_NORM
        rinf = closed_form_norm(NormQuery(Operator.CAUCHY, INF, Target.L_INFINITY))
        assert rinf.value == 2.0 and rinf.kind is NormKind.EXACT_NORM

    def test_p_to_sup_matches_center_profile(self):
        # the closed form is K_p(0)^(1-1/p)
        for p in (3.0, 4.0, 10.0):
            r = closed_form_norm(NormQuery(Operator.CAUCHY, p, Target.L_INFINITY))
            assert r.value == pytest.approx(
                profile_K(p, 0.0) ** (1.0 - 1.0 / p), rel=1e-12
            )

    def test_same_p_exact_entries(self):
        assert closed_form_norm(NormQuery(Operator.CAUCHY, 1.0)).value == 2.0
        r2 = closed_form_norm(NormQuery(Operator.CAUCHY, 2.0))
        assert r2.value == 2.0 / bessel_j0_smallest_zero()
        assert r2.kind is NormKind.EXACT_NORM
        assert closed_form_norm(NormQuery(Operator.CAUCHY, INF)).value == 2.0

    def test_same_p_interpolation_bound(self):
        j0 = bessel_j0_smallest_zero()
        r = closed_form_norm(NormQuery(Operator.CAUCHY, 1.5))
        assert r.kind is NormKind.UPPER_BOUND
        assert r.value == pytest.approx(2.0 * j0 ** (-2.0 / 3.0), rel=1e-14)
        r = closed_form_norm(NormQuery(Operator.CAUCHY, 3.0))
        assert r.value == pytest.approx(2.0 * j0 ** (-2.0 / 3.0), rel=1e-14)

    def test_interpolation_bound_continuous_at_endpoints(self):
        j0 = bessel_j0_smallest_zero()
        near2_below = closed_form_norm(NormQuery(Operator.CAUCHY, 2.0 - 1e-9)).value
        near2_above = closed_form_norm(NormQuery(Operator.CAUCHY, 2.0 + 1e-9)).value
        assert near2_below == pytest.approx(2.0 / j0, abs=1e-8)
        assert near2_above == pytest.approx(2.0 / j0, abs=1e-8)
        assert closed_form_norm(NormQuery(Operator.CAUCHY, 1.0 + 1e-9)).value == pytest.approx(2.0, abs=1e-7)
        assert closed_form_norm(NormQuery(Operator.CAUCHY, 1e9)).value == pytest.approx(2.0, abs=1e-7)


class TestJ0Catalog:
    def test_sup_norm(self):
        r = closed_form_norm(NormQuery(Operator.J0, INF))
        assert r.value == 4.0 / math.pi
        assert r.kind is NormKind.EXACT_NORM
        assert closed_form_norm(NormQuery(Operator.J0, INF, Target.L_INFINITY)).value == 4.0 / math.pi

    def test_gamma_form_matches_boundary_profile(self):
        for p in (3.0, 4.0, 10.0):
            q = p / (p - 1.0)
            r = closed_form_norm(NormQuery(Operator.J0, p, Target.L_INFINITY))
            assert r.kind is NormKind.EXACT_NORM
            assert r.value == pytest.approx(
                profile_M(q, 1.0) ** (1.0 - 1.0 / p), abs=1e-8
            )
        r3 = closed_form_norm(NormQuery(Operator.J0, 3.0, Target.L_INFINITY))
        assert r3.value == pytest.approx(GAMMA_QUOTIENT_P3 ** (2.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("p", [1e200, 7e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize(
    "op,limit",
    [(Operator.CAUCHY, 2.0), (Operator.J0, 4.0 / math.pi), (Operator.J0_STAR, KERNEL_MASS_LIMIT)],
)
def test_p_to_sup_at_huge_p_stays_finite_and_near_its_limit(op, limit, p):
    r = closed_form_norm(NormQuery(op, p, Target.L_INFINITY))
    assert math.isfinite(r.value)
    assert r.kind is NormKind.EXACT_NORM
    assert abs(r.value - limit) <= r.error_estimate


class TestJ0StarCatalog:
    def test_exact_entries(self):
        assert closed_form_norm(NormQuery(Operator.J0_STAR, 1.0)).value == 4.0 / math.pi
        assert closed_form_norm(NormQuery(Operator.J0_STAR, 2.0)).value == math.sqrt(0.5)
        rinf = closed_form_norm(NormQuery(Operator.J0_STAR, INF))
        assert rinf.value == pytest.approx(KERNEL_MASS_LIMIT, abs=1e-12)
        assert rinf.error_estimate < 1e-12

    def test_sup_target_values(self):
        r3 = closed_form_norm(NormQuery(Operator.J0_STAR, 3.0, Target.L_INFINITY))
        assert r3.value == pytest.approx(A3 ** (2.0 / 3.0), abs=1e-10)
        assert 0 < r3.error_estimate < 1e-9
        r4 = closed_form_norm(NormQuery(Operator.J0_STAR, 4.0, Target.L_INFINITY))
        assert r4.value == pytest.approx(A4 ** 0.75, abs=1e-10)
        rinf = closed_form_norm(NormQuery(Operator.J0_STAR, INF, Target.L_INFINITY))
        assert rinf.value == pytest.approx(KERNEL_MASS_LIMIT, abs=1e-12)

    def test_sup_target_approaches_limit(self):
        # consistency: A(p)^(1-1/p) at p = 1000 sits within 1% of the limit
        r = closed_form_norm(NormQuery(Operator.J0_STAR, 1000.0, Target.L_INFINITY))
        assert abs(r.value - KERNEL_MASS_LIMIT) < 0.01 * KERNEL_MASS_LIMIT

    def test_intermediate_p_takes_smaller_bound(self):
        for p in (1.5, 2.5, 3.0, 4.0, 10.0):
            r = closed_form_norm(NormQuery(Operator.J0_STAR, p))
            rt = riesz_thorin_bound(p)
            direct = 4.0 ** (1.0 / p) * (1.0 + 2.0 * CATALAN) ** (1.0 - 1.0 / p) / math.pi
            assert r.kind is NormKind.UPPER_BOUND
            assert r.value <= rt.value + 1e-15
            assert r.value <= direct + 1e-12
            assert r.value == pytest.approx(min(rt.value, direct), abs=1e-12)


class TestCDeltaCatalog:
    def test_attained_endpoints(self):
        assert closed_form_norm(NormQuery(Operator.C_DELTA, 1.0)).value == 2.0
        r2 = closed_form_norm(NormQuery(Operator.C_DELTA, 2.0))
        assert r2.value == 2.0 / bessel_j0_smallest_zero()
        assert r2.kind is NormKind.EXACT_NORM
        rinf = closed_form_norm(NormQuery(Operator.C_DELTA, INF))
        assert rinf.value == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert rinf.kind is NormKind.EXACT_NORM

    def test_interpolation_bounds(self):
        j0 = bessel_j0_smallest_zero()
        r = closed_form_norm(NormQuery(Operator.C_DELTA, 4.0))
        assert r.kind is NormKind.UPPER_BOUND
        assert r.value == pytest.approx((4.0 / 3.0) * (2.0 * j0 / 3.0) ** -0.5, rel=1e-14)
        r = closed_form_norm(NormQuery(Operator.C_DELTA, 1.5))
        assert r.value == pytest.approx(2.0 * j0 ** (-2.0 / 3.0), rel=1e-14)

    def test_bound_continuous_at_endpoints(self):
        j0 = bessel_j0_smallest_zero()
        assert closed_form_norm(NormQuery(Operator.C_DELTA, 2.0 + 1e-9)).value == pytest.approx(2.0 / j0, abs=1e-8)
        assert closed_form_norm(NormQuery(Operator.C_DELTA, 2.0 - 1e-9)).value == pytest.approx(2.0 / j0, abs=1e-8)
        assert closed_form_norm(NormQuery(Operator.C_DELTA, 1e9)).value == pytest.approx(4.0 / 3.0, abs=1e-6)


class TestRieszThorin:
    def test_endpoints_share_constant_sources(self):
        # bitwise equality with the catalog, not just approximate agreement
        assert riesz_thorin_bound(1.0).value == closed_form_norm(NormQuery(Operator.J0_STAR, 1.0)).value
        assert riesz_thorin_bound(2.0).value == closed_form_norm(NormQuery(Operator.J0_STAR, 2.0)).value
        assert riesz_thorin_bound(INF).value == closed_form_norm(NormQuery(Operator.J0_STAR, INF)).value
        for p in (1.0, 2.0, INF):
            assert riesz_thorin_bound(p).kind is NormKind.EXACT_NORM

    def test_interior_values(self):
        r = riesz_thorin_bound(4.0)
        assert r.kind is NormKind.UPPER_BOUND
        assert r.value == pytest.approx(0.5 ** 0.25 * KERNEL_MASS_LIMIT ** 0.5, abs=1e-12)
        r = riesz_thorin_bound(1.5)
        assert r.value == pytest.approx((2.0 / math.pi) ** (1.0 / 3.0), abs=1e-12)

    def test_continuous_at_endpoints(self):
        assert riesz_thorin_bound(1.0 + 1e-9).value == pytest.approx(4.0 / math.pi, abs=1e-7)
        assert riesz_thorin_bound(2.0 - 1e-9).value == pytest.approx(math.sqrt(0.5), abs=1e-8)
        assert riesz_thorin_bound(2.0 + 1e-9).value == pytest.approx(math.sqrt(0.5), abs=1e-8)
        assert riesz_thorin_bound(1e9).value == pytest.approx(KERNEL_MASS_LIMIT, abs=1e-6)

    def test_dominates_exact_l2_norm_between_endpoints(self):
        for p in (1.3, 1.7, 2.5, 3.0, 5.0):
            assert riesz_thorin_bound(p).value >= math.sqrt(0.5) - 1e-15


class TestExtremalFamilies:
    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedQueryError):
            extremal_function(Operator.BERGMAN, 3.0, 0.0)
        with pytest.raises(UnsupportedQueryError):
            extremal_function(Operator.C_DELTA, 3.0, 0.0)
        with pytest.raises(UnsupportedQueryError):
            extremal_function(Operator.CAUCHY, 2.0, 0.0)

    def test_rejects_bad_anchor(self):
        with pytest.raises(DomainError):
            extremal_function(Operator.CAUCHY, 3.0, 1.0)
        with pytest.raises(DomainError):
            extremal_function(Operator.J0, 3.0, 0.0)
        with pytest.raises(DomainError):
            extremal_function(Operator.J0_STAR, INF, 0.0)

    def test_cauchy_member_unit_norm(self):
        # |f|^p has an anchor singularity of exponent q; integrate it as such
        for p, b in ((4.0, 0.0), (3.0, 0.4 + 0.0j)):
            q = p / (p - 1.0)
            f = extremal_function(Operator.CAUCHY, p, b)
            rule = DiskRule.for_point(b, singular=True)
            mass = integrate_disk_singular(lambda w: np.abs(f(w)) ** p, b, q, rule)
            assert mass.value.real == pytest.approx(1.0, abs=1e-6)

    def test_j0star_member_unit_norm(self):
        p = 3.0
        f = extremal_function(Operator.J0_STAR, p, 0.9)
        mass = integrate_disk(lambda w: np.abs(f(w)) ** p, DiskRule.for_point(0.9))
        assert mass.value.real == pytest.approx(1.0, abs=1e-6)

    def test_sup_members_unimodular(self):
        rng = np.random.default_rng(11)
        pts = 0.95 * np.sqrt(rng.uniform(0.01, 1, 64)) * np.exp(2j * math.pi * rng.uniform(0, 1, 64))
        f = extremal_function(Operator.J0, INF, 0.5)
        assert np.max(np.abs(np.abs(f(pts)) - 1.0)) < 1e-12
        g = extremal_function(Operator.J0_STAR, INF, 0.3 + 0.4j)
        assert np.max(np.abs(np.abs(g(pts)) - 1.0)) < 1e-12

    def test_cauchy_lower_bound_squeeze(self):
        # anchored near the center, the family recovers the exact p-to-sup norm
        for p in (3.0, 4.0, 10.0):
            closed = closed_form_norm(NormQuery(Operator.CAUCHY, p, Target.L_INFINITY))
            low = lower_bound_via_extremal(Operator.CAUCHY, p, 0.01)
            assert low.kind is NormKind.LOWER_BOUND
            assert low.value >= 0.995 * closed.value
            assert low.value <= closed.value + max(1e-8, low.error_estimate)

    def test_cauchy_sup_exponent_lower_bound(self):
        low = lower_bound_via_extremal(Operator.CAUCHY, INF, 0.0)
        assert low.value == pytest.approx(2.0, abs=1e-8)
        off = lower_bound_via_extremal(Operator.CAUCHY, INF, 0.3)
        assert off.value == pytest.approx(profile_K(INF, 0.3), abs=1e-8)

    def test_j0_sup_lower_bound_near_boundary(self):
        low = lower_bound_via_extremal(Operator.J0, INF, 0.99)
        assert low.value == pytest.approx(M1_AT_099, abs=1e-7)
        limit = 4.0 / math.pi
        assert low.value <= limit
        assert abs(low.value - limit) / limit < 0.03

    def test_j0star_sup_lower_bound_near_boundary(self):
        low = lower_bound_via_extremal(Operator.J0_STAR, INF, 0.99)
        assert low.value == pytest.approx(N1_AT_099, abs=1e-7)
        assert low.value <= KERNEL_MASS_LIMIT
        assert abs(low.value - KERNEL_MASS_LIMIT) / KERNEL_MASS_LIMIT < 0.03

    def test_finite_p_lower_bounds_match_profiles(self):
        low = lower_bound_via_extremal(Operator.J0, 4.0, 0.99)
        target = profile_M(4.0 / 3.0, 0.99) ** 0.75
        assert abs(low.value - target) / target < 0.005
        assert low.value <= closed_form_norm(NormQuery(Operator.J0, 4.0, Target.L_INFINITY)).value
        low = lower_bound_via_extremal(Operator.J0_STAR, 3.0, 0.99)
        target = profile_N(1.5, 0.99, 1e-10).value ** (2.0 / 3.0)
        assert abs(low.value - target) / target < 0.005
        assert low.value <= closed_form_norm(NormQuery(Operator.J0_STAR, 3.0, Target.L_INFINITY)).value


class TestUpperBoundDominance:
    """Every UPPER_BOUND catalog entry dominates sampled lower bounds."""

    def test_cauchy_monomial_ratios(self):
        for p in (1.5, 3.0):
            bound = closed_form_norm(NormQuery(Operator.CAUCHY, p)).value
            # images of 1, w, conj(w), w^2 under the singular transform
            ratios = [
                lp_norm_radial(lambda r: r, p) / 1.0,
                lp_norm_radial(lambda r: 1.0 - r**2, p) / monomial_lp(1, 0, p),
                lp_norm_radial(lambda r: 0.5 * r**2, p) / monomial_lp(0, 1, p),
                lp_norm_radial(lambda r: r * (1.0 - r**2), p) / monomial_lp(2, 0, p),
            ]
            assert max(ratios) <= bound + 1e-12

    def test_j0star_monomial_ratios(self):
        for p in (1.5, 3.0, 4.0):
            bound = closed_form_norm(NormQuery(Operator.J0_STAR, p)).value
            ratios = [
                0.5 / monomial_lp(1, 0, p),                       # w -> 1/2
                (1.0 / 3.0) / monomial_lp(2, 1, p),               # w^2 conj(w) -> 1/3
                lp_norm_radial(lambda r: r / 3.0, p) / monomial_lp(2, 0, p),  # w^2 -> z/3
            ]
            assert max(ratios) <= bound + 1e-12

    def test_cdelta_monomial_ratios(self):
        for p in (1.5, 3.0):
            bound = closed_form_norm(NormQuery(Operator.C_DELTA, p)).value
            ratios = [
                lp_norm_radial(lambda r: r, p) / 1.0,             # 1 -> conj(z)
                lp_norm_radial(lambda r: np.abs(r**2 - 0.5), p) / monomial_lp(1, 0, p),
            ]
            assert max(ratios) <= bound + 1e-12


class TestModes:
    def test_reduce_examples(self):
        red = mode_reduce(1, lambda r: np.ones_like(r))
        assert red.coefficient == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert isinstance(red.coefficient, float)
        red = mode_reduce(2, lambda r: r**2)
        assert red.coefficient == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_low_modes_vanish(self):
        for d in (0, -1, -5):
            red = mode_reduce(d, lambda r: np.exp(r))
            assert red.coefficient == 0.0
            assert red.image(0.3 + 0.2j) == 0.0

    def test_complex_profile_keeps_complex_coefficient(self):
        red = mode_reduce(1, lambda r: (1.0 + 2.0j) * r)
        assert red.coefficient == pytest.approx((1.0 + 2.0j) * 0.5, abs=1e-14)

    def test_image_powers(self):
        red = mode_reduce(3, lambda r: np.ones_like(r))
        z = 0.4 - 0.3j
        assert red.image(z) == pytest.approx(red.coefficient * z**2, abs=1e-15)

    def test_scalar_only_profile(self):
        # a profile written with the math module gets one real node at a time
        red = mode_reduce(2, lambda r: math.exp(r))
        assert isinstance(red.coefficient, float)
        assert red.coefficient == pytest.approx(
            mode_reduce(2, np.exp).coefficient, rel=1e-14
        )

    def test_rejects_non_integer_mode(self):
        with pytest.raises(DomainError):
            mode_reduce(1.5, lambda r: r)

    def test_best_constant(self):
        for d in (1, 2, 3, 7):
            c, maximizer = mode_best_constant(d)
            assert c == pytest.approx(1.0 / (d * (d + 1)), abs=1e-16)
            assert maximizer(0.5) == pytest.approx(0.5**d, abs=1e-15)
        with pytest.raises(DomainError):
            mode_best_constant(0)

    def test_rayleigh_grid_reproduces_constants(self):
        for d in range(1, 11):
            got = mode_rayleigh_maximum(d)
            assert abs(got - 1.0 / (d * (d + 1))) < 1e-6

    def test_rayleigh_decreasing_in_mode(self):
        vals = [mode_rayleigh_maximum(d) for d in range(1, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_l2_norm(self):
        r = l2_norm_numeric(1)
        assert r.value == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert r.kind is NormKind.EXACT_NORM
        assert l2_norm_numeric(50).value == pytest.approx(math.sqrt(0.5), abs=1e-12)
        with pytest.raises(DomainError):
            l2_norm_numeric(0)

    def test_mode_orthogonality(self):
        def mode_field(d, prof):
            def g(w):
                w = np.asarray(w, dtype=complex)
                r = np.abs(w)
                return prof(r) * (w / r) ** d

            return g

        rule = DiskRule(64, 64)
        pairs = [(1, 2), (0, 3), (2, 5)]
        for d1, d2 in pairs:
            g1 = mode_field(d1, lambda r: 1.0 - r)
            g2 = mode_field(d2, lambda r: r**2)
            inner = integrate_disk(lambda w: g1(w) * np.conj(g2(w)), rule)
            assert abs(inner.value) < 1e-10

    def test_reduction_matches_full_quadrature(self):
        d = 3

        def prof(r):
            return 1.0 - r

        red = mode_reduce(d, prof)

        def g(w):
            w = np.asarray(w, dtype=complex)
            r = np.abs(w)
            return prof(r) * (w / r) ** d

        rng = np.random.default_rng(7)
        zs = 0.8 * np.sqrt(rng.uniform(0.05, 1, 10)) * np.exp(2j * math.pi * rng.uniform(0, 1, 10))
        for z in zs:
            full = apply(Operator.J0_STAR, g, complex(z))
            assert abs(full.value - red.image(complex(z))) < 1e-6

    def test_nonpositive_mode_maps_to_zero_field(self):
        def g(w):
            w = np.asarray(w, dtype=complex)
            r = np.abs(w)
            return (1.0 - r) * (np.conj(w) / r) ** 2  # angular mode -2

        out = apply(Operator.J0_STAR, g, 0.3 + 0.1j)
        assert abs(out.value) < 1e-10


class TestCounterexamples:
    def test_registry(self):
        assert COUNTEREXAMPLE_NAMES == ("CAUCHY_P2", "J0_P2", "J0STAR_P2")
        for name in COUNTEREXAMPLE_NAMES:
            density, ceiling, law = counterexample(name)
            assert ceiling == pytest.approx(2.0 / math.log(1.5), abs=1e-15)
            assert "log log" in law
            val = density(np.asarray([0.2 + 0.1j]))[0]
            assert np.isfinite(val)
        with pytest.raises(UnsupportedQueryError):
            counterexample("NOPE")

    def test_l2_masses_below_ceiling(self):
        ceiling = 2.0 / math.log(1.5)
        for name in COUNTEREXAMPLE_NAMES:
            mass = counterexample_l2_mass(name)
            assert 0.3 < mass <= ceiling + 1e-3

    def test_interior_mass_split_is_consistent(self):
        # the ball-mass identity is exact for the interior anchor, so the
        # total must not depend on where the split radius sits
        m1 = counterexample_l2_mass("CAUCHY_P2", epsilon=0.05)
        m2 = counterexample_l2_mass("CAUCHY_P2", epsilon=0.02)
        assert abs(m1 - m2) < 1e-4

    def test_ladder_coordinates(self):
        eps = (1e-2, 1e-3, 1e-4)
        x, vals = divergence_ladder("CAUCHY_P2", eps)
        expected = [2.0 * math.log(math.log(3.0 / e)) for e in eps]
        assert np.allclose(x, expected, atol=1e-14)
        assert np.all(np.diff(vals) > 0)
        x, _ = divergence_ladder("J0_P2", eps)
        expected = [math.log(math.log(3.0 / e)) for e in eps]
        assert np.allclose(x, expected, atol=1e-14)

    def test_divergence_slopes(self):
        for name in COUNTEREXAMPLE_NAMES:
            slope = divergence_slope(name)
            assert 0.9 <= slope <= 1.1, f"{name}: slope {slope}"

    def test_bad_name_raises(self):
        with pytest.raises(UnsupportedQueryError):
            divergence_ladder("BERGMAN_P2")
        with pytest.raises(UnsupportedQueryError):
            counterexample_l2_mass("X")

    def test_fatou_integrand_positive_on_seeded_sample(self):
        rng = np.random.default_rng(42)
        n = 1000
        ts = rng.uniform(0.0, 2.0 * math.pi, n)
        rhos = rng.uniform(1e-6, 1.0 - 1e-6, n)
        rs = rng.uniform(1e-6, 1.0 - 1e-6, n)
        vals = [fatou_limit_integrand(t, rho, r) for t, rho, r in zip(ts, rhos, rs)]
        assert min(vals) > 0.0
        adj = [fatou_limit_integrand_adjoint(t, rho, r) for t, rho, r in zip(ts, rhos, rs)]
        assert min(adj) > 0.0

    def test_fatou_integrand_limit_is_the_divergent_density(self):
        t, rho = 1.0, 0.5
        m2 = 1.0 + rho * rho - 2.0 * rho * math.cos(t)
        density = 1.0 / (m2 * (math.log(3.0) - 0.5 * math.log(m2)))
        near = fatou_limit_integrand(t, rho, 1.0 - 1e-7)
        assert near == pytest.approx(density, rel=1e-5)

    def test_fatou_adjoint_ratio(self):
        assert fatou_limit_integrand_adjoint(0.7, 0.3, 0.8) == pytest.approx(
            (0.3**2 / 0.8) * fatou_limit_integrand(0.7, 0.3, 0.8), rel=1e-14
        )

    def test_fatou_integrand_domain(self):
        with pytest.raises(DomainError):
            fatou_limit_integrand(0.1, 0.0, 0.5)
        with pytest.raises(DomainError):
            fatou_limit_integrand(0.1, 0.5, 1.0)

    def test_radial_divergence_of_bounded_transforms(self):
        g_j0, _, _ = counterexample("J0_P2")
        vals = [apply(Operator.J0, g_j0, r).value.real for r in (0.9, 0.99)]
        assert vals[1] > vals[0] + 0.2
        g_adj, _, _ = counterexample("J0STAR_P2")
        vals = [apply(Operator.J0_STAR, g_adj, r).value.real for r in (0.9, 0.99)]
        assert vals[1] > vals[0] + 0.15

    def test_subharmonic_field_spot_check(self):
        h = subharmonic_comparison_field
        step = 1e-3
        for z in (0.2 + 0.1j, -0.3 + 0.4j):
            for w in (0.5 + 0.0j, 0.3 - 0.2j):
                lap = (
                    h(z + step, w) + h(z - step, w) + h(z + 1j * step, w) + h(z - 1j * step, w)
                    - 4.0 * h(z, w)
                ) / step**2
                assert lap > 0.0
        with pytest.raises(DomainError):
            subharmonic_comparison_field(0.1, 1.0)
