"""Operator evaluation against exact monomial images.

Every kernel here maps w^a conj(w)^b to a closed-form image, derived by
expanding the kernel as a geometric series and using the monomial
orthogonality relation  integral of w^a conj(w)^b dA = delta_{ab} / (a+1).
Those images are the oracles; the module is tested against them rather than
against itself.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from disknorms import counterexample, quadrature
from disknorms.errors import ConfigurationError, DomainError, PrecisionError
from disknorms.operators import (
    Operator,
    _mobius_weigh,
    adjoint_pairing_residual,
    apply,
    dbar_identity_residual,
)
from disknorms.quadrature import DiskRule, Mobius, _gauss01


def poly_field(coeffs):
    """Field w -> sum of c * w^a * conj(w)^b for {(a, b): c} coefficients."""

    def f(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        for (a, b), c in coeffs.items():
            out = out + c * w**a * np.conj(w) ** b
        return out

    return f


def cauchy_monomial(j, k, z):
    # geometric expansion of 1/(w - z) inside and outside |w| = |z|
    if j >= k + 1:
        return z ** (j - k - 1) * (1.0 - abs(z) ** (2 * k + 2)) / (k + 1)
    return -np.conj(z) ** (k + 1 - j) * abs(z) ** (2 * j) / (k + 1)


def bergman_monomial(a, b, z):
    if a >= b:
        return (a - b + 1) * z ** (a - b) / (a + 1)
    return 0.0 + 0.0j


def j0_monomial(a, b, z):
    if a >= b:
        return z ** (a - b + 1) / (a + 1)
    return 0.0 + 0.0j


def j0star_monomial(a, b, z):
    if a >= b + 1:
        return z ** (a - b - 1) / (a + 1)
    return 0.0 + 0.0j


Z_POINTS = [0.3 + 0.2j, -0.45 + 0.0j, 0.1 - 0.6j]


class TestValidation:
    def test_outside_disk_rejected(self):
        for op in Operator:
            with pytest.raises(DomainError):
                apply(op, lambda w: w, 1.0 + 0.0j)

    @pytest.mark.parametrize("z", [complex("nan"), complex(0.3, math.nan), complex(math.inf, 0.0)], ids=str)
    def test_non_finite_point_is_refused_before_any_field_call(self, z):
        # NaN passed |z| >= 1: apply ran the mode engine, then raised a bare
        # ValueError from the fallback rule
        for op in Operator:
            for rule in (None, DiskRule.for_point(0.0, singular=op in (Operator.CAUCHY, Operator.C_DELTA))):
                f = CountingField({(1, 0): 1.0})
                with pytest.raises(DomainError):
                    apply(op, f, z, rule)
                assert f.sizes == [], (op, rule)
            f = CountingField({(1, 0): 1.0})
            with pytest.raises(DomainError):
                dbar_identity_residual(f, z, 1e-3, op=op)
            assert f.sizes == []

    def test_bounded_ops_need_interior_margin(self):
        z = (1.0 - 1e-7) + 0.0j
        for op in (Operator.J0, Operator.J0_STAR, Operator.BERGMAN):
            with pytest.raises(DomainError):
                apply(op, lambda w: w, z)

    def test_singular_op_requires_strategy(self):
        with pytest.raises(ConfigurationError):
            apply(Operator.CAUCHY, lambda w: w, 0.2, DiskRule(64, 128))

    @pytest.mark.parametrize(
        "strategy",
        [Mobius, "mobius", 1, 0, SimpleNamespace(epsilon=0.05)],
        ids=["class", "str", "int", "falsy", "epsilon"],
    )
    def test_a_rule_with_a_foreign_strategy_is_refused(self, strategy):
        # only None or a Mobius() instance is a strategy: the class and a
        # string were accepted, and an int reached the sum and raised
        # AttributeError; the rule itself now refuses, before any field call.
        # A falsy 0 is not None, and an object with an exclusion radius is
        # not a strategy either
        f = CountingField({(1, 0): 1.0, (0, 2): 0.5})
        with pytest.raises(ConfigurationError, match="singularity strategy must be None or Mobius"):
            apply(Operator.CAUCHY, f, 0.2 + 0.1j, DiskRule(64, 128, strategy))
        assert f.sizes == []

    def test_bounded_op_rejects_singular_rule(self):
        with pytest.raises(ConfigurationError):
            apply(Operator.J0, lambda w: w, 0.2, DiskRule(64, 128, Mobius()))

    def test_explicit_rule_must_cover_boundary_layer(self):
        # |z| = 0.95 needs ceil(64 / 0.05) = 1280 angular nodes
        with pytest.raises(ConfigurationError):
            apply(Operator.J0, lambda w: w, 0.95, DiskRule(64, 512))

    def test_default_rule_scales_near_boundary(self):
        result = apply(Operator.J0, lambda w: np.ones_like(w), 0.95)
        assert abs(result.value - 0.95) < 1e-8


class TestMonomialImages:
    def test_cauchy_monomials(self):
        for z in Z_POINTS:
            rule = DiskRule(64, 128, Mobius())
            for j in range(4):
                for k in range(4):
                    got = apply(Operator.CAUCHY, poly_field({(j, k): 1.0}), z, rule)
                    want = cauchy_monomial(j, k, z)
                    assert abs(got.value - want) < 1e-8, (j, k, z)

    def test_bounded_monomials(self):
        cases = [
            (Operator.BERGMAN, bergman_monomial),
            (Operator.J0, j0_monomial),
            (Operator.J0_STAR, j0star_monomial),
        ]
        rule = DiskRule(64, 128)
        for op, oracle in cases:
            for z in Z_POINTS:
                for a in range(5):
                    for b in range(5):
                        got = apply(op, poly_field({(a, b): 1.0}), z, rule)
                        assert abs(got.value - oracle(a, b, z)) < 1e-9, (op, a, b, z)

    def test_unit_input_images(self):
        z = 0.35 - 0.4j
        assert abs(apply(Operator.J0, lambda w: np.ones_like(w), z).value - z) < 1e-10
        assert abs(apply(Operator.CAUCHY, lambda w: np.ones_like(w), z).value + np.conj(z)) < 1e-10
        cd = apply(Operator.C_DELTA, lambda w: np.ones_like(w), z)
        assert abs(cd.value - np.conj(z)) < 1e-10

    def test_j0star_of_w_is_half_everywhere(self):
        for z in Z_POINTS:
            got = apply(Operator.J0_STAR, lambda w: w, z)
            assert abs(got.value - 0.5) < 1e-10

    def test_bergman_reproduces_holomorphic_monomials(self):
        z = 0.35 - 0.4j
        rule = DiskRule(64, 128)
        for k in range(6):
            got = apply(Operator.BERGMAN, poly_field({(k, 0): 1.0}), z, rule)
            assert abs(got.value - z**k) < 1e-10

    def test_cdelta_of_w(self):
        z = 0.3 + 0.2j
        got = apply(Operator.C_DELTA, lambda w: w, z)
        assert abs(got.value - (abs(z) ** 2 - 0.5)) < 1e-10


def test_j0star_kernel_series_consistency():
    # anchored on integral of |w|^{2k+2} dA = 1/(k+2)
    z = 0.4 + 0.3j
    rule = DiskRule(64, 128)
    for k in range(9):
        holo = apply(Operator.J0_STAR, poly_field({(k + 1, 0): 1.0}), z, rule)
        assert abs(holo.value - z**k / (k + 2)) < 1e-8, k
        anti = apply(Operator.J0_STAR, poly_field({(0, k): 1.0}), z, rule)
        assert abs(anti.value) < 1e-9, k


def test_cauchy_extremal_value_at_center():
    # unit L^4 density concentrated at the origin; the operator value there
    # is 3^(3/4).  The kernel route integrates with exponent 1 so the
    # remaining |w|^(-1/3) factor converges only algebraically; the check
    # is against the reported error estimate plus a generous absolute cap.
    f = lambda w: 3.0 ** (-0.25) * w * np.abs(w) ** (-4.0 / 3.0)
    got = apply(Operator.CAUCHY, f, 0.0)
    want = 3.0**0.75
    err = abs(abs(got.value) - want)
    assert err < 5e-3
    assert err <= 3.0 * got.abs_error_estimate + 1e-10


def test_cdelta_decomposition_random_fields():
    rng = np.random.default_rng(42)
    for trial in range(20):
        coeffs = {
            (a, b): complex(rng.normal(), rng.normal())
            for a in range(3)
            for b in range(3)
            if rng.random() < 0.6
        }
        coeffs[(0, 0)] = coeffs.get((0, 0), 1.0 + 0.0j)
        f = poly_field(coeffs)
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) > 0.75:
            z *= 0.75 / abs(z)
        combined = apply(Operator.C_DELTA, f, z, DiskRule(48, 96, Mobius()))
        adjoint = apply(Operator.J0_STAR, f, z, DiskRule(48, 96))
        cauchy = apply(Operator.CAUCHY, f, z, DiskRule(48, 96, Mobius()))
        diff = abs(combined.value - (adjoint.value - cauchy.value))
        budget = (
            combined.abs_error_estimate
            + adjoint.abs_error_estimate
            + cauchy.abs_error_estimate
            + 1e-9
        )
        assert diff <= budget, (trial, diff, budget)


def test_linearity():
    rng = np.random.default_rng(7)
    f = poly_field({(1, 0): 1.0, (2, 1): 0.5 - 0.25j})
    g = poly_field({(0, 1): -0.75j, (3, 0): 1.25})
    alpha, beta = 0.6 - 0.2j, -1.1 + 0.4j
    fg = lambda w: alpha * f(w) + beta * g(w)
    for op in Operator:
        for z in (0.25 + 0.3j, -0.5 + 0.1j):
            rule = DiskRule(48, 96, Mobius()) if op in (Operator.CAUCHY, Operator.C_DELTA) else DiskRule(48, 96)
            lhs = apply(op, fg, z, rule).value
            rhs = alpha * apply(op, f, z, rule).value + beta * apply(op, g, z, rule).value
            assert abs(lhs - rhs) < 1e-9, (op, z)


class TestDbarIdentity:
    def test_combined_transform_inverts_dbar(self):
        res = dbar_identity_residual(lambda w: np.ones_like(w), 0.2 + 0.1j, 1e-3)
        assert res <= 1e-3

    def test_cauchy_sign(self):
        res = dbar_identity_residual(lambda w: w, 0.0 + 0.0j, 1e-3, op=Operator.CAUCHY)
        assert res <= 1e-3

    def test_projection_output_is_holomorphic(self):
        f = poly_field({(2, 0): 1.0, (0, 1): 1.0})
        res = dbar_identity_residual(f, 0.3 - 0.2j, 1e-3, op=Operator.BERGMAN)
        assert res <= 1e-3

    @pytest.mark.parametrize("op", [Operator.C_DELTA, Operator.CAUCHY])
    def test_explicit_mobius_rule_matches_default(self, op):
        # one Mobius rule runs at each shifted point; the default runs the
        # mode engine instead
        f = poly_field({(1, 0): 1.0, (0, 2): 0.5})
        z = 0.2 + 0.1j
        explicit = dbar_identity_residual(f, z, 1e-3, DiskRule(256, 512, Mobius()), op=op)
        assert abs(explicit - dbar_identity_residual(f, z, 1e-3, op=op)) <= 1e-9

    def test_explicit_rule_is_used_as_given(self):
        # a rule without a strategy is not turned into a Mobius rule, and
        # one with too few angles for the shifted points is not widened
        f = CountingField({(1, 0): 1.0})
        with pytest.raises(ConfigurationError):
            dbar_identity_residual(f, 0.2 + 0.1j, 1e-3, DiskRule(64, 128), op=Operator.CAUCHY)
        with pytest.raises(ConfigurationError):
            dbar_identity_residual(f, 0.95, 1e-3, DiskRule(64, 512, Mobius()))
        assert f.sizes == []

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, h):
        f = CountingField({(1, 0): 1.0})
        with pytest.raises(DomainError, match="0 < h < inf"):
            dbar_identity_residual(f, 0.1, h)
        assert f.sizes == []

    @pytest.mark.parametrize(
        "z, h, op",
        [(0.1j, 0.95, Operator.C_DELTA), (0.1, 1e300, Operator.CAUCHY), (0.5, 0.4999999, Operator.J0)],
        ids=["past-the-rim", "huge-step", "past-the-margin"],
    )
    def test_step_past_the_domain_is_refused_before_any_node(self, z, h, op):
        # a stencil point z +- h, z +- ih out of the open disk, or past the
        # bounded operators' margin, is refused in the caller's terms, h and z
        f = CountingField({(1, 0): 1.0})
        with pytest.raises(DomainError) as exc:
            dbar_identity_residual(f, z, h, op=op)
        assert str(exc.value).startswith(f"step h = {h:.6g} at z = {complex(z):.6g} ")
        assert f.sizes == []

    def test_tiny_step_raises_precision_error(self):
        with pytest.raises(PrecisionError):
            dbar_identity_residual(
                lambda w: np.ones_like(w),
                0.2 + 0.1j,
                1e-13,
                rule=DiskRule(16, 32, Mobius()),
            )

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            dbar_identity_residual(lambda w: w, 0.1, 0.0)


class TestAdjointPairing:
    def test_matched_monomials(self):
        assert adjoint_pairing_residual(lambda w: w, lambda w: w) <= 1e-12

    def test_mixed_polynomials(self):
        f = poly_field({(2, 1): 1.0})
        g = poly_field({(1, 0): 1.0, (0, 1): 0.5})
        assert adjoint_pairing_residual(f, g) <= 1e-12

    def test_constants(self):
        one = lambda w: np.ones_like(np.asarray(w, dtype=complex))
        assert adjoint_pairing_residual(one, one) <= 1e-12

    def test_seeded_polynomial_pairs(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            def draw():
                return {
                    (a, b): complex(rng.normal(), rng.normal())
                    for a in range(5)
                    for b in range(5)
                    if a + b <= 4 and rng.random() < 0.5
                } or {(1, 0): 1.0}

            f = poly_field(draw())
            g = poly_field(draw())
            res = adjoint_pairing_residual(f, g)
            assert res <= 1e-12, (trial, res)

    def test_rejects_singular_rule(self):
        with pytest.raises(ConfigurationError):
            adjoint_pairing_residual(lambda w: w, lambda w: w, DiskRule(32, 64, Mobius()))

    @pytest.mark.parametrize("nr, na", [(8, 16), (16, 48), (32, 64), (13, 37), (48, 96), (64, 32)])
    def test_pairs_below_the_resolved_degree_are_exact(self, nr, na):
        # a pair of total degree D <= min(na/2, nr) - 1 has no moment the
        # na-angle rings do not resolve, and both rules integrate it exactly;
        # re-summing the aliased discrete kernel left residuals up to 0.09 here
        rng = np.random.default_rng(nr * 1000 + na)
        top = min(na // 2, nr) - 1
        for degree in (top // 2, top, top):
            f, g = (
                poly_field(
                    {(a, b): complex(*rng.normal(size=2)) for a in range(degree + 1) for b in range(degree + 1 - a)}
                )
                for _ in range(2)
            )
            res = adjoint_pairing_residual(f, g, DiskRule(nr, na))
            assert res <= 1e-13, (degree, res)

    def test_fine_rule(self):
        # 128 x 256 inner and 133 x 272 outer nodes, 68,944 in all, go to each
        # field in consecutive calls of at most 8,192, every node once
        rng = np.random.default_rng(128)
        seen = ([], [])

        def recorded(calls):
            field = poly_field({(a, b): complex(*rng.normal(size=2)) for a in range(5) for b in range(5 - a)})

            def call(w):
                calls.append(np.array(w, dtype=complex))
                return field(w)

            return call

        f, g = (recorded(calls) for calls in seen)
        assert adjoint_pairing_residual(f, g, DiskRule(128, 256)) <= 1e-12
        for calls in seen:
            assert max(v.size for v in calls) <= 8192
            nodes = np.concatenate(calls)
            assert nodes.size == 128 * 256 + 133 * 272 == np.unique(nodes).size

    def test_memory_of_one_call_stays_small(self):
        # the images are one inverse FFT of the summed inner moments; the
        # dense kernel held 5.9 MB at the default 32 x 64 rule
        import tracemalloc

        f = poly_field({(2, 1): 1.0, (0, 0): 0.5j, (4, 0): 0.3})
        g = poly_field({(1, 0): 1.0, (0, 1): 0.5, (1, 3): -0.2j})
        tracemalloc.start()
        try:
            adjoint_pairing_residual(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_each_field_is_evaluated_once(self):
        # f and g are each sampled once, on the inner and outer nodes together
        f = CountingField({(2, 1): 1.0, (0, 0): 0.5j})
        g = CountingField({(1, 0): 1.0, (0, 1): 0.5})
        adjoint_pairing_residual(f, g, DiskRule(16, 48))
        both = 16 * 48 + 21 * 64
        assert f.sizes == [both] and g.sizes == [both]


class CountingField:
    """Polynomial field recording the number of nodes of every call."""

    def __init__(self, coeffs):
        self.f = poly_field(coeffs)
        self.sizes = []

    def __call__(self, w):
        self.sizes.append(np.size(w))
        return self.f(w)


NEAR_RADII = (0.99, 0.999, 0.9999)
# the bounded operators run up to their margin 1 - 1e-6
BOUNDED_RADII = NEAR_RADII + (1.0 - 1e-5, 1.0 - 1e-6)
# cauchy and cdelta answer up to the rim
SINGULAR_RADII = BOUNDED_RADII + (1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-12)
NEAR_ANGLES = (0.7, 2.9)
C_POLE = 0.999  # fields singular at w = 1/C_POLE, just outside the disk

def _near_cases(ops, radii=NEAR_RADII):
    return [(op, radius, angle) for op in ops for radius in radii for angle in NEAR_ANGLES]


def _near_closed_form(op, z):
    x = C_POLE * z
    if op is Operator.J0:
        return lambda w: 1.0 / (1.0 - C_POLE * w), -np.log(1.0 - x) / C_POLE
    if op is Operator.J0_STAR:
        return lambda w: w / (1.0 - C_POLE * w), (-np.log(1.0 - x) - x) / x**2
    return lambda w: 1.0 / (1.0 - C_POLE * w), 1.0 / (1.0 - x)


class TestNearBoundary:
    """Default rules at |z| -> 1 against closed-form images."""

    @pytest.mark.parametrize(
        "op, radius, angle", _near_cases([Operator.J0, Operator.J0_STAR, Operator.BERGMAN], BOUNDED_RADII)
    )
    def test_bounded_images_of_boundary_singular_fields(self, op, radius, angle):
        # j0 1/(1-cw) = -log(1-cz)/c, j0star w/(1-cw) = (-log(1-x)-x)/x^2
        # with x = cz, bergman 1/(1-cw) = 1/(1-cz)
        z = radius * complex(math.cos(angle), math.sin(angle))
        f, want = _near_closed_form(op, z)
        got = apply(op, f, z)
        assert abs(got.value - want) <= got.abs_error_estimate, (got, want)

    @pytest.mark.parametrize("op, radius, angle", _near_cases([Operator.CAUCHY, Operator.C_DELTA], SINGULAR_RADII))
    def test_singular_images_of_seeded_polynomials(self, op, radius, angle):
        coeffs, z, want = _seeded_image(op, radius, angle)
        got = apply(op, poly_field(coeffs), z)
        assert abs(got.value - want) <= got.abs_error_estimate, (got, want)

    @pytest.mark.parametrize(
        "op, radius, angle", _near_cases([Operator.J0, Operator.J0_STAR, Operator.BERGMAN], BOUNDED_RADII)
    )
    def test_bounded_images_of_seeded_polynomials(self, op, radius, angle):
        coeffs, z, want = _seeded_image(op, radius, angle)
        got = apply(op, poly_field(coeffs), z)
        assert abs(got.value - want) <= got.abs_error_estimate, (got, want)


def _seeded_image(op, radius, angle):
    """A seeded degree-4 polynomial, the point, and the image from the
    monomial oracles (cdelta = j0star - cauchy)."""
    rng = np.random.default_rng(int(radius * 1e4) + int(10 * angle))
    coeffs = {(a, b): complex(*rng.normal(size=2)) for a in range(5) for b in range(5 - a)}
    z = radius * complex(math.cos(angle), math.sin(angle))
    oracle = {
        Operator.CAUCHY: cauchy_monomial,
        Operator.BERGMAN: bergman_monomial,
        Operator.J0: j0_monomial,
        Operator.J0_STAR: j0star_monomial,
        Operator.C_DELTA: lambda a, b, z: j0star_monomial(a, b, z) - cauchy_monomial(a, b, z),
    }[op]
    return coeffs, z, sum(c * oracle(a, b, z) for (a, b), c in coeffs.items())


class TestMobiusReach:
    """An explicit Mobius rule answers only where its outermost ring reaches
    the kernel's layer, and refuses before any field evaluation beyond."""

    @pytest.mark.parametrize("op", [Operator.CAUCHY, Operator.C_DELTA])
    @pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-8])
    def test_explicit_rule_answers_or_refuses(self, op, gap):
        # the default route at these points is in TestNearBoundary
        coeffs, z, want = _seeded_image(op, 1.0 - gap, 0.7)
        f = CountingField(coeffs)
        start = time.perf_counter()
        try:
            got = apply(op, f, z, DiskRule.for_point(z, singular=True))
        except DomainError:
            assert f.sizes == [] and time.perf_counter() - start < 0.05
        else:
            assert abs(got.value - want) <= got.abs_error_estimate, (got, want)

    @pytest.mark.parametrize("op", [Operator.CAUCHY, Operator.C_DELTA])
    @pytest.mark.parametrize("angle", [0.7, 2.9])
    def test_explicit_rule_answers_within_its_estimate_inside_its_reach(self, op, angle):
        # 1 - |z| = 1e-4 is about 6.8 ring gaps, inside the default rule's
        # reach; it errs by about 1e-2 here, within its estimate
        coeffs, z, want = _seeded_image(op, 0.9999, angle)
        got = apply(op, poly_field(coeffs), z, DiskRule.for_point(z, singular=True))
        assert abs(got.value - want) <= got.abs_error_estimate, (got, want)

    def test_reach_follows_the_outermost_ring(self):
        # 64 radial nodes put the outer ring 2.4e-4 from r = 1, which reaches
        # 1 - |z| >= 1.3e-3; the default 256 (1.5e-5) reach 7.8e-5
        z = 0.999j
        f = CountingField({(1, 0): 1.0})
        with pytest.raises(DomainError):
            apply(Operator.CAUCHY, f, z, replace(DiskRule.for_point(z, singular=True), radial_nodes=64))
        assert f.sizes == []
        got = apply(Operator.CAUCHY, f, z, DiskRule.for_point(z, singular=True))
        assert abs(got.value - cauchy_monomial(1, 0, z)) <= got.abs_error_estimate


def test_fields_the_modes_do_not_resolve_take_the_quadrature_too():
    # 1/(1 - 0.999 w) needs far more than 2048 angles near the rim, and
    # w |w|^(-4/3) more than 33 rings at the center; the modes alone err by
    # 0.39 and 4.1e-3 here, the quadrature rules by 1.1e-13 and 2.7e-4
    z = 0.9999 * complex(math.cos(0.7), math.sin(0.7))
    f, want = _near_closed_form(Operator.BERGMAN, z)
    assert abs(apply(Operator.BERGMAN, f, z).value - want) <= 1e-9
    f = lambda w: 3.0 ** (-0.25) * w * np.abs(w) ** (-4.0 / 3.0)
    assert abs(apply(Operator.CAUCHY, f, 0.0).value - 3.0**0.75) <= 1e-3


# Images at real z of the paper's L^2 counterexample densities, singular at
# w = 1.  In polar coordinates w = 1 - rho e^{i phi} about the singularity,
# the angle phi was integrated in closed form for j0 (an arctangent) and by
# nested 25-digit mpmath quadrature for j0star, and rho over [0, 2] by
# tanh-sinh, split at multiples of 1 - z; the j0 values agree with the same
# sum after rho = 2e^{-u} to 20 digits.  Both images are real.
BOUNDARY_SINGULAR_IMAGES = {
    ("J0_P2", Operator.J0): {0.5: 0.5107669197899, 0.9: 1.2523871578941, 0.99: 1.8398089293386},
    ("J0STAR_P2", Operator.J0_STAR): {0.5: 0.5280839277394, 0.9: 0.8182177829618, 0.99: 1.2429610079625},
}


@pytest.mark.parametrize(
    "name, op, z", [(name, op, z) for (name, op), images in BOUNDARY_SINGULAR_IMAGES.items() for z in images]
)
def test_estimates_cover_boundary_singular_densities(name, op, z):
    # a radial error and an angular error of opposite signs must not cancel
    # in the estimate
    density, _, _ = counterexample(name)
    got = apply(op, density, z)
    assert abs(got.value - BOUNDARY_SINGULAR_IMAGES[name, op][z]) <= got.abs_error_estimate, got


class TestMobiusWeights:
    """Kernel x Jacobian x r on the Mobius rule's nodes against 40-digit mpmath.

    Four centers b of the given modulus get 50 nodes a = r e^{i theta} each,
    at the rule's radii for s = 1 and seeded angles.  Either form carries the
    conditioning |conj(b) a|/|D| of D = 1 - conj(b) a in its Jacobian, so
    the bound is 1e-13 relative plus 8 eps times that.
    """

    @staticmethod
    def relative_errors(op, b_abs, closed_form):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            rng = np.random.default_rng(int(b_abs * 1e4))
            errs = []
            for b in b_abs * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4)):
                b = complex(b)
                r = rng.choice(_gauss01(256)[0], 50)
                theta = rng.uniform(0.0, 2.0 * math.pi, 50)
                phase = np.exp(1j * theta)
                a = r * phase
                denom = 1.0 - b.conjugate() * a
                if closed_form:
                    got = _mobius_weigh(op, b)(np.ones(a.shape, dtype=complex), r, phase, denom)
                else:
                    # w - b by subtraction, as the general integrand route forms it
                    w = (b - a) / denom
                    kernel = 1.0 / (w - b) if op is Operator.CAUCHY else 1.0 / (b - w) + np.conj(w) / (1.0 - np.conj(w) * b)
                    got = kernel * (1.0 - abs(b) ** 2) ** 2 / np.abs(denom) ** 4 * r
                B = mp.mpc(b.real, b.imag)
                for gi, ri, ti, di in zip(got, r, theta, denom):
                    A = mp.mpf(ri) * mp.expj(mp.mpf(ti))
                    D = 1 - mp.conj(B) * A
                    W = (B - A) / D
                    K = 1 / (W - B) if op is Operator.CAUCHY else 1 / (B - W) + mp.conj(W) / (1 - mp.conj(W) * B)
                    want = K * (1 - abs(B) ** 2) ** 2 / abs(D) ** 4 * mp.mpf(ri)
                    cond = abs(b) * ri / abs(di)
                    errs.append(float(abs(gi - want) / abs(want)) / (1e-13 + 8 * 2.220446049250313e-16 * cond))
        return np.array(errs)

    @pytest.mark.parametrize("op", [Operator.CAUCHY, Operator.C_DELTA])
    @pytest.mark.parametrize("b_abs", [0.5, 0.995, 0.9999])
    def test_closed_form_weights(self, op, b_abs):
        assert self.relative_errors(op, b_abs, closed_form=True).max() <= 1.0

    @pytest.mark.parametrize("op", [Operator.CAUCHY, Operator.C_DELTA])
    def test_subtraction_form_misses_at_0995(self, op):
        assert self.relative_errors(op, 0.995, closed_form=False).max() > 1.0


class TestWork:
    """Field nodes per apply, counted by the field.

    The quadrature cases pass ``DiskRule.for_point`` explicitly, the rule
    the default route used before it evaluated by angular modes.
    """

    COEFFS = {(a, b): 1.0 + 0.5j for a in range(5) for b in range(5 - a)}

    @staticmethod
    def rule(op, z):
        return DiskRule.for_point(z, singular=op in (Operator.CAUCHY, Operator.C_DELTA))

    @pytest.mark.parametrize("op", list(Operator))
    def test_full_count_away_from_the_boundary(self, op):
        # 255 Kronrod rings x 512 angles, 16 rings per call; the Gauss
        # rings and the half-count angles are among them
        for z in (0.0, 0.5j, -0.9):
            f = CountingField(self.COEFFS)
            apply(op, f, z, self.rule(op, z))
            assert sum(f.sizes) == 130_560, (op, z)
            assert len(f.sizes) == 16 and max(f.sizes) <= 8192

    @pytest.mark.parametrize("op", [Operator.J0, Operator.CAUCHY])
    def test_inner_rings_get_their_own_count(self, op):
        # a uniform count would put 640002 angles on all 255 rings (1.6e8
        # nodes); j0 runs the tensor rule, cauchy the Mobius rule
        f = CountingField(self.COEFFS)
        apply(op, f, 0.9999j, self.rule(op, 0.9999j))
        assert sum(f.sizes) < 4e6
        assert max(f.sizes) <= 8192

    @pytest.mark.parametrize("op", [Operator.J0, Operator.CAUCHY])
    def test_node_tables_cost_few_exponentials(self, op, monkeypatch):
        # every complex exponential spent while a node table is built; one
        # per table entry would be about 94% of the field nodes here
        spent = []
        build, exp = quadrature._angles, np.exp

        def counting_exp(x, *args, **kwargs):
            out = exp(x, *args, **kwargs)
            spent.append(np.size(out))
            return out

        def counted_build(*args):
            np.exp = counting_exp
            try:
                return build(*args)
            finally:
                np.exp = exp

        monkeypatch.setattr(quadrature, "_angles", counted_build)
        f = CountingField(self.COEFFS)
        apply(op, f, 0.9999j, self.rule(op, 0.9999j))
        assert sum(f.sizes) == 2_173_320
        assert 0 < sum(spent) < 0.05 * sum(f.sizes)

    def test_memory_stays_bounded_at_the_margin(self):
        # |z| = 1 - 1e-6: a uniform count would be 64,000,000 angles per ring
        f = CountingField(self.COEFFS)
        apply(Operator.J0, f, 1.0 - 1e-6, self.rule(Operator.J0, 1.0 - 1e-6))
        assert max(f.sizes) <= 8192
        assert sum(f.sizes) < 6e6

    @pytest.mark.parametrize("op", list(Operator))
    def test_default_work_does_not_depend_on_the_radius(self, op):
        # polynomials of degree 4 and 7 settle at 32 angles on 33 rings, or
        # on 66 for cauchy and cdelta (split at |z| > 0), at any distance
        # from the rim: one call takes the 32 angles and the 16 turned ones
        # that check them.  Degree 7 is the most one call resolves for every
        # operator: K_half on 16 angles sums the modes |n| <= 7, and a
        # degree-8 field takes the next level, its odd 32 angles and their check
        singular = op in (Operator.CAUCHY, Operator.C_DELTA)
        radii = (0.0, 0.5) + (SINGULAR_RADII if singular else BOUNDED_RADII)
        rng = np.random.default_rng(6)
        degree7, degree8 = (
            {(a, b): complex(*rng.normal(size=2)) for a in range(d + 1) for b in range(d + 1 - a)} for d in (7, 8)
        )
        for radius in radii:
            z = radius * complex(math.cos(0.7), math.sin(0.7))
            rings = 33 * (1 + (singular and radius > 0))
            for coeffs in (self.COEFFS, degree7):
                f = CountingField(coeffs)
                apply(op, f, z)
                assert f.sizes == [48 * rings], (op, radius)
            f = CountingField(degree8)
            apply(op, f, z)
            assert f.sizes == [48 * rings, 32 * rings, 32 * rings], (op, radius)

    @pytest.mark.parametrize("op", [Operator.J0_STAR, Operator.C_DELTA])
    def test_doublings_evaluate_no_node_twice(self, op):
        # exp(2w + conj(w)) has modes above the rounding level past |n| = 16,
        # so it takes 128 angles: 32 and the 16 turned ones that would have
        # checked them at first, then only the new odd angles of 64 and 128,
        # and 64 turned ones that check 128
        seen = []

        def f(w):
            seen.append(np.array(w, dtype=complex).ravel())
            return np.exp(2.0 * w + np.conj(w))

        apply(op, f, 0.6 + 0.3j)
        rings = 33 * (1 + (op is Operator.C_DELTA))
        assert [v.size for v in seen] == [rings * n for n in (48, 32, 64, 64)]
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size

    def test_default_calls_stay_bounded_at_the_cap(self):
        # sign(Im w) never settles (its modes fall like 1/n), so the modes
        # double to 2048 angles, the odd 1024 of each ring taken 8 rings a
        # call, and then the quadrature runs too; the first call's 16 check
        # angles a ring are the only ones spent on no level
        sizes = []

        def f(w):
            sizes.append(np.size(w))
            return np.sign(np.imag(w)) + 0.0j

        apply(Operator.BERGMAN, f, 0.0)
        assert max(sizes) <= 8192
        assert sum(sizes) == 33 * (2048 + 16) + 130_560


# monomials w^d conj(w)^e whose mode d - e lies past N/2 of a level and its
# half, so that both pass the level's tests: w^29 lands on mode -3 at both
# 32 and 16 angles, the pair the first field call samples, and w^32 on mode
# 0; w^13 and w^16 do the same at 16 and 8 angles
ALIASED = [(13, 0), (16, 0), (19, 0), (40, 0), (0, 13), (0, 16), (17, 1), (3, 19)] + [
    (29, 0), (32, 0), (0, 29), (0, 32), (33, 1), (3, 35)
]


@pytest.mark.parametrize("op", list(Operator))
@pytest.mark.parametrize("a, b", ALIASED)
def test_modes_aliased_on_nested_grids_are_caught(op, a, b):
    oracle = {
        Operator.CAUCHY: cauchy_monomial,
        Operator.BERGMAN: bergman_monomial,
        Operator.J0: j0_monomial,
        Operator.J0_STAR: j0star_monomial,
        Operator.C_DELTA: lambda a, b, z: j0star_monomial(a, b, z) - cauchy_monomial(a, b, z),
    }[op]
    for z in (0.0, 0.5, 0.9 * complex(math.cos(0.7), math.sin(0.7)), 0.99j):
        got = apply(op, poly_field({(a, b): 1.0}), z)
        want = oracle(a, b, z)
        assert abs(got.value - want) <= got.abs_error_estimate, (z, got, want)


def test_bergman_of_w13_is_its_monomial():
    got = apply(Operator.BERGMAN, poly_field({(13, 0): 1.0}), 0.9)
    assert abs(got.value - 0.9**13) <= 1e-14
