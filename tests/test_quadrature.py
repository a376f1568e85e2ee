"""Tests for the polar disk quadrature and its singular strategies."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from disknorms import profiles as pf
from disknorms.errors import ConfigurationError, DomainError, EvaluationError
from disknorms.quadrature import (
    DEFAULT_ANGULAR,
    DiskRule,
    Mobius,
    _angles,
    _annulus_stages,
    _gauss01,
    _kronrod01,
    _laurie_b,
    _required_angular_nodes,
    _ring_counts,
    integrate_disk,
    integrate_disk_singular,
    truncated_singular_integral,
)


def test_rule_validation():
    with pytest.raises(ConfigurationError):
        DiskRule(radial_nodes=4)
    with pytest.raises(ConfigurationError):
        DiskRule(angular_nodes=8)
    # the Kronrod rule's Jacobi matrix is dense, about radial_nodes^2 entries
    with pytest.raises(ConfigurationError, match="radial_nodes must be <= 2048, got 2049"):
        DiskRule(radial_nodes=2049)
    DiskRule(8, 16, Mobius())
    # a count that is not an integer is refused before any range check: the
    # radial rule needs an integer, a fractional angular count rounds to an
    # odd one that breaks the half-rule estimate, and NaN fails every range
    for field in ("radial_nodes", "angular_nodes"):
        for bad in (8.5, 64.0, 16.5, math.nan, math.inf, "64"):
            with pytest.raises(ConfigurationError, match=f"{field} must be an integer, got {bad!r}"):
                DiskRule(**{field: bad})
    assert DiskRule(np.int64(64), np.int32(64)) == DiskRule(64, 64)


@pytest.mark.parametrize(
    "field, message",
    [
        ("radial_nodes", "radial_nodes must be >= 8, got 0"),
        ("angular_nodes", "angular_nodes must be >= 16, got 0"),
    ],
)
def test_zero_node_count_is_refused(field, message):
    # 0 is a given count, not a missing one
    with pytest.raises(ConfigurationError, match=message):
        DiskRule(**{field: 0})


def test_large_radial_count_runs():
    # 1024 radial nodes put 511 Gauss rings under the Kronrod rule, past
    # where its construction once failed with a LinAlgError
    got = integrate_disk(lambda w: (w * np.conj(w)) ** 4, DiskRule(1024, 16))
    assert abs(got.value - 0.2) <= 1e-14
    got = integrate_disk_singular(np.ones_like, 0.3, 1.5, DiskRule(1024, 64, Mobius()))
    assert abs(got.value - pf.profile_K(3.0, 0.3)) <= 1e-6


def test_for_point_scales_angular_nodes():
    assert DiskRule.for_point(0.5).angular_nodes == 512
    near = DiskRule.for_point(0.99)
    assert near.angular_nodes >= 6400
    assert _required_angular_nodes(0.999) == 64000
    assert _required_angular_nodes(0.1) == 16
    rule = DiskRule.for_point(0.3 + 0.2j, singular=True)
    assert isinstance(rule.singularity, Mobius)


def test_integrate_disk_trivials():
    rule = DiskRule(32, 64)
    assert abs(integrate_disk(lambda w: np.ones_like(w), rule).value - 1.0) <= 1e-13
    assert abs(integrate_disk(lambda w: w, rule).value) <= 1e-13
    got = integrate_disk(lambda w: np.abs(w) ** 2, rule)
    assert abs(got.value - 0.5) <= 1e-13


def test_monomial_orthogonality_table():
    # int w^a conj(w)^b dA = 1/(a+1) if a = b else 0, exact within the
    # rule's polynomial range
    rule = DiskRule(16, 32)
    for a in range(11):
        for b in range(11):
            got = integrate_disk(lambda w: w**a * np.conj(w) ** b, rule)
            expected = 1.0 / (a + 1.0) if a == b else 0.0
            assert abs(got.value - expected) <= 1e-12, (a, b)


def test_exactness_boundary():
    # 7 Kronrod rings (m = 3) are exact to degree 3m+1 = 10 in r, and
    # (w conj(w))^4 dA is r^9 dr: still exact
    rule = DiskRule(8, 16)
    got = integrate_disk(lambda w: (w * np.conj(w)) ** 4, rule)
    assert abs(got.value - 0.2) <= 1e-15


def test_error_estimates_honest_on_polynomials():
    rng = np.random.default_rng(42)
    rule = DiskRule(16, 32)
    for _ in range(10):
        coeffs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

        def f(w, c=coeffs):
            acc = np.zeros_like(w)
            for a in range(4):
                for b in range(4):
                    acc = acc + c[a, b] * w**a * np.conj(w) ** b
            return acc

        exact = sum(coeffs[k, k] / (k + 1.0) for k in range(4))
        got = integrate_disk(f, rule)
        assert abs(got.value - exact) <= 3.0 * got.abs_error_estimate
    # and on a monomial past the exactness boundary
    rule = DiskRule(8, 16)
    got = integrate_disk(lambda w: (w * np.conj(w)) ** 8, rule)
    assert abs(got.value - 1.0 / 9.0) <= 3.0 * got.abs_error_estimate


def test_evaluation_error_names_node():
    rule = DiskRule(8, 16)
    with pytest.raises(EvaluationError, match="node"):
        integrate_disk(lambda w: np.where(np.real(w) < 0, np.nan, 1.0), rule)

    def bad(w):
        raise ValueError("boom")

    with pytest.raises(EvaluationError, match="boom"):
        integrate_disk(bad, rule)


def test_integrate_disk_rejects_singular_rule():
    with pytest.raises(ConfigurationError):
        integrate_disk(lambda w: w, DiskRule(8, 16, Mobius()))


def test_singular_requires_strategy_and_valid_exponent():
    f = np.ones_like
    with pytest.raises(ConfigurationError):
        integrate_disk_singular(f, 0.0, 1.0, DiskRule(8, 16))
    rule = DiskRule(8, 16, Mobius())
    with pytest.raises(DomainError):
        integrate_disk_singular(f, 0.0, 2.0, rule)
    with pytest.raises(DomainError):
        integrate_disk_singular(f, 0.0, -0.5, rule)


def test_singular_radial_powers_at_origin():
    # the rule supplies |w|^-s; g = 1
    rule = DiskRule(32, 32, Mobius())
    got = integrate_disk_singular(np.ones_like, 0.0, 1.0, rule)
    assert abs(got.value - 2.0) <= 1e-12
    got = integrate_disk_singular(np.ones_like, 0.0, 4.0 / 3.0, rule)
    assert abs(got.value - 3.0) <= 1e-10
    assert abs(got.value - pf.profile_K(4.0, 0.0)) <= 1e-10


def test_singular_off_center_matches_profile():
    # q = 1 Cauchy-kernel energy at rho = 0.3, profile route as oracle
    expected = pf.profile_K(math.inf, 0.3)
    got = integrate_disk_singular(np.ones_like, 0.3, 1.0, DiskRule(64, 64, Mobius()))
    assert abs(got.value - expected) <= 1e-5
    # and the q = 3/2 case against the closed form
    got = integrate_disk_singular(np.ones_like, 0.3, 1.5, DiskRule(64, 64, Mobius()))
    assert abs(got.value - pf.profile_K(3.0, 0.3)) <= 1e-6


def excluded_ball_route(g, b, s, eps, rule):
    """Integral of g(w) |w - b|^-s for a g harmonic near b: the disk outside
    the ball of radius eps around b on the truncation grid, the ball by the
    mean-value property, 2 g(b) eps^(2-s)/(2-s); the estimate is the grid's."""
    outside = _annulus_stages(g, b, s, (eps,), rule)[0]
    ball = 2.0 * complex(g(b)) * eps ** (2.0 - s) / (2.0 - s)
    return outside.value + ball, outside.abs_error_estimate


def test_mobius_and_excluded_ball_agree_seeded():
    rng = np.random.default_rng(42)
    for _ in range(10):
        radius = float(rng.uniform(0.0, 0.6))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        b = radius * complex(math.cos(angle), math.sin(angle))
        s = float(rng.uniform(0.3, 1.8))
        c1 = complex(rng.normal(), rng.normal()) * 0.3
        c2 = complex(rng.normal(), rng.normal()) * 0.2

        def g(w, c1=c1, c2=c2):
            return 1.0 + c1 * w + c2 * w * w

        eps = min(0.05, (1.0 - abs(b)) / 3.0)
        via_m = integrate_disk_singular(g, b, s, DiskRule(96, 128, Mobius()))
        value, estimate = excluded_ball_route(g, b, s, eps, DiskRule(96, 128))
        tol = max(via_m.abs_error_estimate, estimate) + 1e-10
        assert abs(via_m.value - value) <= tol


def test_truncated_bounded_integrand_converges():
    eps = [0.2, 0.1, 0.05, 0.025]
    vals = truncated_singular_integral(
        lambda w: np.ones_like(w), 0.0, eps, DiskRule(32, 32)
    )
    # T(eps) = 1 - eps^2 exactly
    for e, v in zip(eps, vals):
        assert abs(v - (1.0 - e * e)) <= 1e-10
    diffs = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    assert all(d > 0 for d in diffs)
    assert diffs[-1] < diffs[0]


def test_truncated_log_divergence_slope():
    # |f| = 1/(|w|^2 log(3/|w|)) has truncated mass
    # 2(log log(3/eps) - log log 3): slope 1 against x = 2 log log(3/eps)
    f = lambda w: 1.0 / (np.abs(w) ** 2 * np.log(3.0 / np.abs(w)))
    eps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    vals = truncated_singular_integral(f, 0.0, eps, DiskRule(64, 32))
    assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))
    x = np.array([2.0 * math.log(math.log(3.0 / e)) for e in eps])
    y = np.array(vals)
    slope = float(np.polyfit(x, y, 1)[0])
    assert 0.9 <= slope <= 1.1
    # exact law check while at it
    for e, v in zip(eps, vals):
        expected = 2.0 * (math.log(math.log(3.0 / e)) - math.log(math.log(3.0)))
        assert abs(v - expected) <= 1e-8


def test_truncated_validation():
    f = lambda w: np.ones_like(w)
    with pytest.raises(DomainError):
        truncated_singular_integral(f, 0.0, [])
    with pytest.raises(DomainError):
        truncated_singular_integral(f, 0.0, [0.1, 0.2])
    with pytest.raises(DomainError):
        truncated_singular_integral(f, 0.0, [0.6, 0.1])
    with pytest.raises(DomainError):
        truncated_singular_integral(f, 0.0, [0.1, 0.1])
    with pytest.raises(DomainError):
        truncated_singular_integral(f, 2.0, [0.1])


def test_truncation_refuses_a_rule_with_a_strategy():
    # the ladder reads only the rule's node counts, so a strategy would go
    # unheeded: the rule would return the plain rule's T(0.1) = 0.99
    f = CountingField(np.ones_like)
    with pytest.raises(ConfigurationError, match="no singularity strategy"):
        truncated_singular_integral(f, 0.0, [0.1], DiskRule(64, 32, Mobius()))
    assert f.sizes == []


def test_truncated_boundary_center():
    # center on the boundary: the annulus geometry degenerates to a lens
    f = lambda w: np.ones_like(w)
    vals = truncated_singular_integral(f, 1.0, [0.2, 0.1], DiskRule(64, 256))
    # excluded lens area vanishes like eps^2, so values approach 1 from below
    assert 0.9 < vals[0] < vals[1] < 1.0


@pytest.mark.parametrize("na", [256, 20000])
def test_truncation_at_any_quarter_turn_of_the_circle_agrees(na):
    # the nonempty angles are one run at b = 1, wrap around angle 0 at
    # b = -1, and leave whole 8192-angle chunks empty at 20000 angles;
    # no node outside the disk is ever evaluated
    reach = []

    def f(w):
        reach.append(np.abs(w).max())
        return np.abs(w) ** 2

    ref = truncated_singular_integral(f, 1.0, [0.2, 0.05], DiskRule(16, na))
    for b in (-1.0, 1j, -1j):
        got = truncated_singular_integral(f, b, [0.2, 0.05], DiskRule(16, na))
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0), b
    assert max(reach) <= 1.0 + 1e-12


# Frozen from the route that summed every epsilon on the full radial rule:
# the truncated ladders of the counterexamples at 256 x 512, and the three
# stages T(0.05), T(0.025), T(0.0125) of one singular integrand at 192 x 96
# (value, mass)
LADDERS = {
    "CAUCHY_P2": [3.247937411396056, 3.926152659863081, 4.431703733909276, 4.83490249718079, 5.170295529962137],
    "J0_P2": [1.8860980997225136, 2.223881084798864, 2.4756692173804637, 2.6764811014317105, 2.8435225533052075],
    "J0STAR_P2": [1.2636859893068746, 1.5996858258799689, 1.8513424981278908, 2.0521439871035003, 2.2191845793810923],
}
STAGES = [
    (1.0778093460065918 - 2.7060373599482714j, 2.9952282348035952),
    (1.1412563017609436 - 2.8377745505221963j, 3.1414560609523687),
    (1.1776970086132403 - 2.9134376975742984j, 3.22543839615319),
]


@pytest.mark.parametrize("name", list(LADDERS))
def test_truncation_ladders_match_the_full_rule_on_every_epsilon(name):
    from disknorms.norms import divergence_ladder

    _, got = divergence_ladder(name)
    assert np.allclose(got, LADDERS[name], rtol=1e-13, atol=0.0)


def test_singular_stages_match_the_full_rule_on_every_epsilon():
    def g(w):
        return (0.3 - 1.1j) + (0.7 + 0.2j) * np.asarray(w) - 0.4j * np.conj(w)

    got = _annulus_stages(g, 0.25 - 0.3j, 1.2, (0.05, 0.025, 0.0125), DiskRule(192, 96))
    for stage, (ref_value, _) in zip(got, STAGES):
        assert abs(stage.value - ref_value) <= 1e-13 * abs(ref_value)


def test_excluded_ball_error_within_its_estimate_against_a_fine_mobius_rule():
    # the verify row's integrands, against 512 radial nodes on the exact route
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = complex(*(0.6 * rng.uniform(-1, 1, 2) / math.sqrt(2.0)))
        s = float(rng.uniform(0.5, 1.5))
        c0, c1, c2 = rng.normal(size=3) + 1j * rng.normal(size=3)

        def g(w, c0=c0, c1=c1, c2=c2):
            return c0 + c1 * np.asarray(w) + c2 * np.conj(w)

        value, estimate = excluded_ball_route(g, b, s, 0.05, DiskRule(192, 96))
        fine = integrate_disk_singular(g, b, s, DiskRule(512, 96, Mobius())).value
        assert abs(value - fine) <= estimate


def test_truncation_memory_does_not_grow_with_the_angular_count():
    # angles are taken in chunks of at most 8192: 250,000 angles at once
    # took 22 MB
    import tracemalloc

    tracemalloc.start()
    try:
        got = truncated_singular_integral(np.ones_like, 0.3, [0.05], DiskRule(16, 250_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert abs(got[0] - (1.0 - 0.05**2)) <= 1e-12


# Rules too coarse for the field, on the excluded-ball route: the fields are
# analytic, so the ball's closed form is exact, and the truncation grid's
# estimate must cover the whole error
UNDER_RESOLVED_FIELDS = {
    "exp(3w)": lambda w: np.exp(3.0 * np.asarray(w)),
    "w^9": lambda w: np.asarray(w) ** 9,
    "|w|^12": lambda w: np.abs(w) ** 12,
    "cos(6 Re w)": lambda w: np.cos(6.0 * np.real(w)),
}
UNDER_RESOLVED = [
    ("exp(3w)", 8, 16, 0.3, 1.0), ("exp(3w)", 16, 16, 0.3, 1.0), ("exp(3w)", 64, 16, 0.3, 1.0),
    ("exp(3w)", 8, 16, 0.5 + 0.2j, 0.6), ("exp(3w)", 16, 16, 0.5 + 0.2j, 0.6),
    ("exp(3w)", 64, 16, 0.5 + 0.2j, 0.6), ("exp(3w)", 8, 16, 0.0, 1.5),
    ("exp(3w)", 16, 16, 0.0, 1.5), ("exp(3w)", 64, 16, 0.0, 1.5),
    ("w^9", 8, 16, 0.3, 1.0), ("w^9", 16, 16, 0.3, 1.0), ("w^9", 64, 16, 0.3, 1.0),
    ("w^9", 8, 16, 0.5 + 0.2j, 0.6), ("w^9", 16, 16, 0.5 + 0.2j, 0.6),
    ("w^9", 16, 64, 0.5 + 0.2j, 0.6), ("w^9", 32, 32, 0.5 + 0.2j, 0.6),
    ("w^9", 64, 16, 0.5 + 0.2j, 0.6),
]


@lru_cache(maxsize=None)
def _fine_mobius(name, b, s):
    rule = replace(DiskRule.for_point(b, True), radial_nodes=512, angular_nodes=1024)
    return integrate_disk_singular(UNDER_RESOLVED_FIELDS[name], b, s, rule).value


@pytest.mark.parametrize("name, nr, na, b, s", UNDER_RESOLVED)
def test_excluded_ball_estimate_covers_under_resolved_rules(name, nr, na, b, s):
    value, estimate = excluded_ball_route(UNDER_RESOLVED_FIELDS[name], b, s, 0.05, DiskRule(nr, na))
    assert abs(value - _fine_mobius(name, b, s)) <= estimate


# Fields that are not harmonic, so the ball has no closed form and only the
# Mobius rule takes them: its own estimate must cover an under-resolved
# rule's error (measured worst err/estimate 0.34, cos(6 Re w) off center)
UNDER_RESOLVED_NON_HARMONIC = [
    ("|w|^12", 8, 16, 0.3, 1.0), ("|w|^12", 8, 16, 0.5 + 0.2j, 0.6), ("|w|^12", 8, 16, 0.0, 1.5),
    ("|w|^12", 16, 16, 0.0, 1.5), ("|w|^12", 16, 64, 0.0, 1.5),
    ("cos(6 Re w)", 8, 16, 0.3, 1.0), ("cos(6 Re w)", 8, 16, 0.5 + 0.2j, 0.6),
]


@pytest.mark.parametrize("name, nr, na, b, s", UNDER_RESOLVED_NON_HARMONIC)
def test_mobius_estimate_covers_under_resolved_rules(name, nr, na, b, s):
    got = integrate_disk_singular(UNDER_RESOLVED_FIELDS[name], b, s, DiskRule(nr, na, Mobius()))
    assert abs(got.value - _fine_mobius(name, b, s)) <= got.abs_error_estimate


def test_every_rule_sums_through_the_nested_ring_sum(monkeypatch):
    # one ring sum for every polar rule: each field node is evaluated
    # inside quadrature._nested, so a private per-rule sum cannot come back
    from disknorms import quadrature
    from disknorms.operators import apply

    depth, calls, outside = [0], [0], []
    nested = quadrature._nested

    def counting(rings, rule):
        depth[0] += 1
        calls[0] += 1
        try:
            return nested(rings, rule)
        finally:
            depth[0] -= 1

    def field(w):
        if not depth[0]:
            outside.append(np.size(w))
        return 1.0 + 0.5 * np.asarray(w) - 0.25j * np.conj(w)

    monkeypatch.setattr(quadrature, "_nested", counting)
    runs = {
        "tensor": (lambda: integrate_disk(field, DiskRule(16, 32)), 1),
        "mobius": (lambda: integrate_disk_singular(field, 0.3, 1.0, DiskRule(16, 32, Mobius())), 1),
        "truncated": (lambda: truncated_singular_integral(field, 1.0, [0.1, 0.01], DiskRule(16, 32)), 2),
        "apply": (lambda: apply("j0", field, 0.3, DiskRule(16, 32)), 1),
    }
    for name, (run, sums) in runs.items():
        calls[0] = 0
        run()
        assert calls[0] == sums, name
    assert not outside


class CountingField:
    """Wrap a field and record the number of nodes of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, w):
        self.sizes.append(np.size(w))
        return self.f(w)


# integral of |w - b|^-s over the disk at 1 - |b| = 1e-4 (mpmath, 30 digits)
NEAR_RIM_ENERGY = {0.5: 1.0492698962455363093, 1.0: 1.2738948682851316473}


@pytest.mark.parametrize("s", sorted(NEAR_RIM_ENERGY))
def test_mobius_sum_answers_within_its_estimate_near_the_rim(s):
    b = 1.0 - 1e-4
    got = integrate_disk_singular(np.ones_like, b, s, DiskRule.for_point(b, singular=True))
    assert abs(got.value - NEAR_RIM_ENERGY[s]) <= got.abs_error_estimate


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("gap", [1e-5, 1e-6])
def test_mobius_sum_refuses_past_its_reach(s, gap):
    # the default rule reaches 1 - |b| >= 5.2e-5, 7.8e-5, 1.6e-4 at s = 0.5,
    # 1, 1.5; beyond, value and estimate miss the layer together
    b = 1.0 - gap
    f = CountingField(np.ones_like)
    with pytest.raises(DomainError, match="reaches 1 - \\|b\\| >="):
        integrate_disk_singular(f, b, s, DiskRule.for_point(b, singular=True))
    assert f.sizes == []


def test_under_angled_mobius_rule_is_refused():
    # 1 - |b| = 1e-3 needs 64,000 angles on the outermost ring; 512 gave
    # 4.5645 +- 3.4728 against K(3, 0.999) = 2.2613822211
    b = 0.999
    f = CountingField(np.ones_like)
    with pytest.raises(ConfigurationError, match="requires at least 64000"):
        integrate_disk_singular(f, b, 1.5, DiskRule(256, 512, Mobius()))
    assert f.sizes == []
    got = integrate_disk_singular(np.ones_like, b, 1.5, DiskRule.for_point(b, singular=True))
    assert abs(got.value - pf.profile_K(3.0, b)) <= got.abs_error_estimate


def test_mobius_rule_for_a_point_on_the_circle_is_refused():
    # the closed disk admits b = 1, but no angular count resolves the
    # layer of a point on the circle
    f = CountingField(np.ones_like)
    with pytest.raises(DomainError, match="on the unit circle"):
        integrate_disk_singular(f, 1.0, 1.0, DiskRule(64, 128, Mobius()))
    assert f.sizes == []


NON_FINITE = [complex("nan"), complex(0.3, math.nan), complex(math.inf, 0.0), complex(0.2, -math.inf)]


@pytest.mark.parametrize("b", NON_FINITE, ids=str)
def test_non_finite_points_are_refused_before_any_field_call(b):
    # NaN passed |b| > 1: the Mobius sum raised a bare ValueError and the
    # truncation ladder returned [0.0]
    with pytest.raises(DomainError):
        _required_angular_nodes(b)
    f = CountingField(np.ones_like)
    with pytest.raises(DomainError):
        integrate_disk_singular(f, b, 1.0, DiskRule(64, 64, Mobius()))
    assert f.sizes == []
    f = CountingField(np.ones_like)
    with pytest.raises(DomainError):
        truncated_singular_integral(f, b, [0.1])
    assert f.sizes == []


def test_one_mobius_rule_runs_at_every_point_it_is_given():
    # the strategy holds no point: a rule sized for 0.3 is the rule sized
    # for any b with |b| <= 0.9 (512 angles each), and it is refused where
    # b's layer needs more angles than it has
    def g(w):
        return 1.0 + 0.5 * np.asarray(w) - 0.25j * np.conj(w)

    rule = DiskRule.for_point(0.3, singular=True)
    for b in (0.3, -0.5 + 0.2j):
        own = DiskRule.for_point(b, singular=True)
        assert own == rule and own.angular_nodes == 512
        got, want = (integrate_disk_singular(g, b, 1.2, r) for r in (rule, own))
        assert (got.value, got.abs_error_estimate) == (want.value, want.abs_error_estimate)
    f = CountingField(g)
    with pytest.raises(ConfigurationError, match="requires at least 1280"):
        integrate_disk_singular(f, 0.95, 1.2, rule)
    assert f.sizes == []


RING_POINTS = [0.0, 0.5, 0.9, 0.9 + 1e-12, 0.93j, -0.95, 0.99, 0.995 + 0j, 0.999j, 0.9999, 1.0 - 1e-6]


@pytest.mark.parametrize("nr", [8, 37, 128, 256])
def test_ring_counts_keep_every_ring_resolved(nr):
    # Ring r aliases field modes with weight r^n and kernel modes with
    # (r|z|)^n; no ring may alias more than with the full count na, unless
    # its weight is already below e^-64.  Mobius rules place the rings at
    # a-radius t^beta.
    t, _ = _gauss01(nr)
    for z in RING_POINTS:
        full = DiskRule.for_point(z).angular_nodes
        for na in {16, 100, DEFAULT_ANGULAR, _required_angular_nodes(z), full // 2, full, 3 * full}:
            for beta in (1.0, 2.0 / 3.0, 2.0):
                r = t**beta
                counts = _ring_counts(r, na, z)
                assert counts.shape == r.shape
                assert np.all(counts <= na)
                assert np.all(counts >= min(na, DEFAULT_ANGULAR))
                if abs(z) <= 0.9:
                    assert np.all(counts == na), (z, na)
                    continue
                for x in (r, r * abs(z)):
                    log_x = np.log(x)
                    assert np.all(counts * log_x <= np.maximum(na * log_x, -64.0) + 1e-9), (z, na, beta)


def test_ring_counts_shrink_inner_rings_near_the_boundary():
    r, _ = _gauss01(256)
    counts = _ring_counts(r, _required_angular_nodes(0.995), 0.995)
    assert counts[0] == DEFAULT_ANGULAR and counts[-1] == 12800
    assert np.all(np.diff(counts) >= 0)
    assert counts.sum() < 256 * 12800 / 8


def test_integrate_disk_keeps_the_full_count_on_every_ring():
    # 2m+1 = 15 Kronrod rings for 16 radial nodes, each field node once
    f = CountingField(lambda w: w * np.conj(w))
    got = integrate_disk(f, DiskRule(16, 32))
    assert sum(f.sizes) == 15 * 32
    assert abs(got.value - 0.5) <= 1e-14


def test_rings_wider_than_a_block_are_summed_in_chunks():
    # 20000 angles per ring: each ring is split into angular chunks of at
    # most 8192 nodes, in the tensor rule and in the truncation ladders alike,
    # on the nested rule's 2m+1 rings: 7 for 8 radial nodes, 15 for 16
    f = CountingField(lambda w: (w * np.conj(w)) ** 2 + w**3)
    got = integrate_disk(f, DiskRule(8, 20000))
    assert abs(got.value - 1.0 / 3.0) <= 1e-13
    assert max(f.sizes) <= 8192 and sum(f.sizes) == 7 * 20000
    one = CountingField(lambda w: np.ones_like(w))
    vals = truncated_singular_integral(one, 0.3, [0.1], DiskRule(16, 20000))
    assert abs(vals[0] - 0.99) <= 1e-12
    assert max(one.sizes) <= 8192 and sum(one.sizes) == 15 * 20000


def test_angle_tables_up_to_512_nodes_are_numpys():
    for n in (16, 100, 511, 512):
        assert np.array_equal(_angles(n), np.exp(2j * math.pi * np.arange(n) / n)), n


@pytest.mark.parametrize(
    "n, lo, hi",
    [(513, 0, 513), (12800, 0, 12800), (640000, 0, 8192), (640000, 316000, 324192), (640000, 638000, 640000)],
)
def test_angle_tables_are_within_4_eps(n, lo, hi):
    # the coarse x fine product against 30-digit exponentials, on chunks
    # that start at 0 and past it; plain np.exp misses 4 eps at n = 513
    mp = pytest.importorskip("mpmath")
    table = _angles(n, lo, hi)
    assert table.shape == (hi - lo,)
    rng = np.random.default_rng(n + lo)
    idx = np.unique(np.concatenate([[0, hi - lo - 1], rng.integers(0, hi - lo, 400)]))
    with mp.workdps(30):
        err = max(abs(complex(table[i]) - complex(mp.expj(2 * mp.pi * int(lo + i) / n))) for i in idx)
    assert err <= 4 * 2.220446049250313e-16, err


@pytest.mark.parametrize("n", [3, 4, 32, 127, 300, 511])
def test_kronrod_rule_extends_the_gauss_rule(n):
    # Laurie's sums shrink by about 16 a step; unscaled they left the normal
    # range past n = 257 (exactness lost, then a failed eigen-solve from 269)
    tol = 1e-15 if n <= 256 else 2e-15
    x, wk, wg = _kronrod01(n)
    assert x.shape == wk.shape == wg.shape == (2 * n + 1,)
    gauss_x, gauss_w = _gauss01(n)
    assert np.array_equal(x[1::2], gauss_x) and np.array_equal(wg[1::2], gauss_w)
    assert np.all(wg[::2] == 0.0)
    assert np.all(wk > 0.0) and np.all(np.diff(x) > 0.0) and 0.0 < x[0] and x[-1] < 1.0
    for k in range(3 * n + 2):
        assert abs(np.dot(wk, x**k) - 1.0 / (k + 1)) <= tol, k


def test_kronrod_rule_past_n_513_builds_without_overflow():
    # a fixed scale of 16 a step overflowed from n = 514; each array is now
    # scaled by a power of two from its own largest entry (RuntimeWarnings
    # are errors in this suite)
    n = 1023
    x, wk, _ = _kronrod01(n)
    assert np.all(wk > 0.0) and np.all(np.diff(x) > 0.0)
    for k in range(3 * n + 2):
        assert abs(np.dot(wk, x**k) - 1.0 / (k + 1)) <= 1e-14, k


def _mp_kronrod(mp, n):
    """Nodes and weights of the (2n+1)-node Kronrod rule on [0, 1]: Laurie's
    algorithm in full, diagonal updates included, as scalar loops, then an
    eigen-solve and Christoffel numbers, all at the working precision."""
    size = 2 * n + 1
    a = [mp.mpf(1) / 2 if k <= 3 * n // 2 else mp.mpf(0) for k in range(size)]
    b = [mp.mpf(k * k) / (4 * (4 * k * k - 1)) if k <= -(-3 * n // 2) else mp.mpf(0) for k in range(size)]
    b[0] = mp.mpf(1)
    s, t = [mp.mpf(0)] * (n // 2 + 2), [mp.mpf(0)] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = mp.mpf(0)
        for k in range((m + 1) // 2, -1, -1):
            u += (a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    for j in range(n // 2, -1, -1):
        s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        u = mp.mpf(0)
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            u += -(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    jacobi = mp.zeros(size, size)
    for i in range(size):
        jacobi[i, i] = a[i]
        if i:
            jacobi[i, i - 1] = jacobi[i - 1, i] = mp.sqrt(b[i])
    nodes = sorted(mp.eigsy(jacobi, eigvals_only=True))
    weights = []
    for x in nodes:
        prev, p = mp.mpf(0), 1 / mp.sqrt(b[0])
        norm = p * p
        for i in range(size - 1):
            prev, p = p, ((x - a[i]) * p - mp.sqrt(b[i]) * prev) / mp.sqrt(b[i + 1])
            norm += p * p
        weights.append(1 / norm)
    return nodes, weights


@pytest.mark.parametrize("n", [3, 32])
def test_kronrod_rule_against_40_digits(n):
    mp = pytest.importorskip("mpmath")
    x, wk, _ = _kronrod01(n)
    with mp.workdps(40):
        nodes, weights = _mp_kronrod(mp, n)
        assert max(abs(xi - float(ni)) for xi, ni in zip(x, nodes)) <= 1e-15
        assert max(float(abs((wi - vi) / vi)) for wi, vi in zip(wk, weights)) <= 1e-12


# 40-digit mpmath Newton iterates on the Legendre recurrence, frozen:
# (index, node, weight) on [0, 1] for the nodes nearest 0 and the middle;
# the rule is symmetric about 1/2, so node n-1-i is 1 - node i, same weight
GAUSS_LITERALS = {
    16: [
        (0, "0.0052995325041750337019229132748337", "0.013576229705877047425890286228009"),
        (1, "0.027712488463383711961005792232696", "0.031126761969323946431421918497189"),
        (2, "0.067184398806084128059766051143803", "0.047579255841246392404962553801123"),
        (8, "0.54750625491881872009265966771248", "0.094725305227534248142698361604142"),
    ],
    127: [
        (0, "0.000088934792346926866324417713292178", "0.00022822863054793331395968259632455"),
        (1, "0.00046853282234405243084205840232816", "0.00053113834347692434798261799266047"),
        (2, "0.0011512169050976894627914875508253", "0.00083417440625859683805144314573748"),
        (63, "0.5", "0.012319876461980547209789708738751"),
    ],
    256: [
        (0, "0.000021974990503884632599394915792032", "0.000056394508911136087756269438624919"),
        (1, "0.00011578129536840694756070724405849", "0.00013126747214822295314372878124975"),
        (2, "0.00028453126686929587957290914447086", "0.00020623162721308816421609291886794"),
        (128, "0.50306195618759476475058508248113", "0.0061238358201448779520351632448592"),
    ],
}


@pytest.mark.parametrize("n", sorted(GAUSS_LITERALS))
def test_gauss_rule_against_30_digits(n):
    # numpy's leggauss weights nearest the ends missed by 1.7e-11 (n = 127)
    # and 2.1e-11 (n = 256); unpolished eigenvalues missed nodes by 6.7e-16
    mp = pytest.importorskip("mpmath")
    x, w = _gauss01(n)
    assert x.shape == w.shape == (n,)
    with mp.workdps(30):
        for i, node, weight in GAUSS_LITERALS[n]:
            node, weight = mp.mpf(node), mp.mpf(weight)
            for j, exact in ((i, node), (n - 1 - i, 1 - node)):
                assert abs(x[j] - exact) <= 1e-16, (j, float(x[j] - exact))
                assert abs(w[j] - weight) <= 5e-12 * weight, (j, float((w[j] - weight) / weight))


# sha256 of the little-endian float64 bytes of b_0..b_2n, as the numpy form
# of Laurie's algorithm (one cumulative sum per step) gave them
LAURIE_SHA256 = {
    16: "9329c04d7f39875260795e8c6aa218beb5576894958f877be5978a7d819bebf6",
    127: "d84b5547e324832703152631a25240fd99a6285e45fe4379e91feb606a2926bd",
    1023: "c6152ca91f6216262400fbe8943343cf08264431a4e89f7990e17d47da837136",
}


@pytest.mark.parametrize("n", sorted(LAURIE_SHA256))
def test_laurie_coefficients_are_bit_identical(n):
    b = _laurie_b(n)
    assert len(b) == 2 * n + 1
    assert hashlib.sha256(np.asarray(b, dtype="<f8").tobytes()).hexdigest() == LAURIE_SHA256[n]


def test_nested_rule_splits_chunked_rings_into_global_even_angles():
    # 17 Kronrod rings of 20001 -> 20002 angles, in chunks of 8192: the
    # half-count trapezoid sees every other angle of the whole ring, so on a
    # polynomial both halves of the estimate stay at rounding level
    f = CountingField(lambda w: (w * np.conj(w)) ** 2 + w**3 * np.conj(w) ** 3 + np.conj(w) ** 5)
    got = integrate_disk(f, DiskRule(17, 20001))
    assert abs(got.value - 7.0 / 12.0) <= 1e-14
    assert got.abs_error_estimate <= 1e-13
    assert max(f.sizes) <= 8192 and sum(f.sizes) == 17 * 20002
