"""Tests for the scalar special-function layer.

Frozen reference values were produced with mpmath at 30 significant digits
and are quoted to 20 digits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import disknorms.specfun as sf
from disknorms.errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    PrecisionError,
)

# mpmath references, 30 dps
CATALAN = 0.91596559417721901505
J0_ZERO = 2.4048255576957727686
ZETA_15 = 2.6123753486854883433
ZETA_3 = 1.2020569031595942854
F21_QUARTER = 1.0731820071493643751  # 2F1(1/2,1/2;1;1/4)
F21_NEG_UPPER = 0.55107607396526271169  # 2F1(-1/2,3/2;1;0.49)
F32_INTERIOR = 1.2001300859472029691  # 3F2(1/2,1/2,3/2;1,5/2;0.81)
F32_UNITY_Q32 = 2.7583968316881053933  # 3F2(1+q/2,q/2,q/2;1,2+q/2;1), q=3/2
F32_UNITY_Q43 = 1.9965774666745873181  # same, q=4/3
F21_UNITY_SLOW = 3.642429629126853664  # 2F1(0.45,0.45;1;1), decay exponent 1.1
F21_NEAR_POLE = 159154939.19950173184  # 2F1(b,b;1;1), b = 0.5 - 1e-9 (the float)
F21_SLOWEST = 46427608.218536561002  # 2F1(0.7,0.6;1.30000001;1), decay exponent 1+1e-8

# Unit-argument series as (upper, lower, tol): value
UNIT_CALIBRATION = {
    ((0.3, 0.3), (1.0,), 1e-9): 1.3164560621300046793,
    ((0.3, 0.3), (1.0,), 1e-12): 1.3164560621300046793,
    ((0.25, 0.5), (1.0,), 1e-10): 1.6692536833481463726,
    ((0.2, 0.7), (1.3,), 1e-10): 1.4051465331220748441,
    ((1.75, 0.75, 0.75), (1.0, 2.75), 1e-10): F32_UNITY_Q32,
    ((1 + 2 / 3, 2 / 3, 2 / 3), (1.0, 2 + 2 / 3), 1e-10): F32_UNITY_Q43,
}

# The interior series behind the profiles, at x = rho*rho (the float
# product), mpmath 40 dps quoted to 30 digits:
#   F: 2F1(1-q/2, 2-q/2; 1; x), M: 2F1(q/2, q/2; 2; x),
#   N: 3F2(q/2, q/2, 1+q/2; 1, 2+q/2; x)
SERIES_CALIBRATION = {
    ("F", 1.0, 0.5): 1.24562061022359215485466937489,
    ("M", 1.0, 0.5): 1.03463161844536667881096600154,
    ("N", 1.0, 0.5): 1.04187174315196499438486496650,
    ("F", 1.0, 0.9): 3.92592374223998590887691034167,
    ("M", 1.0, 0.9): 1.16068000761530241277048089145,
    ("N", 1.0, 0.9): 1.20013008594720296905624730834,
    ("F", 1.0, 0.99): 32.9019113281145898835928484930,
    ("M", 1.0, 0.99): 1.24930957664191455522613981133,
    ("N", 1.0, 0.99): 1.31846210214113980708821537447,
    ("F", 1.0, 0.999): 319.741216973774049403678525518,
    ("M", 1.0, 0.999): 1.26942073927333707596043650639,
    ("N", 1.0, 0.999): 1.34665342490964865651852306660,
    ("F", 1.0, 0.9999): 3184.89581126071952975148384321,
    ("M", 1.0, 0.9999): 1.27271170288821092422592198587,
    ("N", 1.0, 0.9999): 1.35137941375167124922562395845,
    ("F", 1.5, 0.5): 1.09542361454143779234151883531,
    ("M", 1.5, 0.5): 1.08100501354207885065469887764,
    ("N", 1.5, 0.5): 1.10460197496998227680096874577,
    ("F", 1.5, 0.9): 1.75724382802833732385404419391,
    ("M", 1.5, 0.9): 1.44809316548250213035428752327,
    ("N", 1.5, 0.9): 1.61502137031503555595088392696,
    ("F", 1.5, 0.99): 4.38723052174129525739173458147,
    ("M", 1.5, 0.99): 1.86665057529606492425107806296,
    ("N", 1.5, 0.99): 2.26571212882392488638757824758,
    ("F", 1.5, 0.999): 12.6446724871044265638866146759,
    ("M", 1.5, 0.999): 2.05650537137501294218011175728,
    ("N", 1.5, 0.999): 2.58374228014460472069464881430,
    ("F", 1.5, 0.9999): 38.7262760241345804974695686808,
    ("M", 1.5, 0.9999): 2.12450470179956965228409500173,
    ("N", 1.5, 0.9999): 2.70101646363433292742243717404,
    ("F", 1.75, 0.5): 1.04162604035707420718600503774,
    ("M", 1.75, 0.5): 1.11270246795405944565047692806,
    ("N", 1.75, 0.5): 1.14980334845156691404705142190,
    ("F", 1.75, 0.9): 1.27870792486546309921602386756,
    ("M", 1.75, 0.9): 1.69450876721185208709178804459,
    ("N", 1.75, 0.9): 2.00151936732493463257008247229,
    ("F", 1.75, 0.99): 1.87376159123658829450907828344,
    ("M", 1.75, 0.99): 2.59038291768358533841918415105,
    ("N", 1.75, 0.99): 3.50516439217540298793086590099,
    ("F", 1.75, 0.999): 2.93214793180341494618036904606,
    ("M", 1.75, 0.999): 3.22172884684643524487262950819,
    ("N", 1.75, 0.999): 4.65175112052799225957475930832,
    ("F", 1.75, 0.9999): 4.81301017787089117433906143719,
    ("M", 1.75, 0.9999): 3.59785824361912818107906394401,
    ("N", 1.75, 0.9999): 5.35176644422967420419069509473,
}


def _profile_series(name, q, rho):
    half = 0.5 * q
    upper, lower = {
        "F": ((1.0 - half, 2.0 - half), (1.0,)),
        "M": ((half, half), (2.0,)),
        "N": ((half, half, 1.0 + half), (1.0, 2.0 + half)),
    }[name]
    return sf.HypergeometricSpec(upper, lower, rho * rho)


def test_ln_gamma_matches_factorials():
    for n in range(1, 12):
        assert math.isclose(sf.ln_gamma(n + 1), math.log(math.factorial(n)),
                            rel_tol=1e-14, abs_tol=1e-14)
    assert sf.ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-15)
    with pytest.raises(DomainError):
        sf.ln_gamma(0.0)
    with pytest.raises(DomainError):
        sf.ln_gamma(-2.5)


def test_gamma_sign_reflection():
    # Gamma alternates sign between consecutive negative integers
    assert sf.gamma_sign(2.5) == 1.0
    assert sf.gamma_sign(-0.5) == -1.0  # Gamma(-1/2) = -2 sqrt(pi)
    assert sf.gamma_sign(-1.5) == 1.0  # Gamma(-3/2) = 4 sqrt(pi)/3
    assert sf.gamma_sign(-2.5) == -1.0
    with pytest.raises(DomainError):
        sf.gamma_sign(-3.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (-1.0,), 0.5)
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (1.0,), 1.5)
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (1.0,), -0.1)
    with pytest.raises(DomainError):
        sf.hyp_pfq(sf.HypergeometricSpec((0.5,), (1.0,), 0.5), 0.0)


def test_hyp_pfq_interior_values():
    r = sf.hyp_pfq(sf.HypergeometricSpec((0.5, 0.5), (1.0,), 0.25), 1e-13)
    assert abs(r.value - F21_QUARTER) <= max(r.tail_bound, 1e-13)
    r = sf.hyp_pfq(sf.HypergeometricSpec((-0.5, 1.5), (1.0,), 0.49), 1e-13)
    assert abs(r.value - F21_NEG_UPPER) <= max(r.tail_bound, 1e-13)
    r = sf.hyp_pfq(sf.HypergeometricSpec((0.5, 0.5, 1.5), (1.0, 2.5), 0.81), 1e-13)
    assert abs(r.value - F32_INTERIOR) <= max(r.tail_bound, 1e-13)


def test_hyp_pfq_zero_argument_and_terminating():
    r = sf.hyp_pfq(sf.HypergeometricSpec((0.7, 1.3), (2.0,), 0.0), 1e-12)
    assert r.value == 1.0 and r.tail_bound == 0.0
    # 2F1(-2,1;1;x) = (1-x)^2 terminates after three terms
    r = sf.hyp_pfq(sf.HypergeometricSpec((-2.0, 1.0), (1.0,), 0.3), 1e-12)
    assert r.terms_used == 3
    assert r.value == pytest.approx(0.49, abs=1e-14)


@pytest.mark.parametrize("key", list(SERIES_CALIBRATION), ids=str)
def test_interior_tail_bound_covers_frozen_reference(key):
    got = sf.hyp_pfq(_profile_series(*key), 1e-10)
    ref = SERIES_CALIBRATION[key]
    assert abs(got.value - ref) <= got.tail_bound <= 1e-10 * max(1.0, abs(ref))


def test_interior_work_is_whole_blocks():
    # blocks of 64, 128, ... terms after t_0: rho = 0.5 needs only the first
    got = sf.hyp_pfq(_profile_series("N", 1.5, 0.5), 1e-12)
    assert got.terms_used == 65
    got = sf.hyp_pfq(_profile_series("M", 1.5, 0.9), 1e-12)
    assert got.terms_used == 1 + 64 + 128
    # blocks stop doubling at 2^14 terms: 64 + ... + 2^14 and one more
    got = sf.hyp_pfq(_profile_series("M", 1.0, 0.9999), 1e-10)
    assert got.terms_used == 1 + (2**15 - 64) + 2**14


def test_interior_sign_changes_and_lower_order_series():
    # 2F1(-1/2, 3/2; 1; x): t_1 < 0 and every later term keeps that sign
    r = sf.hyp_pfq(sf.HypergeometricSpec((-0.5, 1.5), (1.0,), 0.49), 1e-13)
    assert abs(r.value - F21_NEG_UPPER) <= r.tail_bound <= 1e-13
    # 0F1(; 3/2; x^2/4) = sinh(x)/x; p < q + 1 also sums at x = 1
    r = sf.hyp_pfq(sf.HypergeometricSpec((), (1.5,), 0.25), 1e-14)
    assert abs(r.value - math.sinh(1.0)) <= r.tail_bound + 1e-16
    r = sf.hyp_pfq(sf.HypergeometricSpec((), (1.5,), 1.0), 1e-14)
    assert abs(r.value - math.sinh(2.0) / 2.0) <= r.tail_bound + 2e-16


def test_interior_refuses_an_unreachable_tolerance_at_once():
    # the rounding floor of 2F1(1/2, 3/2; 1; x) near x = 1 is about
    # 8 eps/(1-x) relative, far above 1e-12; the refusal comes after a
    # handful of blocks, not after TERM_CAP terms
    spec = sf.HypergeometricSpec((0.5, 1.5), (1.0,), 1.0 - 2e-7)
    with pytest.raises(PrecisionError) as exc:
        sf.hyp_pfq(spec, 1e-12)
    best = exc.value.best
    assert best.terms_used < 10_000
    assert math.isfinite(best.value) and best.tail_bound > 1e-12 * best.value


def test_interior_term_cap_carries_best(monkeypatch):
    monkeypatch.setattr(sf, "TERM_CAP", 300)
    with pytest.raises(PrecisionError) as exc:
        sf.hyp_pfq(sf.HypergeometricSpec((0.5, 0.5), (1.0,), 0.999), 1e-12)
    best = exc.value.best
    assert best.terms_used > 300
    assert math.isfinite(best.value) and best.tail_bound > 1e-12


# multiples of 1/64, so that c-a, c-b and a+b-c are exact floats and both
# sides of each identity are series with exactly the stated parameters
PARAMETER = st.integers(min_value=1, max_value=256).map(lambda k: k / 64.0)
ARGUMENT = st.floats(min_value=0.0, max_value=0.999)


def _series(upper, lower, x):
    got = sf.hyp_pfq(sf.HypergeometricSpec(upper, lower, x), 1e-8)
    return got.value, got.tail_bound


def _product(left, right):
    (u, du), (v, dv) = left, right
    value = u * v
    return value, abs(u) * dv + abs(v) * du + du * dv + 2.0 * sf._EPS * abs(value)


def _overlap(left, right):
    return abs(left[0] - right[0]) <= left[1] + right[1]


@settings(max_examples=100, deadline=None)
@given(PARAMETER, PARAMETER, PARAMETER, ARGUMENT)
def test_interior_brackets_agree_across_identities(a, b, c, x):
    # 2F1(a, b; b; x) = 1F0(a;; x) = (1-x)^-a
    assert _overlap(_series((a, b), (b,), x), _series((a,), (), x))
    # Euler: 2F1(a, b; c; x) = 1F0(a+b-c;; x) 2F1(c-a, c-b; c; x)
    euler = _product(_series((a + b - c,), (), x), _series((c - a, c - b), (c,), x))
    assert _overlap(_series((a, b), (c,), x), euler)


def test_hyp_pfq_unit_argument_accelerated():
    r = sf.hyp_pfq(sf.HypergeometricSpec((0.5, 0.5), (2.0,), 1.0), 1e-12)
    assert abs(r.value - 4.0 / math.pi) <= 1e-10
    assert abs(r.value - 4.0 / math.pi) <= r.tail_bound + 1e-13

    r = sf.hyp_pfq(sf.HypergeometricSpec((1.75, 0.75, 0.75), (1.0, 2.75), 1.0), 1e-10)
    assert abs(r.value - F32_UNITY_Q32) <= r.tail_bound + 1e-10

    q = 4.0 / 3.0
    r = sf.hyp_pfq(
        sf.HypergeometricSpec((1 + q / 2, q / 2, q / 2), (1.0, 2 + q / 2), 1.0), 1e-10
    )
    assert abs(r.value - F32_UNITY_Q43) <= r.tail_bound + 1e-10

    # slow case: terms decay like n^{-1.1}
    r = sf.hyp_pfq(sf.HypergeometricSpec((0.45, 0.45), (1.0,), 1.0), 1e-8)
    assert abs(r.value - F21_UNITY_SLOW) <= r.tail_bound + 1e-8 * F21_UNITY_SLOW


@pytest.mark.parametrize("key", list(UNIT_CALIBRATION), ids=str)
def test_unit_argument_tail_bound_covers_frozen_reference(key):
    upper, lower, tol = key
    got = sf.hyp_pfq(sf.HypergeometricSpec(upper, lower, 1.0), tol)
    ref = UNIT_CALIBRATION[key]
    assert abs(got.value - ref) <= got.tail_bound <= tol * max(1.0, abs(ref))


def test_unit_argument_bound_holds_where_s_barely_exceeds_1():
    # the tail is about 1/(s-1) times a term, so the rounding of s itself
    # moves it by about eps/(s-1) relative; the bound must carry that too,
    # whether the tolerance is met or refused
    spec = sf.HypergeometricSpec((0.7, 0.6), (1.30000001,), 1.0)
    got = sf.hyp_pfq(spec, 1e-6)
    assert abs(got.value - F21_SLOWEST) <= got.tail_bound
    # that slack never shrinks, so a tolerance below it is refused at once
    with pytest.raises(PrecisionError) as exc:
        sf.hyp_pfq(spec, 1e-8)
    got = exc.value.best
    assert abs(got.value - F21_SLOWEST) <= got.tail_bound
    assert got.terms_used < 10_000


def test_unit_argument_polynomial_sums_to_its_last_term():
    # Chu-Vandermonde: 2F1(-2, 3; 1; 1) = (1-3)_2 / (1)_2 = 1, although the
    # decay exponent of a non-terminating series with these sums would be 1
    r = sf.hyp_pfq(sf.HypergeometricSpec((-2.0, 3.0), (1.0,), 1.0), 1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-14)
    assert r.terms_used == 3


@pytest.mark.parametrize(
    "upper, lower, x",
    [((-1e5, 1.0), (1.0,), 0.3), ((1e5, 1e5), (2e5 + 2.0,), 1.0)],
    ids=["interior", "unit"],
)
def test_overflowing_terms_are_refused(upper, lower, x):
    # RuntimeWarnings are errors under the test configuration, so this also
    # checks that the overflow passes without a numpy warning
    with pytest.raises(PrecisionError, match="overflow"):
        sf.hyp_pfq(sf.HypergeometricSpec(upper, lower, x), 1e-10)


def test_hyp_pfq_divergence_detected():
    with pytest.raises(ConvergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0), (1.5,), 1.0), 1e-8)
    with pytest.raises(ConvergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0), (2.0,), 1.0), 1e-8)
    # 0F0 style mismatch: p > q + 1 never converges for x > 0
    with pytest.raises(ConvergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0, 1.0), (1.5,), 0.5), 1e-8)


def test_hyp_pfq_precision_error_carries_best(monkeypatch):
    monkeypatch.setattr(sf, "TERM_CAP", 300)
    with pytest.raises(PrecisionError) as exc:
        sf.hyp_pfq(sf.HypergeometricSpec((0.45, 0.45), (1.0,), 1.0), 1e-13)
    best = exc.value.best
    assert best is not None
    assert abs(best.value - F21_UNITY_SLOW) <= 10.0 * best.tail_bound


def test_gauss_2f1_at_1_gamma_formula():
    assert sf.gauss_2f1_at_1(0.5, 0.5, 2.0) == pytest.approx(4.0 / math.pi, abs=1e-14)
    assert sf.gauss_2f1_at_1(0.0, 3.0, 1.0) == 1.0
    got = sf.gauss_2f1_at_1(0.45, 0.45, 1.0)
    assert got == pytest.approx(F21_UNITY_SLOW, rel=1e-13)
    with pytest.raises(DivergenceError):
        sf.gauss_2f1_at_1(1.0, 1.0, 2.0)
    with pytest.raises(DivergenceError):
        sf.gauss_2f1_at_1(0.75, 0.75, 1.0)


def test_gauss_2f1_at_1_rounds_the_excess_once():
    # c - a - b near 0 sits at a Gamma pole, which magnifies its rounding
    b = 0.5 - 1e-9
    assert sf.gauss_2f1_at_1(b, b, 1.0) == pytest.approx(F21_NEAR_POLE, rel=1e-14)


def test_gauss_vs_series_cross_check():
    # both routes to 2F1(a,b;c;1) when the margin c-a-b is comfortable
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.9))
        b = float(rng.uniform(0.1, 0.9))
        c = a + b + float(rng.uniform(0.3, 1.5))
        series = sf.hyp_pfq(sf.HypergeometricSpec((a, b), (c,), 1.0), 1e-11)
        closed = sf.gauss_2f1_at_1(a, b, c)
        assert abs(series.value - closed) <= series.tail_bound + 1e-10


def test_bessel_j0_zero():
    z = sf.bessel_j0_smallest_zero()
    assert abs(z - 2.4048256) <= 5e-7
    assert abs(z - J0_ZERO) <= 1e-12
    assert abs(sf._bessel_j0(z)) <= 1e-14
    # it is the first zero: J0 stays positive on [0, z)
    for x in np.linspace(0.0, z - 1e-3, 50):
        assert sf._bessel_j0(float(x)) > 0.0


def test_catalan_constant():
    r = sf.catalan_constant(1e-12)
    assert abs(r.value - 0.915966) <= 5e-7
    assert abs(r.value - CATALAN) <= r.tail_bound + 1e-15
    assert r.tail_bound <= 1e-12

    # loose tolerance takes the raw alternating route
    r = sf.catalan_constant(0.2)
    assert r.value == 1.0 and r.terms_used == 1
    assert abs(r.value - CATALAN) <= r.tail_bound


def test_catalan_partial_sums_bracket():
    # alternating partial sums enclose the accelerated value
    value = sf.catalan_constant(1e-12).value
    s = 0.0
    for k in range(12):
        prev = s
        s += (-1.0) ** k / (2 * k + 1.0) ** 2
        if k >= 1:
            assert min(prev, s) <= value <= max(prev, s)


def test_riemann_zeta():
    assert abs(sf.riemann_zeta(1.5) - ZETA_15) <= 1e-12
    assert abs(sf.riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-13
    assert abs(sf.riemann_zeta(3.0) - ZETA_3) <= 1e-13
    with pytest.raises(DomainError):
        sf.riemann_zeta(1.0)
    with pytest.raises(DomainError):
        sf.riemann_zeta(0.5)

