"""Tests for the special-function layer.

Frozen reference values were produced with mpmath at 30 significant digits
and are quoted to 20 digits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import disknorms.profiles as pf
import disknorms.specfun as sf
from disknorms.errors import DivergenceError, DomainError, PrecisionError

# mpmath references, 30 dps
CATALAN = 0.91596559417721901505
J0_ZERO = 2.4048255576957727686
ZETA_15 = 2.6123753486854883433
ZETA_3 = 1.2020569031595942854
F21_QUARTER = 1.0731820071493643751  # 2F1(1/2,1/2;1;1/4)
F21_NEG_UPPER = 0.55107607396526271169  # 2F1(-1/2,3/2;1;0.49)
F32_INTERIOR = 1.2001300859472029691  # 3F2(1/2,1/2,3/2;1,5/2;0.81)
F21_UNITY_SLOW = 3.642429629126853664  # 2F1(0.45,0.45;1;1), decay exponent 1.1
F21_NEAR_POLE = 159154939.19950173184  # 2F1(b,b;1;1), b = 0.5 - 1e-9 (the float)
# The circle mean of 1/|1 - e^{it}|^{2 beta} is 2F1(beta, beta; 1; 1), Gauss's
# sum Gamma(1-2 beta)/Gamma(1-beta)^2: at beta = 0.3 exactly, and at the float
# beta (40 dps)
APM_RHO1_B03 = 1.3164560621300047185  # Gamma(0.4)/Gamma(0.7)^2
APM_RHO1 = {
    0.05: 1.00444851465335997534345852427,
    0.3: 1.31645606213000467933665868942,
    0.45: 3.64242962912685366396669614662,
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


def test_spec_validation():
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (-1.0,), 0.5)
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (1.0,), 1.5)
    with pytest.raises(DomainError):
        sf.HypergeometricSpec((0.5,), (1.0,), -0.1)
    with pytest.raises(DomainError):
        sf.hyp_pfq(sf.HypergeometricSpec((0.5,), (1.0,), 0.5), 0.0)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: sf.hyp_pfq(sf.HypergeometricSpec((0.5, 0.5), (1.0,), [0.2, 0.5]), tol),
        sf.catalan_constant,
        lambda tol: pf.profile_N(1.5, [0.5, 1.0], tol),
        lambda tol: pf.a_p_constant(3.0, tol),
    ],
    ids=["hyp_pfq", "catalan_constant", "profile_N", "a_p_constant"],
)
def test_bad_tolerance_is_refused_before_any_term(monkeypatch, call, tol):
    # NaN fails every comparison, `tol <= 0` too; it would be summed to
    # TERM_CAP terms if it were not refused before the first
    def summed(*args):
        raise AssertionError("terms were summed")

    for module, name in ((sf, "_sum_blocked"), (sf, "_thomae_sum"), (pf, "_thomae_sum"), (sf, "_sum_alternating")):
        monkeypatch.setattr(module, name, summed)
    with pytest.raises(DomainError, match=f"tol must be positive, got {tol!r}"):
        call(tol)


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
    # 2F1(-2,1;1;x) = (1-x)^2: every term past t_2 is exactly 0
    r = sf.hyp_pfq(sf.HypergeometricSpec((-2.0, 1.0), (1.0,), 0.3), 1e-12)
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


def test_argument_grid_sums_each_entry_as_a_lone_call():
    # one grid, entries leaving at different blocks (0 at once, 0.999 after
    # about 2^15 terms), a terminating series and one with p < q + 1
    xs = [0.0, 0.25, 0.9, 0.999, 0.5, 1e-300]
    for upper, lower, grid in (
        ((0.5, 0.5), (1.0,), xs),
        ((-0.5, 1.5), (1.0,), xs),
        ((-3.0, 0.7), (1.2,), xs),
        ((0.5, 0.5, 1.5), (1.0, 2.5), xs),
        ((), (1.5,), xs),
    ):
        spec = sf.HypergeometricSpec(upper, lower, np.array(grid))
        assert spec.argument == tuple(grid)
        got = sf.hyp_pfq(spec, 1e-12)
        lone = [sf.hyp_pfq(sf.HypergeometricSpec(upper, lower, x), 1e-12) for x in grid]
        assert all(isinstance(r.value, float) and isinstance(r.terms_used, int) for r in lone)
        assert got.value.tolist() == [r.value for r in lone]
        assert got.tail_bound.tolist() == [r.tail_bound for r in lone]
        assert got.terms_used == max(r.terms_used for r in lone)


def test_argument_grid_checks_every_entry():
    with pytest.raises(DomainError, match="1.5"):
        sf.HypergeometricSpec((0.5,), (1.0,), [0.2, 1.5])
    with pytest.raises(DivergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0, 1.0), (1.5,), [0.0, 0.5]), 1e-8)
    assert sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0, 1.0), (1.5,), [0.0]), 1e-8).value.tolist() == [1.0]
    with pytest.raises(PrecisionError, match="overflow"):
        sf.hyp_pfq(sf.HypergeometricSpec((-1e5, 1.0), (1.0,), [0.1, 0.3]), 1e-10)
    # the refusal names the entry that cannot reach the tolerance
    near = 1.0 - 2e-7
    with pytest.raises(PrecisionError, match=repr(near)) as exc:
        sf.hyp_pfq(sf.HypergeometricSpec((0.5, 1.5), (1.0,), [0.3, near]), 1e-12)
    assert exc.value.best.terms_used < 10_000


def test_interior_sign_changes_and_lower_order_series():
    # 2F1(-1/2, 3/2; 1; x): t_1 < 0 and every later term keeps that sign
    r = sf.hyp_pfq(sf.HypergeometricSpec((-0.5, 1.5), (1.0,), 0.49), 1e-13)
    assert abs(r.value - F21_NEG_UPPER) <= r.tail_bound <= 1e-13
    # 0F1(; 3/2; x^2/4) = sinh(x)/x
    r = sf.hyp_pfq(sf.HypergeometricSpec((), (1.5,), 0.25), 1e-14)
    assert abs(r.value - math.sinh(1.0)) <= r.tail_bound + 1e-16
    r = sf.hyp_pfq(sf.HypergeometricSpec((), (1.5,), 0.5625), 1e-14)
    assert abs(r.value - math.sinh(1.5) / 1.5) <= r.tail_bound + 2e-16


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


@pytest.mark.parametrize("upper, lower, x", [((-1e5, 1.0), (1.0,), 0.3)], ids=["interior"])
def test_overflowing_terms_are_refused(upper, lower, x):
    # RuntimeWarnings are errors under the test configuration, so this also
    # checks that the overflow passes without a numpy warning
    with pytest.raises(PrecisionError, match="overflow"):
        sf.hyp_pfq(sf.HypergeometricSpec(upper, lower, x), 1e-10)


def test_hyp_pfq_divergence_detected():
    # p > q + 1 never converges for x > 0
    with pytest.raises(DivergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0, 1.0), (1.5,), 0.5), 1e-8)
    with pytest.raises(DivergenceError):
        sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0), (), 0.5), 1e-8)


@pytest.mark.parametrize("argument", [1.0, [0.2, 1.0]], ids=["scalar", "grid"])
@pytest.mark.parametrize(
    "upper, lower",
    [
        ((1.0, 1.0), (1.5,)),
        ((0.5, 0.5), (2.0,)),
        ((1.75, 0.75, 0.75), (1.0, 2.75)),
        ((-2.0, 3.0), (1.0,)),
        ((), (1.5,)),
    ],
    ids=["divergent", "convergent", "N-series", "terminating", "lower-order"],
)
def test_unit_argument_is_refused_before_any_term(upper, lower, argument):
    # no series is summed at x = 1, whether it converges there, terminates
    # or has p < q + 1: the spec refuses it before ``hyp_pfq`` is called;
    # A(p) has its own kernel in ``_thomae_sum``
    with pytest.raises(DomainError, match=r"argument 1.0 outside \[0, 1\)"):
        sf.HypergeometricSpec(upper, lower, argument)


def test_gauss_2f1_at_1_gamma_formula():
    assert sf.gauss_2f1_at_1(0.5, 0.5, 2.0) == pytest.approx(4.0 / math.pi, abs=1e-14)
    assert sf.gauss_2f1_at_1(0.0, 3.0, 1.0) == 1.0
    got = sf.gauss_2f1_at_1(0.45, 0.45, 1.0)
    assert got == pytest.approx(F21_UNITY_SLOW, rel=1e-13)
    with pytest.raises(DivergenceError):
        sf.gauss_2f1_at_1(1.0, 1.0, 2.0)
    with pytest.raises(DivergenceError):
        sf.gauss_2f1_at_1(0.75, 0.75, 1.0)


def test_circle_mean_series_against_trapezoid():
    # Parseval: the circle mean of 1/|1 - rho e^{it}|^{2 beta} is
    # 2F1(beta, beta; 1; rho^2); checked against a 4096-node trapezoid
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for rho, beta in ((0.5, 0.5), (0.3, 0.9), (0.7, 0.25)):
        direct = float(
            np.mean(np.abs(1.0 - rho * np.exp(1j * theta)) ** (-2.0 * beta))
        )
        got = sf.hyp_pfq(sf.HypergeometricSpec((beta, beta), (1.0,), rho * rho), 1e-10)
        assert abs(got.value - direct) <= 1e-8
    # beta = 1 collapses to the geometric series 1/(1-rho^2)
    for rho in (0.2, 0.5, 0.8):
        got = sf.hyp_pfq(sf.HypergeometricSpec((1.0, 1.0), (1.0,), rho * rho), 1e-12)
        assert abs(got.value - 1.0 / (1.0 - rho * rho)) <= 1e-11


@pytest.mark.parametrize("beta", list(APM_RHO1), ids=str)
def test_circle_mean_at_rho_1_is_gauss_sum(beta):
    got = sf.gauss_2f1_at_1(beta, beta, 1.0)
    assert abs(got - APM_RHO1[beta]) <= 1e-13 * APM_RHO1[beta]


def test_circle_mean_at_rho_1_diverges_from_beta_one_half():
    got = sf.gauss_2f1_at_1(0.3, 0.3, 1.0)
    assert abs(got - APM_RHO1_B03) <= 1e-13 * APM_RHO1_B03
    for beta in (0.5, 0.8):
        with pytest.raises(DivergenceError):
            sf.gauss_2f1_at_1(beta, beta, 1.0)


def test_gauss_2f1_at_1_rounds_the_excess_once():
    # c - a - b near 0 sits at a Gamma pole, which magnifies its rounding
    b = 0.5 - 1e-9
    assert sf.gauss_2f1_at_1(b, b, 1.0) == pytest.approx(F21_NEAR_POLE, rel=1e-14)


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

    # a loose tolerance is met by the same accelerated sum
    r = sf.catalan_constant(0.2)
    assert abs(r.value - CATALAN) <= r.tail_bound
    assert r.tail_bound <= 0.2


def test_catalan_partial_sums_bracket():
    # alternating partial sums enclose the accelerated value
    value = sf.catalan_constant(1e-12).value
    s = 0.0
    for k in range(12):
        prev = s
        s += (-1.0) ** k / (2 * k + 1.0) ** 2
        if k >= 1:
            assert min(prev, s) <= value <= max(prev, s)


def test_riemann_zeta_refuses_nan():
    # NaN fails `s <= 1` as well as `s > 1`
    with pytest.raises(DomainError, match="nan"):
        sf.riemann_zeta(math.nan)


def test_riemann_zeta():
    assert abs(sf.riemann_zeta(1.5) - ZETA_15) <= 1e-12
    assert abs(sf.riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-13
    assert abs(sf.riemann_zeta(3.0) - ZETA_3) <= 1e-13
    with pytest.raises(DomainError):
        sf.riemann_zeta(1.0)
    with pytest.raises(DomainError):
        sf.riemann_zeta(0.5)

