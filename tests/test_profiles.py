"""Tests for the radial profile functions.

Reference values frozen from 30-digit mpmath evaluations; series identities
re-derived here with independent term-by-term summation where the module
under test goes through the hypergeometric engine instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from disknorms import profiles as pf
from disknorms.errors import DomainError, PrecisionError
from disknorms.specfun import catalan_constant, gauss_2f1_at_1, ln_gamma

# mpmath references, 30 dps
K_3_AT_03 = 3.930404762413530342
K_INF_AT_099 = 1.3094960708589625710  # 2(1-t) 2F1(1/2,3/2;1;t), t = 0.99*0.99
M_1_AT_099 = 1.2368164808754954355
N_32_AT_07 = 0.71337986451723738984  # N_q(0.7), q = 3/2
N_NEAR_2_AT_05 = 0.602913172702731128135  # N_q(0.5), q = 1.9999995 (the float)
A_AT_3 = 1.5762267609646316533
A_AT_4 = 1.1979464800047525603
# A(p) at p = 2 + d (the float sum), mpmath at 30 digits through Thomae's
# form; for d >= 0.38 the defining 3F2 at 40 digits agrees to 1e-30
A_CALIBRATION = {
    1e-5: 100000.000016681528263600421065,
    1e-3: 1000.00173013966227077298549565,
    1e-2: 100.016987457800135030907677043,
    0.05: 20.078607088089837561563045313,
    0.12: 8.50028720237457845752949696802,
    0.38: 3.00303400183123132727769286311,
    1.0: 1.57622676096463165331480792003,
    8.0: 0.962471965555397882974942297265,
    1e3: 0.901867741341992383152478121309,
    1e6: 0.901432129813731648027363874393,
    math.inf: 0.901431694245428231814536439682,  # (1+2*Catalan)/pi
}
# A(p) at the float p, mpmath at 50 digits through Thomae's form, quoted to
# 30; at p = 2.5, 10 and 1e6 the defining 3F2 agrees to all 30
A_AT_P = {
    2.01: 100.016987457800135030907677043,
    2.5: 2.43025419622806842556971941102,
    10.0: 0.962471965555397882974942297265,
    1e6: 0.901432129814602787336090428659,
    math.inf: 0.901431694245428231814536439682,
}
# the defining N-series 3F2(1+q/2, q/2, q/2; 1, 2+q/2; 1) at p = 3 and 4,
# with q = p/(p-1); A(p) is 2/(q+2) times it
N_SERIES_AT_1 = {3.0: 2.7583968316881053933, 4.0: 1.9965774666745873181}
# M(q, 1) = Gamma(2-q)/Gamma(2-q/2)^2 at the float q near its pole
M_NEAR_POLE = {
    2.0 - 1e-6: 1000000.0000826778712,
    2.0 - 1e-7: 9999999.9941613693585,
}
F1_LIMIT = {
    1.0: 0.63661977236758134308,
    1.25: 0.58156196033775471523,
    1.5: 0.53935260118837935667,
    1.75: 0.51100666350835908537,
}


def _radial_gl(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def test_profile_K_refuses_where_rounding_outgrows_the_tolerance():
    # Near rho = 1 the interior series behind K needs about 1/(1-rho^2)
    # terms, and its rounding floor grows with them past K's 1e-12
    # tolerance; the refusal comes after a few short blocks
    with pytest.raises(PrecisionError) as exc:
        pf.profile_K(3.0, 1.0 - 1e-7)
    best = exc.value.best
    assert math.isfinite(best.value) and best.terms_used < 10_000
    # q = 1 at 1 - 1e-5: an answer would be off by about 2e-12 relative
    with pytest.raises(PrecisionError):
        pf.profile_K(math.inf, 1.0 - 1e-5)
    # the same profile still answers at 0.99 (the verify grids stop there)
    assert pf.profile_K(math.inf, 0.99) == pytest.approx(K_INF_AT_099, rel=1e-12)


def test_profile_K_at_center():
    # K(0) = 2/(2-q) = (2p-2)/(p-2)
    assert pf.profile_K(4.0, 0.0) == pytest.approx(3.0, abs=1e-12)
    for p in (3.0, 10.0):
        q = p / (p - 1.0)
        assert pf.profile_K(p, 0.0) == pytest.approx(2.0 / (2.0 - q), abs=1e-12)
        assert pf.profile_K(p, 0.0) == pytest.approx(
            (2.0 * p - 2.0) / (p - 2.0), abs=1e-12
        )
    assert pf.profile_K(math.inf, 0.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        pf.profile_K(2.0, 0.3)
    with pytest.raises(DomainError):
        pf.profile_K(3.0, 1.5)
    # refused blow-up region just above p = 2
    with pytest.raises(DomainError):
        pf.profile_K(2.0000001, 0.3)


def test_profile_K_interior_value():
    assert pf.profile_K(3.0, 0.3) == pytest.approx(K_3_AT_03, abs=1e-10)


def test_profile_K_radial_series_route():
    # Independent route: integrate the Parseval angular-mean series of
    # |w - rho|^{-q} radially term by term.  Splitting at r = rho gives
    #   K = rho^{2-q} sum c_n^2/(n+1)
    #     + 2 sum c_n^2 (rho^{2n} - rho^{2-q})/(2 - q - 2n),
    # with c_n = (q/2)_n/n!.  The slowly-decaying n^{q-3} tail is removed
    # by Richardson extrapolation on its known exponents.
    rng = np.random.default_rng(42)
    sizes = [2048, 4096, 8192, 16384]
    n = np.arange(0, sizes[-1], dtype=float)
    for _ in range(20):
        p = float(rng.uniform(2.3, 12.0))
        rho = float(rng.uniform(0.05, 0.9))
        q = p / (p - 1.0)
        log_c = np.cumsum(np.log((n + 0.5 * q) / (n + 1.0)))
        c2 = np.concatenate(([1.0], np.exp(log_c[:-1]))) ** 2
        terms = rho ** (2.0 - q) * c2 / (n + 1.0) + 2.0 * c2 * (
            rho ** (2.0 * n) - rho ** (2.0 - q)
        ) / (2.0 - q - 2.0 * n)
        csum = np.cumsum(terms)
        vals = [float(csum[m - 1]) for m in sizes]
        for shift in (q - 2.0, q - 3.0):
            r = 2.0**shift
            vals = [(vals[i + 1] - r * vals[i]) / (1.0 - r)
                    for i in range(len(vals) - 1)]
        assert abs(vals[-1] - pf.profile_K(p, rho)) <= 1e-6 * pf.profile_K(p, rho)


def test_profile_M_values():
    assert pf.profile_M(1.3, 0.0) == 0.0
    assert pf.profile_M(1.0, 1.0) == pytest.approx(4.0 / math.pi, abs=1e-12)
    gamma_form = math.exp(ln_gamma(0.5) - 2.0 * ln_gamma(1.25))
    assert pf.profile_M(1.5, 1.0) == pytest.approx(gamma_form, rel=1e-13)
    assert pf.profile_M(1.5, 1.0) == pytest.approx(
        gauss_2f1_at_1(0.75, 0.75, 2.0), rel=1e-13
    )
    assert pf.profile_M(1.0, 0.99) == pytest.approx(M_1_AT_099, abs=1e-10)
    with pytest.raises(DomainError):
        pf.profile_M(2.0, 0.5)
    with pytest.raises(DomainError):
        pf.profile_M(0.9, 0.5)


@pytest.mark.parametrize("q", list(M_NEAR_POLE), ids=str)
def test_profile_M_at_rho_1_keeps_its_digits_near_q_2(q):
    # Gauss's sum has Gamma(2 - q) on top: 2 - q must be rounded only once
    assert pf.profile_M(q, 1.0) == pytest.approx(M_NEAR_POLE[q], rel=1e-14)


def test_profile_M_series_route():
    # direct numpy summation of rho^q sum ((q/2)_n/n!)^2 rho^{2n}/(n+1)
    rng = np.random.default_rng(42)
    n = np.arange(0, 4000, dtype=float)
    for _ in range(20):
        q = float(rng.uniform(1.0, 1.95))
        rho = float(rng.uniform(0.05, 0.9))
        log_c = np.cumsum(np.log((n + 0.5 * q) / (n + 1.0)))
        coeff = np.concatenate(([1.0], np.exp(log_c[:-1])))
        series = rho**q * float(np.sum(coeff**2 * rho ** (2 * n) / (n + 1.0)))
        assert abs(series - pf.profile_M(q, rho)) <= 1e-11


def test_profile_N_values():
    for q in (1.0, 1.4, 1.8):
        got = pf.profile_N(q, 0.0, 1e-12)
        assert got.value == pytest.approx(2.0 / (q + 2.0), abs=1e-13)
    got = pf.profile_N(1.0, 1.0, 1e-8)
    alpha = catalan_constant(1e-12).value
    assert abs(got.value - (1.0 + 2.0 * alpha) / math.pi) <= got.tail_bound + 1e-8
    got = pf.profile_N(1.5, 0.7, 1e-11)
    assert abs(got.value - N_32_AT_07) <= got.tail_bound + 1e-11
    with pytest.raises(DomainError):
        pf.profile_N(1.9999999, 1.0, 1e-8)


def test_profile_N_answers_inside_the_disk_past_the_blowup_cutoff():
    # only N(1) = A(p) diverges as q -> 2; the interior series still sums
    q = 1.9999995
    assert q > pf.Q_BLOWUP_CUTOFF
    got = pf.profile_N(q, 0.5, 1e-10)
    assert abs(got.value - N_NEAR_2_AT_05) <= got.tail_bound <= 1e-10
    with pytest.raises(DomainError, match="N\\(1\\) = A\\(p\\) diverges"):
        pf.profile_N(q, 1.0, 1e-10)
    with pytest.raises(DomainError, match="tol must be positive"):
        pf.profile_N(q, 0.5, 0.0)


def test_profile_N_boundary_vs_direct_series():
    # independent oracle: raw partial sums of 2 sum c_n^2/(2n+q+2) at rho=1,
    # Richardson-extrapolated on the known tail exponents q-2 then q-3
    for q, expected in ((1.5, A_AT_3), (4.0 / 3.0, A_AT_4)):
        sizes = [2000, 4000, 8000, 16000]
        n = np.arange(0, sizes[-1], dtype=float)
        log_c = np.cumsum(np.log((n + 0.5 * q) / (n + 1.0)))
        coeff = np.concatenate(([1.0], np.exp(log_c[:-1])))
        terms = 2.0 * coeff**2 / (2.0 * n + q + 2.0)
        csum = np.cumsum(terms)
        vals = [csum[m - 1] for m in sizes]
        for shift in (q - 2.0, q - 3.0):
            r = 2.0**shift
            vals = [(vals[i + 1] - r * vals[i]) / (1.0 - r)
                    for i in range(len(vals) - 1)]
        oracle = vals[-1]
        assert abs(oracle - expected) <= 5e-9
        got = pf.profile_N(q, 1.0, 1e-9)
        assert abs(got.value - oracle) <= got.tail_bound + 1e-8


def test_profile_F_values_and_limit():
    for q in (1.0, 1.25, 1.5, 1.75):
        assert pf.profile_F(q, 0.0) == 1.0
        assert pf.profile_F(q, 1.0) == pytest.approx(F1_LIMIT[q], rel=1e-13)
    assert pf.profile_F(1.2, 0.5) < pf.profile_F(1.2, 0.25)
    with pytest.raises(DomainError):
        pf.profile_F(1.5, -0.1)
    with pytest.raises(DomainError):
        pf.profile_F(2.0, 0.5)


def test_h_coefficients():
    assert pf.h_coefficient(1.0, 0) == pytest.approx(0.5, abs=1e-14)
    assert pf.h_coefficient(1.0, 1) == pytest.approx(0.1875, abs=1e-14)
    assert pf.h_coefficient(1.5, 3) == pytest.approx(0.033473968505859375, rel=1e-12)
    for m in range(201):
        assert pf.h_coefficient(1.5, m) >= 0.0
    with pytest.raises(DomainError):
        pf.h_coefficient(1.5, -1)


def test_h_coefficient_refuses_a_non_integer_index():
    # a_m is defined for integer m only
    for m in (1.5, 3.0, math.nan):
        with pytest.raises(DomainError, match="nonnegative integer"):
            pf.h_coefficient(1.5, m)
    assert pf.h_coefficient(1.5, np.int64(3)) == pf.h_coefficient(1.5, 3)


def test_monotonicity_grids():
    # 100-point grids for each exponent in the standard sample set
    rhos = np.linspace(0.0, 1.0, 100)
    for q in (1.0, 1.25, 1.5, 1.75):
        p = math.inf if q == 1.0 else q / (q - 1.0)
        K = [pf.profile_K(p, float(r)) for r in rhos]
        assert all(K[i] > K[i + 1] for i in range(len(K) - 1))
        M = [pf.profile_M(q, float(r)) for r in rhos]
        assert all(M[i] < M[i + 1] for i in range(len(M) - 1))
        N = [pf.profile_N(q, float(r), 1e-10).value for r in rhos[:-1]]
        N.append(pf.profile_N(q, 1.0, 1e-7).value)
        assert all(N[i] < N[i + 1] for i in range(len(N) - 1))
        F = [pf.profile_F(q, float(t)) for t in rhos]
        assert all(F[i] > F[i + 1] for i in range(len(F) - 1))
        a = [pf.h_coefficient(q, m) for m in range(100)]
        assert all(v >= 0.0 for v in a)
        # the same grids in one call each
        assert (np.diff(pf.profile_K(p, rhos)) < 0.0).all()
        assert (np.diff(pf.profile_M(q, rhos)) > 0.0).all()
        inner = pf.profile_N(q, rhos[:-1], 1e-10).value
        assert (np.diff(np.append(inner, pf.profile_N(q, 1.0, 1e-7).value)) > 0.0).all()
        assert (np.diff(pf.profile_F(q, rhos)) < 0.0).all()


@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.75, 1.9])
def test_grid_calls_equal_lone_calls(q):
    # every entry of a grid is summed exactly as a lone call on it, the
    # closed forms at 0 and 1 included
    rhos = np.linspace(0.0, 1.0, 100)
    p = math.inf if q == 1.0 else q / (q - 1.0)
    for profile, args in (
        (pf.profile_F, (q,)),
        (pf.profile_K, (p,)),
        (pf.profile_M, (q,)),
    ):
        grid = profile(*args, rhos)
        assert isinstance(grid, np.ndarray) and grid.shape == rhos.shape
        lone = [profile(*args, float(r)) for r in rhos]
        assert all(isinstance(v, float) for v in lone)
        assert grid.tolist() == lone
    grid = pf.profile_N(q, rhos, 1e-10)
    lone = [pf.profile_N(q, float(r), 1e-10) for r in rhos]
    assert grid.value.tolist() == [n.value for n in lone]
    assert grid.tail_bound.tolist() == [n.tail_bound for n in lone]
    assert grid.terms_used == max(n.terms_used for n in lone)


def test_grid_calls_check_every_entry():
    with pytest.raises(DomainError, match="1.25"):
        pf.profile_K(3.0, [0.2, 1.25, 0.4])
    with pytest.raises(DomainError):
        pf.profile_M(1.5, np.array([0.1, -0.2]))
    with pytest.raises(DomainError):
        pf.profile_F(1.5, [0.5, math.nan])
    # a rho = 1 entry past the cutoff is refused; the interior alone answers
    q = 1.9999995
    with pytest.raises(DomainError, match="N\\(1\\) = A\\(p\\) diverges"):
        pf.profile_N(q, [0.3, 0.5, 1.0], 1e-10)
    assert pf.profile_N(q, [0.3, 0.5], 1e-10).value[1] == pf.profile_N(q, 0.5, 1e-10).value
    # the lone call refuses at 0.9995, and so does any grid holding it
    with pytest.raises(PrecisionError):
        pf.profile_K(math.inf, 0.9995)
    with pytest.raises(PrecisionError, match=repr(0.9995 * 0.9995)) as exc:
        pf.profile_K(math.inf, [0.2, 0.9995, 0.5])
    assert math.isfinite(exc.value.best.value)


def test_a_p_constant():
    got = pf.a_p_constant(3.0, 1e-9)
    assert abs(got.value - A_AT_3) <= got.tail_bound + 1e-9
    got = pf.a_p_constant(4.0, 1e-9)
    assert abs(got.value - A_AT_4) <= got.tail_bound + 1e-9
    with pytest.raises(DomainError):
        pf.a_p_constant(2.0, 1e-9)


@pytest.mark.parametrize("d", list(A_CALIBRATION), ids=str)
def test_a_p_error_estimate_covers_frozen_reference(d):
    got = pf.a_p_constant(2.0 + d, 1e-12)
    ref = A_CALIBRATION[d]
    assert abs(got.value - ref) <= got.tail_bound <= 1e-12 * max(1.0, got.value)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("p", list(N_SERIES_AT_1), ids=str)
def test_a_p_is_the_n_series_at_unit_argument(p, tol):
    q = pf._conjugate_exponent(p)
    ref = 2.0 / (q + 2.0) * N_SERIES_AT_1[p]
    for got in (pf.a_p_constant(p, tol), pf.profile_N(q, 1.0, tol)):
        assert abs(got.value - ref) <= got.tail_bound <= tol * max(1.0, ref)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("p", list(A_AT_P), ids=str)
def test_a_p_covers_thirty_digit_literals(p, tol):
    got = pf.a_p_constant(p, tol)
    ref = A_AT_P[p]
    assert abs(got.value - ref) <= got.tail_bound <= tol * max(1.0, ref)


def test_a_p_refuses_an_unreachable_tolerance_at_once():
    for p, ref in ((3.0, A_AT_3), *A_AT_P.items()):
        with pytest.raises(PrecisionError, match="unreachable for A\\(p\\)") as exc:
            pf.a_p_constant(p, 1e-17)
        best = exc.value.best
        assert best.terms_used == 4097
        assert abs(best.value - ref) <= best.tail_bound


# every q of the supported range: 2,001 even steps from 1 to the cutoff
BLOCK_QS = np.linspace(1.0, pf.Q_BLOWUP_CUTOFF, 2001)


def test_a_p_is_one_block_for_every_supported_q():
    # the block's bound is at most 1.24e-13 max(1, A), largest at q = 1
    # (p = inf), so the catalog's 1e-12 never needs a second block
    # p = q/(q-1) at the cutoff rounds back to a q past it; 2.0000011 stands in
    ps = [math.inf] + [q / (q - 1.0) for q in BLOCK_QS[1:-1]] + [2.0000011]
    results = [pf.profile_N(float(q), 1.0, 1e-12) for q in BLOCK_QS]
    results += [pf.a_p_constant(p, 1e-12) for p in ps]
    for got in results:
        assert got.terms_used == 4097
        assert got.tail_bound <= 1.3e-13 * max(1.0, got.value)


@pytest.mark.parametrize(
    "p, tol", [(1e6, 1e-13), (math.inf, 1e-13)] + [(p, 1e-17) for p in A_AT_P], ids=str
)
def test_a_p_below_the_block_bound_refuses_after_one_block(p, tol):
    q = pf._conjugate_exponent(p)
    for call in (lambda: pf.a_p_constant(p, tol), lambda: pf.profile_N(q, [0.5, 1.0], tol)):
        with pytest.raises(PrecisionError, match="after 4097 terms") as exc:
            call()
        best = exc.value.best
        assert best.terms_used == 4097
        assert abs(best.value - A_AT_P[p]) <= best.tail_bound


def test_a_p_limit_is_the_catalan_constant_value():
    alpha = catalan_constant(1e-12).value
    got = pf.a_p_constant(1e6, 1e-8)
    assert abs(got.value - (1.0 + 2.0 * alpha) / math.pi) <= 1e-4


def test_a_p_zeta_ceiling_dominates():
    for p in (2.5, 3.0, 4.0, 10.0):
        a = pf.a_p_constant(p, 1e-8)
        assert a.value + a.tail_bound < pf.a_p_upper_bound(p)


def test_conjugate_exponent_exact_at_infinity():
    assert pf._conjugate_exponent(math.inf) == 1.0
    assert pf._conjugate_exponent(2.0) == 2.0


def test_profiles_match_defining_disk_integrals():
    # each profile against direct quadrature of the integral it reduces
    from disknorms.quadrature import DiskRule, Mobius, integrate_disk, \
        integrate_disk_singular

    q = 1.5
    p = q / (q - 1.0)
    points = (0.1, 0.3, 0.45, 0.6, 0.75)
    for rho in points:
        rule = DiskRule(96, 128, Mobius())
        got = integrate_disk_singular(np.ones_like, rho, q, rule)
        assert abs(got.value - pf.profile_K(p, rho)) <= 1e-5

        smooth = DiskRule(64, 128)
        got = integrate_disk(
            lambda w: (rho / np.abs(1.0 - np.conj(w) * rho)) ** q, smooth
        )
        assert abs(got.value - pf.profile_M(q, rho)) <= 1e-5

        got = integrate_disk(
            lambda w: (np.abs(w) / np.abs(1.0 - np.conj(w) * rho)) ** q, smooth
        )
        assert abs(got.value - pf.profile_N(q, rho, 1e-10).value) <= 1e-5

        t = rho * rho
        rule = DiskRule(96, 128, Mobius())
        got = integrate_disk_singular(np.ones_like, rho, q, rule)
        assert abs(0.5 * (2.0 - q) * got.value - pf.profile_F(q, t)) <= 1e-5
