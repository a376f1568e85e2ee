"""Golden rows for every catalog entry and every refusal.

Each row pins the value and the error estimate printed to 10 significant
digits (the CLI's format), the kind tag, and the full provenance or refusal
text, so any change to what the catalog serves shows up here.
"""

import math

import pytest

from disknorms.errors import UnsupportedQueryError
from disknorms.norms import NormQuery, closed_form_norm, riesz_thorin_bound

INF = math.inf

_CAUCHY_INTERIOR = (
    "interpolation upper bound between the exact {} norms (Bessel-zero endpoints); "
    "the exact p-norm is an open problem"
)
_CDELTA_INTERIOR = (
    "interpolation upper bound for the combined Dirichlet transform, exact only at the "
    "attained endpoints p in {1, 2, infinity}"
)
_J0STAR_INTERIOR = (
    "smaller of the interpolation bound and the direct kernel-mass bound "
    "4^(1/p) (1+2*Catalan)^(1-1/p) / pi (interpolation bound wins here)"
)
_J0STAR_P_TO_SUP = (
    "exact p-to-sup norm A(p)^(1-1/p) with A(p) the boundary value of the weighted kernel profile"
)
_J0_REFUSAL = (
    "no proven p-to-p value for the analytic-kernel operator at finite p; "
    "only its sup norm 4/pi is in the catalog"
)

# (operator, p, target, value, error_estimate, kind, provenance or refusal text);
# value, error_estimate and kind are None for a refusal.
CATALOG_ROWS = [
    ("cauchy", 1.0, "same", "2", "0", "EXACT_NORM", "exact L1 norm 2"),
    ("cauchy", 1.5, "same", "1.114228535", "1.979267479e-15", "UPPER_BOUND",
     _CAUCHY_INTERIOR.format("L1 and L2")),
    ("cauchy", 2.0, "same", "0.8316611546", "1.776356839e-15", "EXACT_NORM",
     "exact L2 norm 2/j0 via the smallest positive zero of the order-zero Bessel function"),
    ("cauchy", 3.0, "same", "1.114228535", "1.979267479e-15", "UPPER_BOUND",
     _CAUCHY_INTERIOR.format("L2 and sup")),
    ("cauchy", INF, "same", "2", "0", "EXACT_NORM",
     "exact sup norm 2; coincides with the sup-to-sup kernel-mass value"),
    ("cdelta", 1.0, "same", "2", "0", "EXACT_NORM",
     "attained endpoint norm 2 of the combined Dirichlet transform"),
    ("cdelta", 1.5, "same", "1.114228535", "1.979267479e-15", "UPPER_BOUND", _CDELTA_INTERIOR),
    ("cdelta", 2.0, "same", "0.8316611546", "1.776356839e-15", "EXACT_NORM",
     "attained endpoint norm 2/j0 of the combined Dirichlet transform"),
    ("cdelta", 3.0, "same", "0.9733682816", "1.729049404e-15", "UPPER_BOUND", _CDELTA_INTERIOR),
    ("cdelta", INF, "same", "1.333333333", "2.220446049e-16", "EXACT_NORM",
     "attained endpoint norm 4/3 of the combined Dirichlet transform"),
    ("j0star", 1.0, "same", "1.273239545", "4.440892099e-16", "EXACT_NORM",
     "exact L1 norm 4/pi, dual to the companion operator's sup norm"),
    ("j0star", 1.5, "same", "0.8602540138", "1.528118101e-15", "UPPER_BOUND", _J0STAR_INTERIOR),
    ("j0star", 2.0, "same", "0.7071067812", "2.220446049e-16", "EXACT_NORM",
     "exact L2 norm sqrt(1/2): best angular-mode constant 1/(d(d+1)) at d=1"),
    ("j0star", 3.0, "same", "0.7667155582", "1.361960426e-15", "UPPER_BOUND", _J0STAR_INTERIOR),
    ("j0star", INF, "same", "0.9014316942", "1.237026882e-14", "EXACT_NORM",
     "exact sup norm (1+2*Catalan)/pi"),
    ("j0", 1.5, "same", None, None, None, _J0_REFUSAL),
    ("j0", 3.0, "same", None, None, None, _J0_REFUSAL),
    ("j0", INF, "same", "1.273239545", "4.440892099e-16", "EXACT_NORM",
     "exact sup norm 4/pi (sup-to-sup kernel mass at the boundary)"),
    ("bergman", 2.0, "same", None, None, None, "no p-to-p entry for operator 'bergman'"),
    ("cauchy", 3.0, "linf", "2.5198421", "2.238069374e-15", "EXACT_NORM",
     "exact p-to-sup norm ((2p-2)/(p-2))^(1-1/p), attained in the limit by unit densities "
     "concentrating at the center"),
    ("cauchy", INF, "linf", "2", "0", "EXACT_NORM",
     "exact sup-to-sup norm: the absolute-kernel mass peaks at the center with value 2"),
    ("j0", 3.0, "linf", "1.669636176", "5.93173928e-15", "EXACT_NORM",
     "exact p-to-sup norm: gamma-quotient form of the boundary kernel-profile limit, power 1-1/p"),
    ("j0", INF, "linf", "1.273239545", "4.440892099e-16", "EXACT_NORM",
     "exact sup-to-sup norm 4/pi, the boundary limit of the kernel mass"),
    # p = 2.01, 2.05, 2.2: A(p) from mpmath (30 digits, Thomae's form)
    ("j0star", 2.01, "linf", "10.11607854", "9.180410493e-14", "EXACT_NORM", _J0STAR_P_TO_SUP),
    ("j0star", 2.05, "linf", "4.647868", "4.366940368e-14", "EXACT_NORM", _J0STAR_P_TO_SUP),
    ("j0star", 2.2, "linf", "2.469652903", "2.59396004e-14", "EXACT_NORM", _J0STAR_P_TO_SUP),
    ("j0star", 3.0, "linf", "1.354396422", "2.230837421e-14", "EXACT_NORM", _J0STAR_P_TO_SUP),
    ("j0star", INF, "linf", "0.9014316942", "1.237026882e-14", "EXACT_NORM",
     "exact sup-to-sup norm (1+2*Catalan)/pi, the boundary limit of the |w|-weighted kernel mass"),
    ("cdelta", 3.0, "linf", None, None, None,
     "no p-to-sup entry for operator 'cdelta'; the catalog covers cauchy, j0 and j0star only"),
    ("bergman", 3.0, "linf", None, None, None,
     "operator 'bergman' is unbounded from L^p to L^infinity for every p > 2: "
     "||K_z||_q >= ||K_z||_1 = log(1/(1 - |z|^2))/|z|^2, which grows without bound"),
]

# (p, value, error_estimate, kind, provenance) of riesz_thorin_bound
RIESZ_THORIN_ROWS = [
    (1.0, "1.273239545", "4.440892099e-16", "EXACT_NORM",
     "interpolation endpoint: exact L1 norm 4/pi, dual to the companion operator's sup norm"),
    (1.5, "0.8602540138", "1.528118101e-15", "UPPER_BOUND",
     "Riesz-Thorin interpolation between the exact (L1, L2) endpoint norms"),
    (2.0, "0.7071067812", "2.220446049e-16", "EXACT_NORM",
     "interpolation endpoint: exact L2 norm sqrt(1/2): best angular-mode constant 1/(d(d+1)) at d=1"),
    (3.0, "0.7667155582", "1.361960426e-15", "UPPER_BOUND",
     "Riesz-Thorin interpolation between the exact (L2, sup) endpoint norms"),
    (INF, "0.9014316942", "1.237026882e-14", "EXACT_NORM",
     "interpolation endpoint: exact sup norm (1+2*Catalan)/pi"),
]


def _digits(x):
    return format(x, ".10g")


@pytest.mark.parametrize(
    "op,p,target,value,error,kind,text",
    CATALOG_ROWS,
    ids=[f"{r[0]}-{r[1]:g}-{r[2]}" for r in CATALOG_ROWS],
)
def test_catalog_row(op, p, target, value, error, kind, text):
    query = NormQuery(op, p, target)
    if kind is None:
        with pytest.raises(UnsupportedQueryError) as exc:
            closed_form_norm(query)
        assert str(exc.value) == text
        return
    r = closed_form_norm(query)
    assert (_digits(r.value), _digits(r.error_estimate), r.kind.value, r.provenance) == (
        value, error, kind, text)


@pytest.mark.parametrize(
    "p,value,error,kind,text", RIESZ_THORIN_ROWS, ids=[f"{r[0]:g}" for r in RIESZ_THORIN_ROWS]
)
def test_riesz_thorin_row(p, value, error, kind, text):
    r = riesz_thorin_bound(p)
    assert (_digits(r.value), _digits(r.error_estimate), r.kind.value, r.provenance) == (
        value, error, kind, text)
