"""Independent references for every output the benchmark checks.

Nothing here imports the package.  The catalog references restate what is
known about each operator (its exact endpoint norms, the Riesz-Thorin
interpolation between them, the closed p-to-sup forms and the designed
refusals) and evaluate it with mpmath at 30 digits.  A(p) comes from the
committed Thomae-form grid written by make_reference.py.  Operator images of
polynomial fields are the closed forms of the five kernels on monomials.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import mpmath as mp

from make_reference import A_P_FILE, DPS, VERIFY_SNAPSHOT

INF = math.inf

# An answer further than this (relative) from its reference is wrong, not
# merely under-estimated; estimate misses are judged against the answer's
# own error estimate instead.
VALUE_RTOL = 1e-8
# Tables print 10 significant digits.
TABLE_RTOL = 2e-9
# Closed-form images are exact; apply is a quadrature rule.
FIELD_ATOL = 1e-8


@lru_cache(maxsize=1)
def a_p_table() -> dict:
    with open(A_P_FILE) as handle:
        payload = json.load(handle)
    return {float(p): mp.mpf(value) for p, value in payload["values"]}


@lru_cache(maxsize=1)
def _constants():
    with mp.workdps(DPS):
        j0 = mp.besseljzero(0, 1)
        return {
            "4/pi": 4 / mp.pi,
            "sqrt(1/2)": mp.sqrt(mp.mpf(1) / 2),
            "catalan_mass": (1 + 2 * mp.catalan) / mp.pi,
            "2/j0": 2 / j0,
        }


def _interpolate(p, endpoints):
    """Riesz-Thorin: log-convex interpolation of the norms at two exponents."""
    (p0, n0), (p1, n1) = endpoints
    inv = lambda x: 0 if x == INF else mp.mpf(1) / x  # noqa: E731
    theta = (inv(p0) - inv(p)) / (inv(p0) - inv(p1))
    return n0 ** (1 - theta) * n1**theta


def _same_p_endpoints(op):
    c = _constants()
    return {
        "cauchy": {1.0: 2, 2.0: c["2/j0"], INF: 2},
        "cdelta": {1.0: 2, 2.0: c["2/j0"], INF: mp.mpf(4) / 3},
        "j0star": {1.0: c["4/pi"], 2.0: c["sqrt(1/2)"], INF: c["catalan_mass"]},
        "j0": {INF: c["4/pi"]},
    }.get(op, {})


def _interpolation_bound(p, ends):
    pair = ((1.0, ends[1.0]), (2.0, ends[2.0])) if p < 2 else ((2.0, ends[2.0]), (INF, ends[INF]))
    return _interpolate(mp.mpf(p), pair)


def a_p(p: float):
    """A(p) = N_q(1) from the committed Thomae-form grid."""
    try:
        return a_p_table()[p]
    except KeyError:
        raise KeyError(f"no committed A(p) reference for p = {p!r}") from None


def _linf(op, p):
    c = _constants()
    if op == "cauchy":
        return 2 if p == INF else ((2 * p - 2) / (p - 2)) ** (1 - 1 / p)
    if op == "j0":
        if p == INF:
            return c["4/pi"]
        q = p / (p - 1)
        # boundary energy M_q(1) = 2F1(q/2, q/2; 2; 1) by Gauss summation
        return mp.hyp2f1(q / 2, q / 2, 2, 1) ** (1 - 1 / p)
    if p == INF:
        return c["catalan_mass"]
    return a_p(p) ** (1 - 1 / p)


def norm_expected(op: str, p: float, target: str) -> dict:
    """Expected outcome of closed_form_norm(NormQuery(op, p, target))."""
    if p < 1 or (target == "linf" and not p > 2):
        return {"outcome": "refused"}
    with mp.workdps(DPS):
        if target == "linf":
            if op in ("bergman", "cdelta"):
                return {"outcome": "refused"}
            mpp = p if p == INF else mp.mpf(p)
            return {"outcome": "answered", "kind": "EXACT_NORM", "value": float(_linf(op, mpp))}
        ends = _same_p_endpoints(op)
        if p in ends:
            return {"outcome": "answered", "kind": "EXACT_NORM", "value": float(ends[p])}
        if op in ("bergman", "j0"):
            return {"outcome": "refused"}
        value = _interpolation_bound(p, ends)
        if op == "j0star":
            # the direct kernel-mass bound interpolates L1 against sup
            direct = _interpolate(mp.mpf(p), ((1.0, ends[1.0]), (INF, ends[INF])))
            value = min(value, direct)
        return {"outcome": "answered", "kind": "UPPER_BOUND", "value": float(value)}


def riesz_thorin_expected(p: float) -> dict:
    with mp.workdps(DPS):
        ends = _same_p_endpoints("j0star")
        if p in ends:
            return {"outcome": "answered", "kind": "EXACT_NORM", "value": float(ends[p])}
        return {"outcome": "answered", "kind": "UPPER_BOUND", "value": float(_interpolation_bound(p, ends))}


def _profile_rows(p: float):
    """rho, K, M, N rows of `table profiles --p P` by mpmath hypergeometrics."""
    rows = []
    with mp.workdps(20):
        p = mp.mpf(p)
        q = p / (p - 1)
        for i in range(20):
            rho = mp.mpf(i) / 20
            t = rho**2
            f = (1 - t) ** (2 - q) * mp.hyp2f1(1 - q / 2, 2 - q / 2, 1, t)
            k = 2 * f / (2 - q)
            m = rho**q * mp.hyp2f1(q / 2, q / 2, 2, t)
            n = 2 / (q + 2) * mp.hyp3f2(q / 2, q / 2, 1 + q / 2, 1, 2 + q / 2, t)
            rows.append([float(rho), float(k), float(m), float(n)])
    return rows


def table_expected(argv: list[str]) -> list[list]:
    """Expected CSV rows (header excluded) of one `table` command."""
    kind = argv[1]
    if kind == "interpolation":
        grid = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, INF)
        return [[p, r["value"], r["kind"]] for p in grid for r in [riesz_thorin_expected(p)]]
    if kind == "lp_linf_curves":
        op = argv[argv.index("--op") + 1]
        grid = (2.5, 3.0, 4.0, 6.0, 10.0, INF)
        return [[p, r["value"], r["kind"]] for p in grid for r in [norm_expected(op, p, "linf")]]
    if kind == "profiles":
        return _profile_rows(float(argv[argv.index("--p") + 1]))
    raise ValueError(f"no reference for table {kind!r}")


def catalog_expected(items: list[dict]) -> list[dict]:
    out = []
    for item in items:
        if item["kind"] == "norm":
            out.append(norm_expected(item["op"], item["p"], item["target"]))
        elif item["kind"] == "riesz_thorin":
            out.append(riesz_thorin_expected(item["p"]))
        else:
            out.append({"outcome": "answered", "rows": table_expected(item["argv"])})
    return out


def monomial_image(op: str, a: int, b: int, z: complex) -> complex:
    """Closed-form image of w^a conj(w)^b under op, at z."""
    zc = z.conjugate()
    if op == "j0star":
        return z ** (a - b - 1) / (a + 1) if a >= b + 1 else 0j
    if op == "bergman":
        return (a - b + 1) * z ** (a - b) / (a + 1) if a >= b else 0j
    if op == "j0":
        return z ** (a - b + 1) / (a + 1) if a >= b else 0j
    if op == "cauchy":
        head = z ** (a - b - 1) / (b + 1) if a > b else 0j
        return head - z**a * zc ** (b + 1) / (b + 1)
    if op == "cdelta":
        return monomial_image("j0star", a, b, z) - monomial_image("cauchy", a, b, z)
    raise ValueError(f"unknown operator {op!r}")


def field_expected(item: dict) -> complex:
    z = complex(*item["z"])
    return sum(
        complex(re, im) * monomial_image(item["op"], a, b, z) for a, b, re, im in item["coeffs"]
    )


def verify_snapshot() -> list[list[str]]:
    with open(VERIFY_SNAPSHOT, newline="") as handle:
        return list(csv.reader(handle))[1:]


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]
