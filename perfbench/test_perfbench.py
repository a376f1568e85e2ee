"""Tests of the benchmark's own references, inputs and bookkeeping.

    python3 -m pytest perfbench

They check the references against independent routes (a second mpmath
formula, published literals, a quadrature rule written here), so that a
benchmark verdict of "wrong" points at the package and not at the reference.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import reference as ref
import run
import workloads
from make_reference import EXTRA_P, GRID_DECADES, GRID_PER_DECADE, a_p_thomae, grid_p

HERE = os.path.dirname(os.path.abspath(__file__))


def test_thomae_form_agrees_with_direct_3f2():
    for p in (3.0, 1000.0):
        with mp.workdps(20):
            q = mp.mpf(p) / (p - 1)
            direct = 2 / (q + 2) * mp.hyp3f2(q / 2, q / 2, 1 + q / 2, 1, 2 + q / 2, 1)
            assert abs(a_p_thomae(p, 20) - direct) < 1e-15 * direct


def test_committed_a_p_grid_recomputes_and_is_monotone():
    for p in (grid_p(0), grid_p(200)):
        assert abs(a_p_thomae(p, 20) - ref.a_p(p)) < 1e-15 * ref.a_p(p)
    values = [ref.a_p(grid_p(k)) for k in range(201)]
    assert all(a > b for a, b in zip(values, values[1:]))
    limit = (1 + 2 * mp.catalan) / mp.pi
    assert 0 < values[-1] - limit < 1e-3
    assert all(ref.a_p(p) > 0 for p in EXTRA_P)


def test_catalog_references_match_published_literals():
    assert ref.norm_expected("cauchy", 4.0, "linf")["value"] == pytest.approx(2.279507057, rel=1e-9)
    assert ref.norm_expected("cauchy", 3.0, "linf")["value"] == pytest.approx(2.5198420998, rel=1e-10)
    assert ref.riesz_thorin_expected(math.inf)["value"] == pytest.approx(0.9014316942, rel=1e-10)
    assert ref.riesz_thorin_expected(1.25) == {
        "outcome": "answered", "kind": "UPPER_BOUND", "value": pytest.approx(1.006329194, rel=1e-9)}
    assert ref.norm_expected("cauchy", 2.0, "same")["value"] == pytest.approx(2 / 2.4048255576957727686)
    p = 3.0
    a, b = (p - 2) / (p - 1), (3 * p - 4) / (2 * p - 2)
    gamma_form = math.exp((1 - 1 / p) * (math.lgamma(a) - 2 * math.lgamma(b)))
    assert ref.norm_expected("j0", p, "linf")["value"] == pytest.approx(gamma_form, rel=1e-14)


@pytest.mark.parametrize("op,p,target", [
    ("bergman", 3.0, "same"), ("bergman", math.inf, "same"), ("bergman", 5.0, "linf"),
    ("cdelta", 5.0, "linf"), ("j0", 3.0, "same"), ("j0star", 2.0, "linf"), ("cauchy", 0.5, "same"),
])
def test_designed_refusals(op, p, target):
    assert ref.norm_expected(op, p, target) == {"outcome": "refused"}


def _polar_image(op, a, b, z, nr=48, na=256):
    """Operator image of w^a conj(w)^b by a polar rule centred at z.

    In coordinates w = z + rho e^{i phi} the area element rho cancels the
    Cauchy kernel's 1/|w - z|, so every integrand here is smooth.
    """
    x, wx = np.polynomial.legendre.leggauss(nr)
    phi = 2 * np.pi * np.arange(na) / na
    e = np.exp(1j * phi)
    c = (np.conj(z) * e).real
    rho_max = -c + np.sqrt(c * c + 1 - abs(z) ** 2)
    rho = 0.5 * (x[:, None] + 1) * rho_max[None, :]
    weight = 0.5 * wx[:, None] * rho_max[None, :] * rho * (2 / na)  # dA = rho drho dphi / pi
    w = z + rho * e[None, :]
    wc = np.conj(w)
    kernels = {
        "bergman": 1 / (1 - wc * z) ** 2,
        "j0": z / (1 - wc * z),
        "j0star": wc / (1 - wc * z),
        "cauchy": 1 / (w - z),
        "cdelta": 1 / (z - w) + wc / (1 - wc * z),
    }
    return complex(np.sum(weight * w**a * wc**b * kernels[op]))


@pytest.mark.parametrize("op", workloads.OPS)
def test_closed_form_images_match_independent_quadrature(op):
    for z in (0.5 * np.exp(0.7j), 0.3 - 0.2j):
        for a, b in ((0, 0), (2, 1), (1, 2), (3, 0), (0, 4), (2, 2)):
            assert abs(ref.monomial_image(op, a, b, z) - _polar_image(op, a, b, z)) < 1e-12


def test_catalog_inputs_are_seeded_distinct_and_covering():
    items = workloads.catalog_inputs(7)
    assert items == workloads.catalog_inputs(7)
    assert items != workloads.catalog_inputs(8)
    assert workloads.repeat_share(items) == 0.0
    queries = [i for i in items if i["kind"] != "table"]
    assert len(queries) >= 100
    norms = [i for i in queries if i["kind"] == "norm"]
    assert {(i["op"], i["target"]) for i in norms} == {(op, t) for op in workloads.OPS for t in ("same", "linf")}
    assert {1.0, 2.0, math.inf} <= {i["p"] for i in norms}
    assert sorted(i["argv"][1] for i in items if i["kind"] == "table") == [
        "interpolation", "lp_linf_curves", "profiles"]
    near2 = [i for i in norms if i["op"] == "j0star" and i["target"] == "linf" and "grid" in i]
    per_decade = [sum(d * 40 <= i["grid"] < (d + 1) * 40 for i in near2) for d in range(5)]
    assert per_decade == [workloads.J0STAR_PER_DECADE] * 5
    assert all(i["p"] in ref.a_p_table() for i in near2)
    levels = workloads.a_p_levels()
    assert not any(levels[i["grid"]] in workloads.STRADDLING_LEVELS for i in near2)


def test_committed_levels_cover_the_grid_and_the_straddling_levels():
    levels = workloads.a_p_levels()
    assert len(levels) == GRID_DECADES * GRID_PER_DECADE + 1
    assert all(t is None or t & (t - 1) == 0 for t in levels)
    assert {t for t in levels if t in workloads.STRADDLING_LEVELS} == set(workloads.STRADDLING_LEVELS)


def test_fields_inputs_cover_every_operator_on_the_radius_ladder():
    items = workloads.fields_inputs(3)
    assert items == workloads.fields_inputs(3)
    assert len(items) == len(workloads.OPS) * len(workloads.FIELD_RADII) * workloads.FIELD_POINTS_PER_RADIUS
    assert workloads.repeat_share(items) == 0.0
    for op in workloads.OPS:
        for radius in workloads.FIELD_RADII:
            points = [i for i in items if i["op"] == op and i["radius"] == radius]
            assert len(points) == workloads.FIELD_POINTS_PER_RADIUS
            assert all(abs(abs(complex(*i["z"])) - radius) < 1e-15 for i in points)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_judge_outcome_classes():
    q = {"kind": "norm", "op": "j0star", "p": 3.0, "target": "linf"}
    exp = {"outcome": "answered", "kind": "EXACT_NORM", "value": 1.0}
    good = {"outcome": "answered", "kind": "EXACT_NORM", "value": 1.0 + 1e-12, "estimate": 1e-13}
    assert run.judge("catalog", q, exp, good) == [("answered", False, False, True)]
    assert run.judge("catalog", q, exp, {"outcome": "late"}) == [("late", True, False, None)]
    inf_exact = dict(good, value=math.inf)
    assert run.judge("catalog", q, exp, inf_exact)[0][2]
    refusal = {"outcome": "refused"}
    assert run.judge("catalog", q, refusal, {"outcome": "refused"}) == [("refused", False, False, None)]
    assert run.judge("catalog", q, refusal, good)[0][:3] == ("answered", True, True)


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_worker_pass_records_every_layer(tmp_path):
    items = [
        {"kind": "norm", "op": "j0star", "p": 12.0, "target": "linf"},
        {"kind": "norm", "op": "bergman", "p": 3.0, "target": "same"},
        {"kind": "table", "argv": ["table", "profiles", "--p", "3"]},
    ]
    spec = {"workload": "catalog", "inputs": items, "traced": True, "deadline_s": 5.0,
            "scratch": str(tmp_path)}
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(spec_path), str(result_path)],
                   env=env, check=True, timeout=120)
    result = json.loads(result_path.read_text())
    assert [r["outcome"] for r in result["records"]] == ["answered", "refused", "answered"]
    layers = result["layers"]
    assert layers["norms.closed_form_norm.linf"]["calls"] == 1
    assert layers["norms.closed_form_norm.same"]["calls"] == 1
    assert layers["specfun.hyp_pfq.unit"]["terms"] > 0
    assert layers["specfun.hyp_pfq.interior"]["calls"] > 0
    assert layers["cli.main"]["calls"] == 1
    assert all(v["self_s"] <= v["total_s"] + 1e-9 for v in layers.values())
