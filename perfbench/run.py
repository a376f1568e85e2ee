"""The disknorms benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The package is imported from
./src; nothing is installed.  Each pass of the workload runs in a fresh
worker process (worker.py), one after another: a single closed-loop caller
whose next operation starts when the previous one returns.  Passes repeat
until --seconds is used up, and every output of every pass is checked
against the independent references in reference.py, computed before the
first pass starts.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, plus the tracing
overhead (traced over untraced wall time).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Full
per-run detail, with provenance, goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import reference as ref
from workloads import (
    CATALOG_DEADLINE_S,
    FIELD_RADII,
    OPS,
    WORKLOADS,
    expected_status,
    inputs_hash,
    make_inputs,
    repeat_share,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

# every worker is killed once the whole run has taken this long
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUITES = ("specfun", "profiles", "operators", "norms", "counterexamples")
RADII = tuple(repr(r) for r in FIELD_RADII)
# set-up is timed in every pass's worker and in this many set-up-only workers
SETUP_ONLY_WORKERS = 5

# name -> unit; the order is the order printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed in every run's report but not bounded: on catalog the median
# operation is a pure-Python A(p) series whose time follows the host's speed
# phases (up to 1.6x for minutes), so its spread over ten runs reached 0.5.
REPORTED = {"op_p50_ms": "ms"}


def _per_layer_units() -> dict:
    units = {}
    for where in ("unit", "interior"):
        for what, unit in (("calls", "count"), ("terms", "count"), ("self_s", "s")):
            units[f"specfun.hyp_pfq.{where}.{what}"] = unit
    units["specfun.precision_errors"] = "count"
    for fn in ("a_p_constant", "profile_K", "profile_M", "profile_N", "profile_F"):
        units[f"profiles.{fn}.calls"] = "count"
        units[f"profiles.{fn}.self_s"] = "s"
    for span in ("integrate_disk", "integrate_disk_singular.mobius",
                 "integrate_disk_singular.annulus", "truncated_singular_integral"):
        units[f"quadrature.{span}.calls"] = "count"
        units[f"quadrature.{span}.self_s"] = "s"
    units["quadrature.field_calls"] = "count"
    units["quadrature.field_nodes"] = "count"
    units["quadrature.useful_node_frac"] = "frac"
    for op in OPS:
        units[f"operators.apply.{op}.calls"] = "count"
        units[f"operators.apply.{op}.self_s"] = "s"
    for radius in RADII:
        units[f"operators.apply.r{radius}.p50_ms"] = "ms"
    units["operators.apply.edge_ratio"] = "ratio"
    units["operators.adjoint_pairing_residual.calls"] = "count"
    units["operators.adjoint_pairing_residual.self_s"] = "s"
    units["operators.adjoint_pairing_residual.kernel_entries"] = "count"
    units["operators.dbar_identity_residual.calls"] = "count"
    units["operators.dbar_identity_residual.self_s"] = "s"
    for target in ("same", "linf"):
        units[f"norms.closed_form_norm.{target}.calls"] = "count"
        units[f"norms.closed_form_norm.{target}.self_s"] = "s"
    for fn in ("riesz_thorin_bound", "lower_bound_via_extremal", "divergence_slope",
               "counterexample_l2_mass", "mode_rayleigh_maximum"):
        units[f"norms.{fn}.self_s"] = "s"
    for suite in SUITES:
        units[f"verify.{suite}.s"] = "s"
        units[f"verify.{suite}.rows"] = "count"
        units[f"verify.{suite}.failed"] = "count"
    units["verify.csv_changed_rows"] = "count"
    units["cli.main.self_s"] = "s"
    units["op_p50_ms"] = "ms"
    units["fail_frac"] = "frac"
    units["estimate_miss_frac"] = "frac"
    units["outcomes.answered"] = "count"
    units["outcomes.error"] = "count"
    units["outcomes.late"] = "count"
    units["outcomes.flips"] = "count"
    units["inputs.repeat_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER = _per_layer_units()


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def provenance(seed, inputs, numpy_version) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "inputs_sha256": inputs_hash(inputs),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "cpu": cpu,
    }


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.inputs = make_inputs(workload, seed)
        self.out_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        for var in BLAS_VARS:
            self.env[var] = BLAS_THREADS
        self.n_passes = 0
        self.started = perf_counter()

    def spawn(self, traced, inputs=None, workload=None):
        """One pass in a fresh worker; returns its result dict."""
        self.n_passes += 1
        tag = f"pass{self.n_passes:02d}"
        spec_path = os.path.join(self.out_dir, tag + ".spec.json")
        result_path = os.path.join(self.out_dir, tag + ".json")
        scratch = os.path.join(self.out_dir, tag)
        os.makedirs(scratch)
        with open(spec_path, "w") as handle:
            json.dump({
                "workload": workload or self.workload,
                "inputs": self.inputs if inputs is None else inputs,
                "traced": traced,
                "deadline_s": CATALOG_DEADLINE_S,
                "scratch": scratch,
            }, handle)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            env=self.env, cwd=ROOT, timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - self.started)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result_path) as handle:
            result = json.load(handle)
        result["traced"] = traced
        return result

    def run_passes(self):
        """Set-up-only workers, then untraced (and, with --trace 1, traced) passes until time is up."""
        cycle = (False, True) if self.trace else (False,)
        start = perf_counter()
        setups = [self.spawn(False, workload="setup")["setup_s"] for _ in range(SETUP_ONLY_WORKERS)]
        passes, cycle_s = [], []
        while True:
            t0 = perf_counter()
            passes.extend(self.spawn(traced) for traced in cycle)
            cycle_s.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(cycle_s) > self.seconds:
                return passes, setups


# ---------------------------------------------------------------------------
# judging outputs against the references


def judge(workload, inputs, expected, record):
    """Per-operation verdicts: a list of (class, failed, wrong, estimate_miss)."""
    cls = record["outcome"]
    if workload == "verify_all":
        rows = ref.parse_csv(record["text"])
        labels = [r[0] for r in rows]
        if labels != [r[0] for r in expected]:
            return [("rows-mismatch", True, True, None)]
        return [(r[4], r[4] != expected_status(r[0]), False, None) for r in rows]
    if workload == "fields":
        if cls != "answered":
            return [(cls, True, False, None)]
        value = complex(*record["value"])
        err = abs(value - expected)
        scale = 1.0 + sum(math.hypot(re, im) for _, _, re, im in inputs["coeffs"])
        wrong = not err <= ref.FIELD_ATOL * scale
        return [(cls, wrong, wrong, err > record["estimate"])]
    # catalog
    if expected["outcome"] == "refused":
        return [(cls, cls != "refused", cls == "answered", None)]
    if cls != "answered":
        return [(cls, True, cls == "refused", None)]
    if "rows" in expected:
        got = ref.parse_csv(record["text"])
        wrong = len(got) != len(expected["rows"]) or any(
            not _row_matches(g, e) for g, e in zip(got, expected["rows"])
        )
        return [(cls, wrong, wrong, None)]
    value, want = record["value"], expected["value"]
    err = abs(value - want)
    wrong = (
        record["kind"] != expected["kind"]
        or not math.isfinite(value)
        or not err <= ref.VALUE_RTOL * max(1.0, abs(want))
    )
    return [(cls, wrong, wrong, err > record["estimate"])]


def _row_matches(got, want):
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if isinstance(w, str):
            if g != w:
                return False
        elif float(g) != w and not abs(float(g) - w) <= ref.TABLE_RTOL * max(1.0, abs(w)):
            return False
    return True


def references(workload, inputs):
    if workload == "catalog":
        return ref.catalog_expected(inputs)
    if workload == "fields":
        return [ref.field_expected(item) for item in inputs]
    return [ref.verify_snapshot()]


# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setups):
    samples = [rec["ms"] for p in passes for rec in p["records"]]
    value, pct, n = tail(samples)
    setups = setups + [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": value,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers",
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"n={n}, not bounded",
        "op_tail_ms": f"p{pct:.2f} of n={n}" + (", 10 beyond" if pct < 100 else ", the maximum"),
        "peak_rss_mb": f"median of {len(passes)} workers",
    }
    return metrics, notes


def per_layer(bench, untraced, traced, verdict_totals, snapshot_changed, flips):
    metrics = dict.fromkeys(PER_LAYER, 0.0)

    def layer_median(name, key):
        return _median([p["layers"].get(name, {}).get(key, 0) for p in traced])

    for where in ("unit", "interior"):
        name = f"specfun.hyp_pfq.{where}"
        for key in ("calls", "terms", "self_s"):
            metrics[f"{name}.{key}"] = layer_median(name, key)
    metrics["specfun.precision_errors"] = sum(
        layer_median(f"specfun.hyp_pfq.{w}", "raised.PrecisionError") for w in ("unit", "interior")
    )
    simple = [f"profiles.{fn}" for fn in ("a_p_constant", "profile_K", "profile_M", "profile_N", "profile_F")]
    simple += [f"quadrature.{s}" for s in ("integrate_disk", "integrate_disk_singular.mobius",
                                            "integrate_disk_singular.annulus",
                                            "truncated_singular_integral")]
    simple += [f"operators.apply.{op}" for op in OPS]
    simple += ["operators.adjoint_pairing_residual", "operators.dbar_identity_residual"]
    simple += [f"norms.closed_form_norm.{t}" for t in ("same", "linf")]
    for name in simple:
        metrics[f"{name}.calls"] = layer_median(name, "calls")
        metrics[f"{name}.self_s"] = layer_median(name, "self_s")
    metrics["operators.adjoint_pairing_residual.kernel_entries"] = layer_median(
        "operators.adjoint_pairing_residual", "kernel_entries")
    for fn in ("riesz_thorin_bound", "lower_bound_via_extremal", "divergence_slope",
               "counterexample_l2_mass", "mode_rayleigh_maximum"):
        metrics[f"norms.{fn}.self_s"] = layer_median(f"norms.{fn}", "self_s")
    for suite in SUITES:
        name = f"verify.suite_{suite}"
        metrics[f"verify.{suite}.s"] = layer_median(name, "total_s")
        metrics[f"verify.{suite}.rows"] = layer_median(name, "rows")
        metrics[f"verify.{suite}.failed"] = layer_median(name, "failed")
    metrics["verify.csv_changed_rows"] = snapshot_changed
    metrics["cli.main.self_s"] = _median([
        sum(v["self_s"] for k, v in p["layers"].items() if k.startswith("cli.")) for p in traced
    ])

    first = untraced[0]["records"]
    if bench.workload == "fields":
        nodes = sum(r["field_nodes"] for r in first)
        metrics["quadrature.field_calls"] = sum(r["field_calls"] for r in first)
        metrics["quadrature.field_nodes"] = nodes
        metrics["quadrature.useful_node_frac"] = sum(r["rule_nodes"] for r in first) / nodes
        by_radius = {radius: [] for radius in RADII}
        for p in untraced:
            for item, rec in zip(bench.inputs, p["records"]):
                by_radius[repr(item["radius"])].append(rec["ms"])
        for radius in RADII:
            metrics[f"operators.apply.r{radius}.p50_ms"] = _median(by_radius[radius])
        metrics["operators.apply.edge_ratio"] = (
            metrics["operators.apply.r0.995.p50_ms"] / metrics["operators.apply.r0.99.p50_ms"]
        )
    metrics["op_p50_ms"] = _median([rec["ms"] for p in untraced for rec in p["records"]])
    attempted, failed, answered, missed = verdict_totals
    metrics["fail_frac"] = failed / attempted
    metrics["estimate_miss_frac"] = missed / answered if answered else 0.0
    for cls in ("answered", "error", "late"):
        metrics[f"outcomes.{cls}"] = sum(r["outcome"] == cls for r in first)
    metrics["outcomes.flips"] = flips
    metrics["inputs.repeat_frac"] = repeat_share(bench.inputs)
    metrics["trace.overhead_frac"] = (
        _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in untraced]) - 1.0
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "disknorms", "__init__.py")):
        sys.stderr.write(f"error: no package source at {SRC}/disknorms; run from a source checkout\n")
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    t0 = perf_counter()
    expected = references(args.workload, bench.inputs)
    reference_s = perf_counter() - t0

    try:
        passes, setups = bench.run_passes()
        snapshot_changed = 0
        if args.trace and args.workload == "verify_all":
            extra = bench.spawn(False, {"seed": 42})
            rows = ref.parse_csv(extra["records"][0]["text"])
            snap = ref.verify_snapshot()
            snapshot_changed = sum(a != b for a, b in zip(rows, snap)) + abs(len(rows) - len(snap))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    items = bench.inputs if isinstance(bench.inputs, list) else [bench.inputs]
    verdicts = [
        [v for item, exp, rec in zip(items, expected, p["records"])
         for v in judge(args.workload, item, exp, rec)]
        for p in passes
    ]
    # attempted and failed count the operations of the input set, which every
    # pass repeats: an operation fails when it fails in any pass.  So the
    # counts depend on the seed and the code, not on how many passes fit.
    attempted = failed = wrong = answered = missed = 0
    for per_op in zip(*verdicts):
        attempted += 1
        failed += any(v[1] for v in per_op)
        wrong += any(v[2] for v in per_op)
        if per_op[0][3] is not None:
            answered += 1
            missed += any(v[3] for v in per_op)
    classes = [[v[0] for v in per_pass] for per_pass in verdicts]
    # The catalog stream leaves out the A(p) cost levels next to the deadline
    # (workloads.py), so outcome classes should repeat exactly.  An
    # answered/late flip is still only a timing event and is counted; any
    # other change of outcome class between passes of the same inputs is a
    # fault.
    flips = [set(per_op) for per_op in zip(*classes) if len(set(per_op)) > 1]
    timing_flips = sum(f == {"answered", "late"} for f in flips)
    complete = all(len(p["records"]) == len(items) for p in passes) and len(
        {len(per_pass) for per_pass in verdicts}) == 1
    correct = complete and wrong == 0 and timing_flips == len(flips)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    prov = provenance(args.seed, bench.inputs, passes[0]["numpy"])
    lines = [
        f"disknorms benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}",
        "provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items()),
        f"passes: {len(untraced)} untraced, {len(traced)} traced, one fresh worker each; "
        f"references took {reference_s:.2f} s before timing",
        f"operations: {attempted} attempted, {failed} failed ({wrong} wrong), "
        f"fail_frac {failed / attempted:.4f}; estimate misses {missed} of {answered} answered"
        + (f", estimate_miss_frac {missed / answered:.4f}" if answered else ""),
        f"outcome classes repeat across passes: {'yes' if not flips else 'NO'}"
        + (f" ({timing_flips} answered/late flips at the deadline, {len(flips) - timing_flips} other)"
           if flips else ""),
    ]
    if args.trace:
        metrics = per_layer(bench, untraced, traced, (attempted, failed, answered, missed),
                            snapshot_changed, len(flips))
        units = PER_LAYER
        lines.append(f"tracing overhead: {metrics['trace.overhead_frac']:+.4f} of untraced wall time")
        lines += [f"  {name:<56} {metrics[name]:.6g} {units[name]}" for name in units]
    else:
        metrics, notes = end_to_end(untraced, setups)
        units = END_TO_END
        lines += [f"  {name:<12} {metrics[name]:.6g} {unit}  ({notes[name]})"
                  for name, unit in {**END_TO_END, **REPORTED}.items()]

    report = {
        "provenance": prov,
        "reference_s": reference_s,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": metrics,
        "classes": classes,
        "flips": len(flips),
    }
    with open(os.path.join(bench.out_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
