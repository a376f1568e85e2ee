"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

run.py starts one worker per pass, so nothing the package caches in-process
survives from one pass to the next, just as for a command-line user.  The
worker times the import of the package (set-up), optionally installs the
span tracer, runs every input of the workload once through the package's
public functions, and writes what each operation returned, how long it
took, and the process's peak resident memory.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
from time import perf_counter


class Late(BaseException):
    """Raised by the deadline timer; a BaseException so no handler in the package swallows it."""


def _raise_late(signum, frame):
    raise Late()


def _outcome(exc: BaseException) -> str:
    if type(exc).__name__ in ("UnsupportedQueryError", "DomainError"):
        return "refused"
    return "error"


def run_catalog(items, deadline_s, scratch):
    import disknorms
    import disknorms.cli

    signal.signal(signal.SIGALRM, _raise_late)
    out_path = os.path.join(scratch, "table.csv")
    records = []
    for item in items:
        start = perf_counter()
        if item["kind"] == "table":
            rc = disknorms.cli.main([*item["argv"], "--out", out_path])
            with open(out_path) as handle:
                text = handle.read()
            rec = {"outcome": "answered" if rc == 0 else "error", "text": text}
        else:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                try:
                    if item["kind"] == "norm":
                        query = disknorms.NormQuery(item["op"], item["p"], item["target"])
                        result = disknorms.closed_form_norm(query)
                    else:
                        result = disknorms.riesz_thorin_bound(item["p"])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                rec = {
                    "outcome": "answered",
                    "value": result.value,
                    "kind": result.kind.value,
                    "estimate": result.error_estimate,
                }
            except Late:
                rec = {"outcome": "late"}
            except Exception as exc:  # every error is an outcome to record
                rec = {"outcome": _outcome(exc), "error": type(exc).__name__}
        rec["ms"] = (perf_counter() - start) * 1e3
        records.append(rec)
    return records


class PolynomialField:
    """sum c_ab w^a conj(w)^b, counting its own calls and evaluated nodes.

    Evaluated by Horner's rule in w over Horner polynomials in conj(w),
    in place, so the field costs as little as possible next to the rule.
    """

    def __init__(self, coeffs):
        self.degree = max(a + b for a, b, _, _ in coeffs)
        self.rows = [[0j] * (self.degree - a + 1) for a in range(self.degree + 1)]
        for a, b, re, im in coeffs:
            self.rows[a][b] = complex(re, im)
        self.calls = 0
        self.nodes = 0

    def __call__(self, w):
        import numpy as np

        w = np.asarray(w, dtype=complex)
        self.calls += 1
        self.nodes += w.size
        wc = np.conj(w)
        out = np.zeros_like(w)
        inner = np.empty_like(w)
        for row in reversed(self.rows):
            out *= w
            inner.fill(row[-1])
            for c in reversed(row[:-1]):
                inner *= wc
                inner += c
            out += inner
        return out


def run_fields(items):
    import disknorms

    records = []
    for item in items:
        field = PolynomialField(item["coeffs"])
        z = complex(*item["z"])
        start = perf_counter()
        try:
            result = disknorms.apply(item["op"], field, z)
            rec = {
                "outcome": "answered",
                "value": [result.value.real, result.value.imag],
                "estimate": result.abs_error_estimate,
            }
        except Exception as exc:  # every error is an outcome to record
            rec = {"outcome": _outcome(exc), "error": type(exc).__name__}
        rec["ms"] = (perf_counter() - start) * 1e3
        rec["field_calls"] = field.calls
        rec["field_nodes"] = field.nodes
        rule = disknorms.DiskRule.for_point(z, singular=item["op"] in ("cauchy", "cdelta"))
        rec["rule_nodes"] = rule.radial_nodes * rule.angular_nodes
        records.append(rec)
    return records


def run_verify(inputs, scratch):
    import disknorms.cli

    out_path = os.path.join(scratch, "verify.csv")
    start = perf_counter()
    disknorms.cli.main(
        ["verify", "--suite", "all", "--format", "csv", "--seed", str(inputs["seed"]), "--out", out_path]
    )
    ms = (perf_counter() - start) * 1e3
    with open(out_path) as handle:
        text = handle.read()
    return [{"outcome": "answered", "text": text, "ms": ms}]


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as handle:
        spec = json.load(handle)
    start = perf_counter()
    import disknorms  # noqa: F401
    import disknorms.cli  # noqa: F401

    setup_s = perf_counter() - start

    tracer = None
    if spec["traced"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    workload, inputs, scratch = spec["workload"], spec["inputs"], spec["scratch"]
    start = perf_counter()
    if workload == "setup":
        records = []
    elif workload == "catalog":
        records = run_catalog(inputs, spec["deadline_s"], scratch)
    elif workload == "fields":
        records = run_fields(inputs)
    else:
        records = run_verify(inputs, scratch)
    wall_s = perf_counter() - start

    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "records": records,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(result_path + ".spans.jsonl")
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
