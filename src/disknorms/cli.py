"""Command-line front end: norm queries, verification reports, curve tables.

Output is reproducible byte for byte given identical flags: numbers are
printed with 10 significant digits, JSON carries numbers as decimal strings,
and every sampled check draws from a seeded generator (--seed, default 42).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DiskNormsError
from .norms import NormQuery, Target, closed_form_norm, riesz_thorin_bound
from .operators import Operator
from .profiles import _conjugate_exponent, profile_K, profile_M, profile_N
from .verify import SUITE_NAMES, run_suite

OP_CHOICES = ["cauchy", "bergman", "j0", "j0star", "cdelta"]
# the operators each table kind reads from --op; lp_linf_curves defaults to cauchy
_TABLE_OPS = {"interpolation": ["j0star"], "lp_linf_curves": OP_CHOICES, "profiles": []}


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _real(text: str) -> float:
    # float() reads a token past the double range, such as 1e400, as inf
    value = float(text)
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise OverflowError(f"{text.strip()!r} is past the double range (write inf for infinity)")
    return value


def _option(flag: str, convert: Callable, valid: Callable, what: str) -> Callable:
    # an argparse type: convert the text, then require valid(value)
    def parse(text: str):
        try:
            value = convert(text)
        except OverflowError as exc:
            raise argparse.ArgumentTypeError(f"{flag} {exc}") from None
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{flag} must be {what}, got {text!r}")
        return value

    return parse


_parse_p = _option("--p", _real, lambda v: not math.isnan(v), "a real number or 'inf'")
_parse_seed = _option("--seed", int, lambda v: v >= 0, "an integer >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disknorms",
        description="Norms, bounds, and counterexamples for integral operators on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="look up one catalog norm or bound")
    norm.add_argument("--op", choices=OP_CHOICES, required=True)
    norm.add_argument("--p", type=_parse_p, required=True, metavar="REAL|inf")
    norm.add_argument("--target", choices=["same", "linf"], default="same")
    norm.add_argument("--format", choices=["csv", "json", "text"], default="text")
    norm.add_argument("--out", default=None, metavar="PATH")

    verify = sub.add_parser("verify", help="run a verification suite and report PASS/FAIL rows")
    verify.add_argument("--suite", choices=["all", *SUITE_NAMES], default="all")
    verify.add_argument("--format", choices=["csv", "json", "text"], default="text")
    verify.add_argument("--seed", type=_parse_seed, default=42)
    verify.add_argument("--out", default=None, metavar="PATH")

    table = sub.add_parser("table", help="emit a curve table (CSV or JSON)")
    table.add_argument("kind", choices=["interpolation", "lp_linf_curves", "profiles"])
    table.add_argument("--op", choices=OP_CHOICES, default=None,
                       help="lp_linf_curves: default cauchy; interpolation: j0star only; profiles: none")
    table.add_argument("--p", default=None,
                       help="grid: comma-separated values, e.g. '2.5,3,4,inf' "
                            "(profiles: a single p)")
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--out", default=None, metavar="PATH")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main`` and reused after it."""
    return build_parser()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _csv_text(header: List[str], rows: List[List[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_norm(args) -> int:
    query = NormQuery(Operator(args.op), args.p, Target(args.target))
    result = closed_form_norm(query)
    fields = [
        ("operator", args.op),
        ("p", _fmt(args.p)),
        ("target", args.target),
        ("value", _fmt(result.value)),
        ("kind", result.kind.value),
        ("error_estimate", _fmt(result.error_estimate)),
        ("provenance", result.provenance),
    ]
    if args.format == "text":
        text = "".join(f"{k}: {v}\n" for k, v in fields)
    elif args.format == "csv":
        text = _csv_text([k for k, _ in fields], [[v for _, v in fields]])
    else:
        text = json.dumps(dict(fields), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    rows = run_suite(args.suite, seed=args.seed)
    n_pass = sum(r.passed for r in rows)
    if args.format == "csv":
        text = _csv_text(
            ["label", "claimed", "computed", "abs_err", "status", "citation"],
            [
                [r.label, _fmt(r.claimed), _fmt(r.computed), _fmt(r.abs_err), r.status, r.citation]
                for r in rows
            ],
        )
    elif args.format == "json":
        payload = {
            "suite": args.suite,
            "rows": [
                {
                    "label": r.label,
                    "claimed": _fmt(r.claimed),
                    "computed": _fmt(r.computed),
                    "abs_err": _fmt(r.abs_err),
                    "status": r.status,
                    "citation": r.citation,
                }
                for r in rows
            ],
            "passed": _fmt(n_pass),
            "failed": _fmt(len(rows) - n_pass),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"{r.status}  {r.label} | claimed {_fmt(r.claimed)} | computed {_fmt(r.computed)}"
            f" | abs_err {_fmt(r.abs_err)} | tol {_fmt(r.tolerance)} | {r.citation}"
            for r in rows
        ]
        lines.append(f"{len(rows)} rows: {n_pass} PASS, {len(rows) - n_pass} FAIL")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if n_pass == len(rows) else 1


def _parse_grid(text: Optional[str], default: Sequence[float]) -> List[float]:
    if text is None:
        return list(default)
    try:
        grid = [_real(tok) for tok in text.split(",") if tok.strip()]
    except OverflowError as exc:
        raise DiskNormsError(f"--p grid {text!r}: {exc}") from None
    except ValueError:
        raise DiskNormsError(f"could not parse --p grid {text!r}") from None
    if not grid:
        raise DiskNormsError(f"--p grid {text!r} names no exponent")
    return grid


def cmd_table(args) -> int:
    if args.op not in [None, *_TABLE_OPS[args.kind]]:
        reads = f"--op {' or '.join(_TABLE_OPS[args.kind])} only" if _TABLE_OPS[args.kind] else "no --op"
        raise DiskNormsError(f"table {args.kind} does not read --op {args.op}; it reads {reads}")
    if args.kind == "interpolation":
        grid = _parse_grid(args.p, (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, math.inf))
        header = ["p", "value", "kind"]
        rows = []
        for p in grid:
            r = riesz_thorin_bound(p)
            rows.append([_fmt(p), _fmt(r.value), r.kind.value])
    elif args.kind == "lp_linf_curves":
        grid = _parse_grid(args.p, (2.5, 3.0, 4.0, 6.0, 10.0, math.inf))
        header = ["p", "value", "kind"]
        rows = []
        for p in grid:
            r = closed_form_norm(NormQuery(Operator(args.op or "cauchy"), p, Target.L_INFINITY))
            rows.append([_fmt(p), _fmt(r.value), r.kind.value])
    else:
        grid = _parse_grid(args.p, (3.0,))
        if len(grid) != 1:
            raise DiskNormsError("profiles table expects a single --p value")
        p = grid[0]
        if not p > 2.0:
            raise DiskNormsError(
                f"profiles table requires p > 2 so all three profiles exist, got p = {p!r}"
            )
        q = _conjugate_exponent(p)
        header = ["rho", "profile_K", "profile_M", "profile_N"]
        rhos = np.round(np.arange(0.0, 0.951, 0.05), 2)
        columns = (rhos, profile_K(p, rhos), profile_M(q, rhos), profile_N(q, rhos, 1e-10).value)
        rows = [[_fmt(x) for x in row] for row in zip(*columns)]
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = json.dumps({"kind": args.kind, "columns": header, "rows": rows}, indent=2) + "\n"
    _emit(text, args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "norm":
            return cmd_norm(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except DiskNormsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
