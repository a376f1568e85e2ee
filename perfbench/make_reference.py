"""Regenerate the committed high-precision references for the catalog workload.

    python3 perfbench/make_reference.py            # A(p) grid, about 7 minutes
    python3 perfbench/make_reference.py --verify   # seed-42 verify CSV snapshot
    python3 perfbench/make_reference.py --levels   # A(p) term levels, about 4 minutes

The boundary constant A(p) costs mpmath about two seconds per p, far too
much to recompute inside every benchmark run, so the catalog workload draws
its near-2 exponents from a fixed log-uniform grid whose references are
committed here.  Each value uses Thomae's transformation (Bailey 1935, 3.2),

    A(p) = Gamma(2-q) / Gamma(2-q/2)^2 * 3F2(-q/2, 1, 2-q; 2-q/2, 2-q/2; 1),

which is independent of the package's own summation route.

The verify snapshot is the CSV of `disknorms verify --suite all --seed 42`
at the commit that introduced the benchmark; the traced verify_all run
counts the rows that differ from it.

The term levels record, for every grid exponent, how many terms the
package's unit-argument series summed for `closed_form_norm(j0star, p,
linf)` at that commit (null when it had not answered within LEVEL_PROBE_S).
The catalog workload leaves out the levels whose cost straddles its
per-query deadline; regenerate the file when the summation changes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
A_P_FILE = os.path.join(HERE, "a_p_reference.json")
VERIFY_SNAPSHOT = os.path.join(HERE, "verify_seed42.csv")
A_P_LEVELS_FILE = os.path.join(HERE, "a_p_levels.json")
LEVEL_PROBE_S = 2.5

# p - 2 = 10 ** (GRID_LO + k / GRID_PER_DECADE), k = 0 .. GRID_DECADES * GRID_PER_DECADE
GRID_LO = -2
GRID_DECADES = 5
GRID_PER_DECADE = 40
# the default grid of `table lp_linf_curves`
EXTRA_P = (2.5, 3.0, 4.0, 6.0, 10.0)
DPS = 30


def grid_p(k: int) -> float:
    return 2.0 + 10.0 ** (GRID_LO + k / GRID_PER_DECADE)


def a_p_thomae(p: float, dps: int = DPS):
    import mpmath as mp

    with mp.workdps(dps):
        p = mp.mpf(p)
        q = p / (p - 1)
        return (
            mp.gamma(2 - q) / mp.gamma(2 - q / 2) ** 2
            * mp.hyp3f2(-q / 2, 1, 2 - q, 2 - q / 2, 2 - q / 2, 1)
        )


def write_a_p_grid() -> None:
    import mpmath as mp

    values = []
    grid = [grid_p(k) for k in range(GRID_DECADES * GRID_PER_DECADE + 1)]
    for p in grid + list(EXTRA_P):
        values.append([repr(p), mp.nstr(a_p_thomae(p), DPS)])
        print(*values[-1], flush=True)
    payload = {
        "what": "A(p) by Thomae's transformation, mpmath at 30 digits",
        "grid": f"p = 2 + 10**({GRID_LO} + k/{GRID_PER_DECADE}) for k = 0..200, then {EXTRA_P}",
        "dps": DPS,
        "values": values,
    }
    with open(A_P_FILE, "w") as handle:
        json.dump(payload, handle, indent=0)
        handle.write("\n")


def write_verify_snapshot() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from disknorms.cli import main

    main(["verify", "--suite", "all", "--format", "csv", "--seed", "42",
          "--out", VERIFY_SNAPSHOT])


def write_a_p_levels() -> None:
    import signal

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import disknorms
    import disknorms.cli  # noqa: F401 - the tracer wraps every layer module
    from tracing import Tracer

    class Late(BaseException):
        pass

    def raise_late(signum, frame):
        raise Late()

    signal.signal(signal.SIGALRM, raise_late)
    tracer = Tracer()
    tracer.install()
    terms = []
    for k in range(GRID_DECADES * GRID_PER_DECADE + 1):
        first = len(tracer.spans)
        signal.setitimer(signal.ITIMER_REAL, LEVEL_PROBE_S)
        try:
            try:
                disknorms.closed_form_norm(disknorms.NormQuery("j0star", grid_p(k), "linf"))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            terms.append(sum(span[4]["terms"] for span in tracer.spans[first:]
                             if span[0] == "specfun.hyp_pfq.unit"))
        except Late:
            terms.append(None)
        print(k, terms[-1], flush=True)
    payload = {
        "what": "terms summed by closed_form_norm(j0star, p, linf) on the A(p) grid; "
                f"null: no answer within {LEVEL_PROBE_S} s",
        "grid": f"p = 2 + 10**({GRID_LO} + k/{GRID_PER_DECADE}) for k = 0..200",
        "terms": terms,
    }
    with open(A_P_LEVELS_FILE, "w") as handle:
        json.dump(payload, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    if "--verify" in sys.argv[1:]:
        write_verify_snapshot()
    elif "--levels" in sys.argv[1:]:
        write_a_p_levels()
    else:
        write_a_p_grid()
