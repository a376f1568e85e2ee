"""Command-line interface tests: exit codes, formats, determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from disknorms import cli
from disknorms.cli import main
from disknorms.profiles import profile_K, profile_M, profile_N


# the verify subcommand's option strings, in the order the parser adds them
VERIFY_OPTIONS = ["-h", "--help", "--suite", "--format", "--seed", "--out"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormCommand:
    def test_exact_l2_text(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "j0star", "--p", "2")
        assert code == 0
        assert "value: 0.7071067812" in out
        assert "kind: EXACT_NORM" in out

    def test_linf_target(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "cauchy", "--p", "4", "--target", "linf")
        assert code == 0
        assert "value: 2.279507057" in out

    def test_upper_bound_kind(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "cauchy", "--p", "1.5")
        assert code == 0
        assert "kind: UPPER_BOUND" in out
        assert "interpolation" in out

    def test_inf_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "j0", "--p", "inf")
        assert code == 0
        assert "value: 1.273239545" in out

    def test_unsupported_query_exits_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--op", "bergman", "--p", "2")
        assert code == 2
        assert out == ""
        assert "no p-to-p entry" in err

    def test_catalog_gap_named(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--op", "j0", "--p", "3")
        assert code == 2
        assert "sup norm 4/pi" in err

    def test_domain_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--op", "cauchy", "--p", "2", "--target", "linf")
        assert code == 2
        assert "p-to-sup" in err

    def test_json_numbers_are_strings(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "j0star", "--p", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "0.7071067812"
        assert isinstance(payload["error_estimate"], str)

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--op", "cdelta", "--p", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["operator", "p", "target", "value", "kind"]
        assert rows[1][0] == "cdelta"
        assert rows[1][4] == "UPPER_BOUND"


class TestVerifyCommand:
    def test_specfun_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "3 rows: 3 PASS, 0 FAIL" in out
        assert "2F1(1/2,1/2;2;1) = 4/pi" in out

    def test_norms_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "norms")
        assert code == 0
        assert "mode d=1 constant = 1/2" in out
        assert "0 FAIL" in out

    def test_counterexamples_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "counterexamples")
        assert code == 0
        assert "divergence-law slope" in out

    def test_profiles_suite_has_designed_failure(self, capsys):
        # the 2% proximity claim at rho=0.99 is not attainable (true gap 2.9%)
        code, out, _ = run_cli(capsys, "verify", "--suite", "profiles")
        assert code == 1
        assert "FAIL  M1(0.99) within 2% of 4/pi" in out
        assert "1 FAIL" in out

    def test_csv_header_contract(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "csv")
        assert code == 0
        first = out.splitlines()[0]
        assert first == "label,claimed,computed,abs_err,status,citation"

    def test_csv_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "operators", "--format", "csv")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "operators", "--format", "csv")
        assert out1 == out2

    def test_seed_changes_sampled_rows(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "operators", "--format", "csv")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "operators", "--format", "csv", "--seed", "7")
        assert out1 != out2  # sampled residuals move with the seed
        # but both still pass
        assert all("PASS" in line for line in out2.splitlines()[1:])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == "0"
        assert payload["rows"][0]["status"] == "PASS"
        assert isinstance(payload["rows"][0]["claimed"], str)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-3", "--seed must be an integer >= 0, got '-3'"),
        ],
        ids=["seed-negative"],
    )
    def test_bad_seed_or_tol_is_a_usage_error(self, capsys, flag, value, message):
        # exit 1 means "some row failed"; a bad option must not read as one
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "specfun", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_verify_options_are_pinned(self):
        # a verify knob comes back only with an edit here
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = [flag for action in sub.choices["verify"]._actions for flag in action.option_strings]
        assert options == VERIFY_OPTIONS

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "csv",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        content = path.read_text()
        assert content.startswith("label,claimed,computed")

    @pytest.mark.parametrize("module", ["disknorms", "disknorms.cli"])
    def test_module_entry_points(self, module, tmp_path):
        path = tmp_path / "report.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", module, "verify", "--suite", "specfun",
             "--format", "csv", "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert path.read_text().splitlines()[0] == "label,claimed,computed,abs_err,status,citation"


class TestTableCommand:
    def test_interpolation_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "table", "interpolation", "--p", "1,2,inf")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "value", "kind"]
        assert rows[1] == ["1", "1.273239545", "EXACT_NORM"]
        assert rows[2] == ["2", "0.7071067812", "EXACT_NORM"]
        assert rows[3] == ["inf", "0.9014316942", "EXACT_NORM"]

    def test_interpolation_interior_kind(self, capsys):
        code, out, _ = run_cli(capsys, "table", "interpolation", "--p", "3")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][2] == "UPPER_BOUND"

    def test_lp_linf_curve_value(self, capsys):
        code, out, _ = run_cli(capsys, "table", "lp_linf_curves", "--op", "cauchy", "--p", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][1] == "2.5198421"

    def test_lp_linf_curve_precondition(self, capsys):
        code, _, err = run_cli(capsys, "table", "lp_linf_curves", "--op", "cauchy", "--p", "1.5")
        assert code == 2
        assert "source_p > 2" in err

    def test_bad_grid_token(self, capsys):
        code, _, err = run_cli(capsys, "table", "interpolation", "--p", "1,zap")
        assert code == 2
        assert "could not parse" in err

    @pytest.mark.parametrize("kind", ["interpolation", "lp_linf_curves", "profiles"])
    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_empty_grid_is_refused(self, capsys, kind, grid):
        code, out, err = run_cli(capsys, "table", kind, "--p", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "names no exponent" in err

    def test_profiles_table_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "table", "profiles")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rho", "profile_K", "profile_M", "profile_N"]
        ks = [float(r[1]) for r in rows[1:]]
        ms = [float(r[2]) for r in rows[1:]]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_profiles_table_at_p_infinity(self, capsys):
        # p = inf has conjugate exponent exactly 1
        code, out, _ = run_cli(capsys, "table", "profiles", "--p", "inf", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 20
        for row in rows:
            rho = float(row[0])
            assert row[1] == cli._fmt(profile_K(math.inf, rho))
            assert row[2] == cli._fmt(profile_M(1.0, rho))
            assert row[3] == cli._fmt(profile_N(1.0, rho, 1e-10).value)

    @pytest.mark.parametrize("p", ["2", "1.9999999", "1", "nan"])
    def test_profiles_table_requires_p_above_two(self, capsys, p):
        code, out, err = run_cli(capsys, "table", "profiles", "--p", p)
        assert code == 2
        assert out == ""
        assert f"requires p > 2 so all three profiles exist, got p = {float(p)!r}" in err

    @pytest.mark.parametrize(
        "kind, op, reads",
        [
            ("interpolation", "cauchy", "it reads --op j0star only"),
            ("interpolation", "j0", "it reads --op j0star only"),
            ("profiles", "bergman", "it reads no --op"),
            ("profiles", "j0star", "it reads no --op"),
        ],
    )
    def test_op_the_kind_does_not_read_is_refused(self, capsys, kind, op, reads):
        # the j0star Riesz-Thorin table and the three profiles never read --op
        code, out, err = run_cli(capsys, "table", kind, "--op", op)
        assert code == 2
        assert out == ""
        assert f"table {kind} does not read --op {op}; {reads}" in err

    @pytest.mark.parametrize(
        "argv, default",
        [
            (("table", "interpolation", "--op", "j0star"), ("table", "interpolation")),
            (("table", "lp_linf_curves", "--op", "cauchy"), ("table", "lp_linf_curves")),
        ],
    )
    def test_op_the_kind_reads_matches_its_default(self, capsys, argv, default):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (code, out) == run_cli(capsys, *default)[:2]

    def test_json_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "interpolation", "--p", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["columns"] == ["p", "value", "kind"]
        assert payload["rows"][0][1] == "0.7071067812"


class TestParserReuse:
    COMMANDS = (
        ("norm", "--op", "j0star", "--p", "3", "--target", "linf", "--format", "csv"),
        ("table", "interpolation", "--p", "1.5,2,inf"),
        ("verify", "--suite", "specfun", "--format", "csv"),
        ("norm", "--op", "bergman", "--p", "2"),
    )

    def test_successive_calls_match_fresh_parsers_and_build_once(self, capsys, monkeypatch):
        fresh = []
        for argv in self.COMMANDS:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))

        builds = []
        original = cli.build_parser

        def counting():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in self.COMMANDS]
        assert reused == fresh
        assert len(builds) == 1


@pytest.mark.parametrize(
    "argv, p",
    [
        (("norm", "--op", "j0star", "--p", "2.0000001", "--target", "linf"), 2.0000001),
        (("table", "profiles", "--p", "2.000001"), 2.000001),
    ],
    ids=["norm-A(p)", "table-K"],
)
def test_near_two_refusal_prints_the_exponent(capsys, argv, p):
    # both q print as 2 in a short format
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"q = {p / (p - 1.0)!r} is too close to 2" in err


OVERFLOW_ARGV = {
    "norm": ("norm", "--op", "j0star", "--target", "linf"),
    "interpolation": ("table", "interpolation"),
    "lp_linf_curves": ("table", "lp_linf_curves", "--op", "j0star"),
}


def _exit_code(capsys, argv, p):
    # argparse refuses --p of `norm` by SystemExit, `table` refuses its grid itself
    try:
        code = main([*argv, f"--p={p}"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("token", ["1e400", "-1e400", "2.5e308"])
@pytest.mark.parametrize("command", list(OVERFLOW_ARGV))
def test_a_p_past_the_double_range_is_refused(capsys, command, token):
    # float() reads these as +-inf; only a spelled infinity may be one
    grid = token if command == "norm" else f"3,{token}"
    code, out, err = _exit_code(capsys, OVERFLOW_ARGV[command], grid)
    assert code == 2
    assert out == ""
    assert f"{token!r} is past the double range" in err


@pytest.mark.parametrize("spelling", ["inf", "Infinity", "+INF"])
@pytest.mark.parametrize("command", list(OVERFLOW_ARGV))
def test_a_spelled_infinity_still_answers(capsys, command, spelling):
    code, out, err = _exit_code(capsys, OVERFLOW_ARGV[command], spelling)
    assert (code, err) == (0, "")
    assert out == _exit_code(capsys, OVERFLOW_ARGV[command], "inf")[1]
    assert "0.9014316942" in out  # (1+2*Catalan)/pi, j0star's sup-to-sup norm
