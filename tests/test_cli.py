"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from salpeter_qho import kramers, oracle
from salpeter_qho.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorrect:
    def test_3d_ground_text(self, capsys):
        code, out, _ = run(capsys, "correct", "--d", "3", "--n", "0", "--l", "0")
        assert code == 0
        assert "epsilon0 = 3/2" in out
        assert "-15/32" in out and "255/512" in out
        assert "verdict: AGREE" in out

    def test_2d_ladder_included(self, capsys):
        code, out, _ = run(capsys, "correct", "--d", "2", "--N", "2", "--m", "0")
        assert code == 0
        assert "ladder" in out and "verdict: AGREE" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "correct", "--d", "2", "--n", "1", "--l", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "AGREE"
        assert payload["epsilon0"]["pq"] == "4"
        methods = payload["methods"]
        assert {"closed_form", "kramers", "laguerre"} <= set(methods)
        assert methods["closed_form"]["epsilon1_pq"] == methods["kramers"]["epsilon1_pq"]

    def test_d1_by_principal_number(self, capsys):
        code, out, _ = run(capsys, "correct", "--d", "1", "--N", "1")
        assert code == 0
        assert "epsilon0 = 3/2" in out and "-15/32" in out

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("correct_d1_N3", ["--d", "1", "--N", "3"]),
            ("correct_d2_N4_m2", ["--d", "2", "--N", "4", "--m", "2"]),
            ("correct_d3_n1_l2", ["--d", "3", "--n", "1", "--l", "2"]),
        ],
        ids=["d1", "d2-ladder", "d3"],
    )
    @pytest.mark.parametrize("fmt,suffix", [("text", ".txt"), ("json", ".json")])
    def test_output_matches_golden(self, capsys, golden, argv, fmt, suffix):
        code, out, err = run(capsys, "correct", *argv, "--format", fmt)
        assert out.encode() == (GOLDEN / f"{golden}{suffix}").read_bytes()
        assert (code, err) == (0, "")

    def test_ladder_requires_d2(self, capsys):
        code, _, err = run(capsys, "correct", "--d", "3", "--n", "0", "--method", "ladder")
        assert code == 2 and "error" in err

    def test_invalid_dimension(self, capsys):
        code, _, err = run(capsys, "correct", "--d", "0", "--n", "0")
        assert code == 2 and "error" in err

    def test_missing_state(self, capsys):
        code, _, err = run(capsys, "correct", "--d", "3")
        assert code == 2 and "error" in err


class TestTable:
    def test_row_count_3d(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "3", "--Nmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        # split counts 1,1,2,2,3 plus header
        assert len(lines) == 1 + 9

    def test_d1_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "1", "--Nmax", "3")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(row.split(",")[-1] == "1" for row in rows)

    def test_csv_json_same_values(self, capsys):
        _, csv_out, _ = run(capsys, "table", "--d", "4", "--Nmax", "3")
        _, json_out, _ = run(capsys, "table", "--d", "4", "--Nmax", "3", "--format", "json")
        csv_rows = [row.split(",") for row in csv_out.strip().split("\n")[1:]]
        json_rows = json.loads(json_out)["rows"]
        assert [r[2:6] for r in csv_rows] == [
            [j["eps0"], j["eps1"], j["eps2"], j["energy"]] for j in json_rows
        ]

    def test_lambda_option(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "3", "--Nmax", "0", "--lambda", "1/100")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        # 3/2 - (15/32)/100 + (255/512)/10000
        assert row[5] == "1531251/1024000"

    def test_bad_lambda(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "table", "--d", "3", "--Nmax", "2", "--lambda", "x")
        assert exc.value.code == 2

    def test_negative_lambda(self, capsys):
        code, _, err = run(capsys, "table", "--d", "3", "--Nmax", "2", "--lambda=-1/2")
        assert code == 2 and "error" in err

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "table", "--d", "3", "--Nmax", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("N,l,eps0,")

    def test_unwritable_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "table", "--d", "3", "--Nmax", "2", "--out", "/nonexistent/dir/out.csv")
        assert exc.value.code == 3


class TestDiagram:
    def test_sublevel_count(self, capsys):
        code, out, _ = run(capsys, "diagram", "--d", "3", "--Nmax", "5")
        assert code == 0
        assert out.startswith("<svg") or out.startswith("<?xml")
        assert out.count("firebrick") == 12

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "diagram", "--d", "3", "--Nmax", "4")
        _, b, _ = run(capsys, "diagram", "--d", "3", "--Nmax", "4")
        assert a == b

    def test_exaggeration_option(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "--d", "2", "--Nmax", "3", "--exaggeration", "5"
        )
        assert code == 0 and "firebrick" in out


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "small")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(rec["status"] == "pass" for rec in report["checks"])

    def test_perturb_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "small", "--perturb")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        first, *rest = report["checks"]
        assert first["method"] == "kramers/laguerre/closed" and first["status"] == "FAIL"
        assert first["case"].endswith("[first failure at d=1 n=1/2 l=0]")
        assert all(rec["status"] == "pass" for rec in rest)

    def test_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--report", str(target))
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True
        # summary lines still go to stdout
        assert "[pass]" in out

    @pytest.mark.parametrize(
        "golden,argv,expected_code",
        [
            ("verify_small.json", ["--grid", "small"], 0),
            ("verify_small_perturb.json", ["--grid", "small", "--perturb"], 1),
            ("verify_large.json", ["--grid", "large"], 0),
            ("verify_large_perturb.json", ["--grid", "large", "--perturb"], 1),
        ],
        ids=["small", "small-perturb", "large", "large-perturb"],
    )
    def test_report_matches_golden(
        self, capsys, tmp_path, monkeypatch, golden, argv, expected_code
    ):
        # the report, the status lines and the exit code at the default precision
        monkeypatch.delenv("SALPETER_PRECISION", raising=False)
        expected = (GOLDEN / golden).read_bytes()
        target = tmp_path / "report.json"
        code, out, err = run(capsys, "verify", *argv, "--report", str(target))
        assert target.read_bytes() == expected
        checks = json.loads(expected)["checks"]
        assert out == "".join(f"[{rec['status']}] {rec['case']}\n" for rec in checks)
        assert (code, err) == (expected_code, "")

    def test_quadrature_failure_is_usage_error(self, capsys, monkeypatch):
        def fail(k, npoints, dps):
            raise ArithmeticError(f"rule alpha={k}/2 npoints={npoints} failed its checks")

        monkeypatch.setattr(oracle, "_rule_entry", fail)
        code, out, err = run(capsys, "verify")
        assert code == 2 and out == ""
        assert err.startswith("error: rule alpha=") and err.count("\n") == 1
        assert "SALPETER_PRECISION" in err


class TestOracleCommand:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d", "3", "--n", "0", "--l", "0", "--s", "2")
        assert code == 0
        assert "exact      = 15/4" in out
        rel = float(out.strip().split("\n")[-1].split("=")[1])
        assert rel < 1e-40

    def test_invalid_state(self, capsys):
        code, _, err = run(capsys, "oracle", "--d", "3", "--n", "-1", "--l", "0")
        assert code == 2 and "error" in err

    def test_high_precision(self, capsys, monkeypatch):
        # past 1024 bits of fixed point, the seeds still enter the polish exactly
        monkeypatch.setenv("SALPETER_PRECISION", "300")
        code, out, err = run(capsys, "oracle", "--d", "3", "--n", "2", "--s", "2")
        assert (code, err) == (0, "")
        assert "exact      = 183/4" in out
        assert float(out.strip().split("\n")[-1].split("=")[1]) < 1e-290

    def test_quadrature_failure_is_usage_error(self, capsys, monkeypatch):
        def fail(q, s):
            raise ArithmeticError("quadrature failed to converge")

        monkeypatch.setattr(oracle, "quad_expectation", fail)
        code, out, err = run(capsys, "oracle", "--d", "3", "--n", "150")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "SALPETER_PRECISION" in err

    def test_rule_out_of_reach_gets_no_precision_hint(self, capsys):
        # the fine rule has 512 nodes, past MAX_NODES at any precision
        code, out, err = run(capsys, "oracle", "--d", "3", "--n", "255", "--l", "0", "--s", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "512" in err and "384" in err and "SALPETER_PRECISION" not in err

    def test_rule_out_of_reach_fails_before_the_exact_moment(self, capsys, monkeypatch):
        # the Kramers recursion to s = 100000 would take minutes; the cap comes first
        calls = []
        monkeypatch.setattr(kramers, "moment_eta", lambda q, s: calls.append(s))
        code, out, err = run(capsys, "oracle", "--d", "2", "--n", "0", "--s", "100000")
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_NODES = 384" in err

    @pytest.mark.parametrize("d,n", [(100000, 0), (1000000, 0), (100000, 40), (10000000, 40)])
    def test_zeros_far_from_zero(self, capsys, d, n):
        # alpha = d/2 - 1: the rules' zeros sit far from 0
        code, out, _ = run(capsys, "oracle", "--d", str(d), "--n", str(n), "--s", "2")
        assert code == 0
        assert out.strip().split("\n")[-1] == "relative difference = 0.0"


VALID_ARGV = [
    ["correct", "--d", "3", "--n", "0"],
    ["table", "--d", "3", "--Nmax", "1"],
    ["diagram", "--d", "3", "--Nmax", "1"],
    ["verify"],
    ["oracle", "--d", "3", "--n", "0"],
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "precision,argv",
        [
            (None, ["correct", "--d", "2", "--n", "0", "--l", "2", "--m", "0"]),
            (None, ["correct", "--d", "2", "--n", "0", "--l", "2", "--m", "5"]),
            (None, ["correct", "--d", "3", "--n", "abc"]),
            (None, ["correct", "--d", "3", "--n", "1/0"]),
        ]
        + [(precision, argv) for precision in ("abc", "14") for argv in VALID_ARGV]
        + [
            (None, ["correct", "--d", "3", "--n", "0", "--l", "0", "--m", "1"]),
            (None, ["correct", "--d", "1", "--N", "2", "--n", "5"]),
            (None, ["correct", "--d", "3", "--n", "0", "--l", "1", "--m", "1"]),
            (None, ["diagram", "--d", "3", "--Nmax", "2", "--exaggeration", "0"]),
            (None, ["diagram", "--d", "3", "--Nmax", "2", "--exaggeration", "-1"]),
            (None, ["diagram", "--d", "3", "--Nmax", "2", "--exaggeration", "1e400"]),
            (None, ["diagram", "--d", "3", "--Nmax", "2", "--lambda", "1e400"]),
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, monkeypatch, precision, argv):
        if precision is not None:
            monkeypatch.setenv("SALPETER_PRECISION", precision)
        try:
            code, _, err = run(capsys, *argv)
        except SystemExit as exc:
            code, err = exc.code, capsys.readouterr().err
        assert code == 2
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    def test_precision_is_scoped(self, capsys):
        with mp.workdps(20):
            run(capsys, "correct", "--d", "3", "--n", "0")
            assert mp.dps == 20


REQUIRED = {
    "correct": ["--d", "--n"],
    "table": ["--d", "--Nmax"],
    "diagram": ["--d", "--Nmax"],
    "verify": [],
    "oracle": ["--d", "--n"],
}
OPTIONAL = {
    "correct": ["--l", "--N", "--m", "--method", "--format", "--out"],
    "table": ["--lambda", "--format", "--out"],
    "diagram": ["--lambda", "--exaggeration", "--out"],
    "verify": ["--grid", "--perturb", "--report"],
    "oracle": ["--l", "--s"],
}
# small magnitudes keep every run cheap; "--grid large" is left out for the same reason
NUMBERS = ["-1", "0", "1", "2", "3", "1/2", "3/2", "1e400"]
WORDS = ["-1/2", "1/0", "abc", "", "all", "closed", "ladder", "json", "text", "csv",
         "small", "-", "/nonexistent/dir/out"]


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(sorted(REQUIRED)))
    value = st.sampled_from(NUMBERS) | st.sampled_from(WORDS)
    argv = [command]
    for flag in REQUIRED[command]:
        if draw(st.integers(0, 9)):  # now and then leave a required flag out
            argv += [flag, draw(st.sampled_from(["1", "2", "3", "5"]))]
    for flag in draw(st.lists(st.sampled_from(OPTIONAL[command] + ["--bogus"]), max_size=4)):
        argv += [flag] if flag == "--perturb" else [flag, draw(value)]
    return argv


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv_lists())
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        # values such as "abc" are relative --out/--report paths: write them in a scratch dir
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert "DISAGREE" in out.getvalue() or "FAIL" in out.getvalue()


class TestParser:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, )
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "frobnicate")
        assert exc.value.code == 2
