import argparse
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import qharmonic
from qharmonic import export, verify
from qharmonic.algebra import EPoly
from qharmonic.cli import MAX_M, _SUITE_FLAGS, build_parser, main
from qharmonic.evalq import QValue, Zq_eval, zeta_q_partial
from qharmonic.export import (
    ohno_records,
    parse_json,
    record_combination,
    relation_records,
    render_csv,
    render_json,
)
from qharmonic.cyclo import zn_map
from qharmonic.errors import OutOfRange
from test_output_digests import DIGESTS
from test_workload_digests import WORKLOADS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCalculators:
    def test_dual(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "2,3,1")
        assert code == 0
        assert out.strip() == "1,2,1,2"

    def test_stuffle(self, capsys):
        code, out, _ = run_cli(capsys, "stuffle", "2", "3")
        assert code == 0
        assert out.strip() == "e[2,3] + e[3,2] + e[5] + h*e[4]"

    def test_stuffle_classical(self, capsys):
        code, out, _ = run_cli(capsys, "stuffle", "1", "2", "--classical")
        assert code == 0
        assert out.strip() == "e[1,2] + e[2,1] + e[3]"

    def test_shuffle(self, capsys):
        code, out, _ = run_cli(capsys, "shuffle", "ab", "ab")
        assert code == 0
        assert out.strip() == "2*abab + h*abb"

    def test_partial_word_and_index(self, capsys):
        code, out, _ = run_cli(capsys, "partial", "1", "ab")
        assert code == 0
        assert out.strip() == "aab - h*abb"
        code, out, _ = run_cli(capsys, "partial", "1", "2")
        assert code == 0
        assert out.strip() == "-e[2,1] + e[3]"

    @pytest.mark.parametrize("target", ["ab", "2,1"])
    def test_partial_n_below_one(self, capsys, target):
        code, out, err = run_cli(capsys, "partial", "0", target)
        assert code == 2
        assert out == "" and err == "error: n must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("delta", "99999999999999999999", "b"), "n"),
            (("dual", "1000000000000000000000"), "an index entry"),
            (("zn", "2", "--n", "100000000000000000000"), "n"),
        ],
    )
    def test_size_past_an_index_sized_int(self, capsys, argv, name):
        # a size Python cannot index with (OverflowError) is OutOfRange, exit 2
        code, out, err = run_cli(capsys, *argv)
        value = next(a for a in argv if len(a) > 19)
        assert (code, out) == (2, "")
        assert err == f"error: {name} must be at most {sys.maxsize}, got {value}\n"

    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "1", "b")
        assert code == 0
        assert out.strip() == "bab + ab"

    def test_series(self, capsys):
        code, out, _ = run_cli(capsys, "series", "delta", "a", "--order", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X^0: a"
        assert lines[1] == "X^1: -aab - h*ab"

    def test_series_negative_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "delta", "ab", "--order", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be >= 0" in out.err

    def test_eval_zetaq(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "zetaq", "2", "--q", "1/2", "--M", "3")
        assert code == 0
        assert out.strip() == "575/882 +/- 1/8 (M=3)"

    def test_eval_truncation_below_one(self, capsys):
        assert run_cli(capsys, "eval", "zetaq", "2", "--q", "1/2", "--M", "-1") == (
            2, "", "error: M must be >= 1, got -1\n"
        )

    @pytest.mark.parametrize("command", [("eval", "zetaq", "2"), ("verify", "derivation")])
    @pytest.mark.parametrize("value", [MAX_M + 1, 100000000])
    def test_truncation_past_the_ceiling(self, capsys, command, value):
        # rejected while parsing, before any evaluation starts
        assert run_cli(capsys, *command, "--M", str(value)) == (
            2, "", f"error: --M must be at most {MAX_M}, got {value}\n"
        )

    @pytest.mark.parametrize("command", [("eval", "zetaq", "2"), ("verify", "derivation")])
    def test_truncation_up_to_the_ceiling_is_accepted(self, command):
        assert 120 <= MAX_M
        for value in (120, MAX_M):
            assert build_parser().parse_args([*command, "--M", str(value)]).M == value

    def test_eval_past_the_digit_limit(self, capsys):
        # the value has over 4300 digits, CPython's default limit on int -> str
        code, out, _ = run_cli(capsys, "eval", "zetaq", "4", "--M", "120")
        assert code == 0
        value, rest = out.split(" +/- ")
        assert len(value) > 4300
        want = zeta_q_partial((4,), QValue(Fraction(1, 2)), 120)
        assert parse_exact(value) == want.value
        assert rest == f"{want.tail_bound} (M=120)\n"

    def test_zn(self, capsys):
        code, out, _ = run_cli(capsys, "zn", "1bar", "--n", "3")
        assert code == 0
        assert out.strip() == "-1 + z (n=3)"

    def test_usage_error_bad_index(self, capsys):
        code, _, err = run_cli(capsys, "dual", "2,x,1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, letter", [(("shuffle", "xy", "ab"), "x"), (("delta", "1", "ax"), "x")])
    def test_foreign_letter_exits_2(self, capsys, argv, letter):
        # NcPoly's constructor refuses the word; the CLI has no check of its own
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error:") and repr(letter) in err

    def test_usage_error_bad_precondition(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ohno", "--index", "2", "--n", "2", "--m", "1")
        assert code == 2


def parse_exact(text: str) -> Fraction:
    """A printed rational of any size: Decimal parses past the digit limit."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


class TestVerifyCommand:
    def test_counterexample_past_the_digit_limit(self, capsys, monkeypatch):
        # a wrong stuffle at the acceptance truncation M = 120 is a FAIL with
        # its exact witness (exit 1), not a usage error
        good = export.stuffle_q
        monkeypatch.setattr(export, "stuffle_q", lambda x, y: good(x, y) + EPoly.gen(2))
        code, out, err = run_cli(capsys, "verify", "double-shuffle", "--max-weight", "2")
        assert code == 1 and err == ""
        witnesses = [ln for ln in out.splitlines() if ln.startswith("    witness: ")]
        assert out.count("[FAIL]") == len(witnesses) > 0
        residuals = [w.split("residual ")[1].split(" +/- ")[0] for w in witnesses]
        assert max(map(len, residuals)) > 4300
        for text in residuals:
            assert parse_exact(text) != 0

    def test_single_ohno_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "ohno", "--index", "2", "--n", "5", "--m", "1"
        )
        assert code == 0
        assert "[PASS] ohno: n=5 k=(2) m=1" in out

    @pytest.mark.parametrize(
        "index, n, code, out, err",
        [
            ("2", "5", 0, "[PASS] ohno: n=5 k=(2) m=1\n    lhs = -3 + 9*z - 9*z^2 + 3*z^3\n"
             "    rhs = -3 + 9*z - 9*z^2 + 3*z^3\n", ""),
            ("1bar", "9", 2, "", "error: k must avoid 1bar\n"),
            ("2", "2", 2, "", "error: need m >= 0 and n >= dep(k)+m+1, got m=1, n=2\n"),
            ("", "9", 2, "", "error: k must be nonempty\n"),
        ],
    )
    def test_single_ohno_output(self, capsys, index, n, code, out, err):
        argv = ("verify", "ohno", "--index", index, "--n", n, "--m", "1")
        assert run_cli(capsys, *argv) == (code, out, err)

    def test_suite_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "log-formulas", "--order", "4")
        assert code == 0
        assert "log-formulas: 2/2 cases verified" in out

    def test_zero_flag_values_are_honoured(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "zn-stuffle", "--n", "3", "--max-weight", "0", "--quiet"
        )
        assert code == 0
        assert out.strip() == "zn-stuffle: 1/1 cases verified"

    def test_ones_bar_range_start(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ones-bar", "--n", "5:6")
        assert code == 0
        assert "n=4" not in out and "n=5 r=4" in out and "n=6 r=5" in out
        assert "ones-bar: 11/11 cases verified" in out

    def test_order_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "delta-factorization", "--order", "0")
        assert code == 2
        assert "order >= 1" in err

    def test_ones_bar_rejects_max_n(self, capsys):
        # ones-bar takes its n only from --n; --n 2:3 runs what --max-n 3 ran
        code, out, err = run_cli(capsys, "verify", "ones-bar", "--max-n", "3")
        assert code == 2
        assert out == "" and "does not take --max-n" in err
        code, out, _ = run_cli(capsys, "verify", "ones-bar", "--n", "2:3")
        assert code == 0
        assert "n=3 r=2" in out and "n=4" not in out
        assert "ones-bar: 5/5 cases verified" in out

    def test_every_suite_parameter_has_one_flag(self):
        params = [param for suite in verify.SUITES.values() for param in suite.params]
        assert set(params) == set(_SUITE_FLAGS)
        assert len(params) == 29

    @pytest.mark.parametrize("value", ["5:", ":5"])
    def test_open_n_range_rejected(self, capsys, value):
        # an A:B range needs both ends; 5: is not read as 5
        with pytest.raises(SystemExit) as exc:
            main(["verify", "ones-bar", "--n", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --n" in err and f"'{value}'" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("ones-bar", "--n", "5:"), "--n"),
            (("log-formulas", "--order", "x"), "--order"),
            (("cyc-ohno", "--p", "5,x"), "--p"),
        ],
    )
    def test_bad_flag_value_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and f"'{argv[-1]}'" in err
        assert "_size" not in err and "_parse" not in err

    def test_repeated_prime_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "fmzv", "--p", "5,7,5")
        assert code == 2
        assert out == "" and "gives the prime 5 twice" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("double-shuffle", "--max-n", "5"),
            ("fmzv", "--index", "2"),
            ("ohno", "--index", "2", "--n", "5"),
            ("ones-bar", "--n", "2:4", "--max-n", "4"),
            ("ohno", "--index", "2", "--n", "5", "--m", "1", "--quiet"),
        ],
    )
    def test_flag_the_suite_would_ignore(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and "error" in err

    def test_suite_flag_with_all(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--max-weight", "1")
        assert code == 2
        assert out == "" and "--max-weight" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("log-formulas", "--order", "-1"),
            ("zn-stuffle", "--n", "3:3", "--max-weight", "-1"),
            ("ones-bar", "--n=-2:4"),
        ],
    )
    def test_negative_size(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("derivation", "--max-n", "0"),
            ("cyc-ohno", "--max-weight", "0"),
            ("zn-stuffle", "--n", "5:4"),
        ],
    )
    def test_selection_with_no_case(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "no case" in err and "0/0" not in out

    @pytest.mark.parametrize("suite", ["zn-duality", "ohno", "ones-bar"])
    def test_empty_n_range(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", suite, "--n", "5:4")
        assert code == 2
        assert out == "" and "--n 5:4 is an empty range" in err

    def test_quiet(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ones-bar", "--n", "2:6", "--quiet")
        assert code == 0
        assert out.strip().endswith("cases verified")

    def test_flags_read_through_nested_wrappers(self, monkeypatch):
        # the benchmark's tracer wraps the registered suite, itself a wrapper
        argvs = [("verify", "log-formulas", "--order", "2"),
                 ("verify", "log-formulas", "--order", "2", "--max-n", "3")]
        plain = [run_captured(argv) for argv in argvs]
        suite = verify.SUITES["log-formulas"]
        wrapped = functools.wraps(suite)(lambda *a, **kw: suite(*a, **kw))
        monkeypatch.setitem(verify.SUITES, "log-formulas",
                            functools.wraps(wrapped)(lambda *a, **kw: wrapped(*a, **kw)))
        assert [run_captured(argv) for argv in argvs] == plain
        assert plain[0][0] == 0 and plain[1][0] == 2 and "does not take --max-n" in plain[1][2]


class TestExport:
    def test_json_roundtrip(self):
        text = render_json(relation_records("derivation", 1, 2))
        records = parse_json(text)
        assert render_json(records) == text
        assert all(r["verified"] for r in records)
        assert all(r["kind"] == "derivation" for r in records)

    def test_derivation_record_content(self):
        text = render_json(relation_records("derivation", 1, 2))
        records = parse_json(text)
        by_word = {tuple(r["word"]): r for r in records if r["n"] == 1}
        rec = by_word[("2",)]
        comb = record_combination(rec)
        from qharmonic.algebra import EPoly

        assert comb == EPoly({(3,): 1, (2, 1): -1})

    def test_derivation_records_reverify(self):
        text = render_json(relation_records("derivation", 2, 3))
        qv = QValue(Fraction(1, 2))
        for rec in parse_json(text):
            cv = Zq_eval(record_combination(rec), qv, 120)
            assert abs(cv.value) <= cv.tail_bound

    def test_ohno_records(self):
        records = ohno_records(6, 2, max_m=1)
        assert records
        for rec in records:
            assert rec["verified"]
            assert zn_map(record_combination(rec), rec["n"]).is_zero()

    def test_ohno_record_weights(self):
        records = ohno_records(5, 2, max_m=1)
        rec = next(r for r in records if r["n"] == 5 and r["word"] == ["2"] and r["m"] == 1)
        coeffs = record_combination(rec).coefficients()
        from qharmonic.coeff import Laurent

        # LHS indices (1,2), (2,1) with +1; RHS weights 2h on (2) and 1 on (3)
        assert coeffs[(1, 2)] == Laurent(1)
        assert coeffs[(2, 1)] == Laurent(1)
        assert coeffs[(2,)] == Laurent.h(1, -2)
        assert coeffs[(3,)] == Laurent(-1)

    def test_csv(self):
        text = render_csv(relation_records("derivation", 1, 1))
        lines = text.strip().splitlines()
        assert lines[0] == "kind,n,word,m,combination,verified"
        assert len(lines) > 1

    def test_weight_ceiling(self):
        with pytest.raises(OutOfRange):
            relation_records("derivation", 1, 9)

    def test_cli_export_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rels.json"
        code, _, _ = run_cli(
            capsys,
            "export",
            "--kind",
            "derivation",
            "--max-n",
            "1",
            "--max-weight",
            "2",
            "--out",
            str(out_path),
        )
        assert code == 0
        records = parse_json(out_path.read_text())
        assert records and all(r["verified"] for r in records)


    @pytest.mark.parametrize("flag", ["--max-n", "--max-weight", "--max-m"])
    def test_negative_export_size(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--kind", "ohno", flag, "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "derivation", "--max-n", "0"),
            ("--kind", "derivation", "--max-weight", "0"),
            ("--kind", "ohno", "--max-n", "1"),
            ("--kind", "ohno", "--max-n", "2", "--max-weight", "1", "--format", "csv"),
        ],
    )
    def test_export_selecting_no_record(self, capsys, argv):
        code, out, err = run_cli(capsys, "export", *argv)
        assert code == 2
        assert out == "" and "no record" in err

    def test_max_m_only_for_ohno(self, capsys):
        code, out, err = run_cli(capsys, "export", "--kind", "derivation", "--max-m", "5")
        assert code == 2
        assert out == "" and "does not take --max-m" in err


class TestProfile:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "zetaq", "2", "--q", "1/2", "--M", "10"),
            ("export", "--kind", "derivation", "--max-n", "1", "--max-weight", "2"),
            ("verify", "derivation", "--max-n", "1", "--max-weight", "2", "--quiet"),
            ("zn", "2", "--n", "3"),
        ],
    )
    def test_stdout_unchanged(self, capsys, argv):
        code, plain, _ = run_cli(capsys, *argv)
        code_p, profiled, err = run_cli(capsys, "--profile", *argv)
        assert code == code_p == 0
        assert profiled == plain
        assert "Ordered by: internal time" in err and "tottime" in err

    def test_error_still_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "--profile", "dual", "2,x,1")
        assert code == 2
        assert out == "" and "error" in err and "tottime" in err


def run_module(*argv, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """qsh in a child interpreter that imports the same package as this
    process, with env added to its environment."""
    src = str(Path(qharmonic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qharmonic.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


#: --q values that are not a rational in (0, 1).
BAD_Q = ("1/0", "abc", "3/2", "0")

#: Flag values that must exit 2 with one error line.
MALFORMED_FLAGS = (
    [("eval", "zetaq", "2", "--q", q) for q in BAD_Q]
    + [("verify", "double-shuffle", "--q", q, "--max-weight", "1") for q in BAD_Q]
    + [("eval", "zetaq", "2", "--M", "0")]
    + [("verify", "varpi-l", "--p", "0"), ("verify", "fmzv", "--p", "4"),
       ("verify", "cyc-ohno", "--p", "9"), ("verify", "fmzv", "--p", "5,1")]
)


#: Standard-library modules qsh start-up must not load: inspect and
#: dataclasses pull in ast, dis and tokenize, and typing is slow to import.
SLOW_IMPORTS = ("inspect", "dataclasses", "typing", "ast", "dis", "tokenize")


class TestEntryPoint:
    def test_import_leaves_out_slow_modules(self):
        # -S skips site hooks, which may import typing themselves
        src = str(Path(qharmonic.__file__).resolve().parents[1])
        code = f"import sys, qharmonic.cli; print([m for m in {SLOW_IMPORTS} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    def test_module_invocation(self):
        proc = run_module("dual", "2,3,1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,2,1,2"

    @pytest.mark.parametrize("argv", MALFORMED_FLAGS)
    def test_malformed_flag_exits_2(self, argv):
        # exit 1 means a counterexample, so a bad flag must never reach it
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_without_a_traceback(self, unbuffered):
        # as in `qsh verify ones-bar | head -1` once head has read its line;
        # buffered, the error comes at the last flush, else at the first print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module("verify", "ones-bar", "--n", "2:3", stdout=write_end,
                              PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.parametrize("target", [".", "missing/rels.json"])
    def test_out_path_that_cannot_be_opened_exits_2(self, tmp_path, target):
        # a directory, or a file under a missing directory
        out_path = tmp_path / target
        proc = run_module("export", "--kind", "ohno", "--max-n", "5", "--max-weight", "2",
                          "--out", str(out_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: --out ") and proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


#: A verify case line ends in its time, which differs from run to run.
CASE_TIME = re.compile(r" \(\d+\.\d ms\)$", re.MULTILINE)


def run_captured(argv):
    """main(argv) in this process: (exit code, stdout, stderr), case times
    blanked; argparse's SystemExit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, CASE_TIME.sub("", out.getvalue()), err.getvalue()


def workload_argvs():
    sizes = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    return [
        tuple(step["argv"])
        for workloads in sizes.values()
        for steps in workloads.values()
        for step in steps
        if "argv" in step
    ]


class TestSharedParser:
    """main() builds its parser once per process; a fresh parser is the oracle."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps usage lines at the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    def test_same_results_as_a_fresh_parser(self):
        argvs = (
            [tuple(command.split(" ")) for command in sorted(DIGESTS)]
            + workload_argvs()
            + MALFORMED_FLAGS
        )
        shared = [run_captured(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run_captured(argv))
        for argv, got, want in zip(argvs, shared, fresh):
            assert got == want, argv

    def test_interleaved_calls_behave_as_fresh_processes(self):
        code, out, err = run_captured(("--profile", "dual", "2,3,1"))
        assert (code, out) == (0, "1,2,1,2\n") and "tottime" in err
        argvs = [
            ("verify", "nosuch"),
            ("verify", "ohno", "--index", "2", "--n", "5", "--m", "1"),
            ("verify", "ohno", "--n", "4:4"),
            ("export", "--kind", "ohno", "--max-n", "5", "--max-weight", "2", "--format", "csv"),
            ("export", "--kind", "ohno", "--max-n", "5", "--max-weight", "2"),
        ]
        for argv in argvs:
            proc = run_module(*argv)
            want = (proc.returncode, CASE_TIME.sub("", proc.stdout), proc.stderr)
            assert run_captured(argv) == want, argv

    def test_parser_built_once_for_many_calls(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.__wrapped__()
        once = len(built)
        assert once > 1
        built.clear()
        build_parser.cache_clear()
        for argv in (["dual", "2,3,1"], ["zn", "2", "--n", "3"], ["dual", "2,x"],
                     ["stuffle", "2", "3"], ["shuffle", "ab", "ab"]):
            main(argv)
        capsys.readouterr()
        assert len(built) == once
