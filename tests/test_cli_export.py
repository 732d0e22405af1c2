import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qharmonic
from qharmonic.cli import main
from qharmonic.evalq import QValue, Zq_eval
from qharmonic.export import (
    export_relations,
    ohno_records,
    parse_json,
    record_combination,
    render_json,
)
from qharmonic.cyclo import zn_map
from qharmonic.errors import OutOfRange


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

    def test_zn(self, capsys):
        code, out, _ = run_cli(capsys, "zn", "1bar", "--n", "3")
        assert code == 0
        assert out.strip() == "-1 + z (n=3)"

    def test_usage_error_bad_index(self, capsys):
        code, _, err = run_cli(capsys, "dual", "2,x,1")
        assert code == 2
        assert "error" in err

    def test_usage_error_bad_precondition(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ohno", "--index", "2", "--n", "2", "--m", "1")
        assert code == 2


class TestVerifyCommand:
    def test_single_ohno_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "ohno", "--index", "2", "--n", "5", "--m", "1"
        )
        assert code == 0
        assert "[PASS] ohno: n=5 k=(2) m=1" in out

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

    def test_ones_bar_honours_max_n(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ones-bar", "--max-n", "3")
        assert code == 0
        assert "n=3 r=2" in out and "n=4" not in out
        assert "ones-bar: 5/5 cases verified" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("double-shuffle", "--max-n", "5"),
            ("fmzv", "--index", "2"),
            ("ohno", "--index", "2", "--n", "5"),
            ("ones-bar", "--n", "2:4", "--max-n", "4"),
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


class TestExport:
    def test_json_roundtrip(self):
        text = export_relations("derivation", 1, 2, "json")
        records = parse_json(text)
        assert render_json(records) == text
        assert all(r["verified"] for r in records)
        assert all(r["kind"] == "derivation" for r in records)

    def test_derivation_record_content(self):
        text = export_relations("derivation", 1, 2, "json")
        records = parse_json(text)
        by_word = {tuple(r["word"]): r for r in records if r["n"] == 1}
        rec = by_word[("2",)]
        comb = record_combination(rec)
        from qharmonic.algebra import EPoly

        assert comb == EPoly({(3,): 1, (2, 1): -1})

    def test_derivation_records_reverify(self):
        text = export_relations("derivation", 2, 3, "json")
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
        combo = record_combination(rec)
        from qharmonic.algebra import EPoly
        from qharmonic.coeff import Laurent

        # LHS indices (1,2), (2,1) with +1; RHS weights 2h on (2) and 1 on (3)
        assert combo.terms[(1, 2)] == Laurent(1)
        assert combo.terms[(2, 1)] == Laurent(1)
        assert combo.terms[(2,)] == Laurent.h(1, -2)
        assert combo.terms[(3,)] == Laurent(-1)

    def test_csv(self):
        text = export_relations("derivation", 1, 1, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "kind,n,word,m,combination,verified"
        assert len(lines) > 1

    def test_weight_ceiling(self):
        with pytest.raises(OutOfRange):
            export_relations("derivation", 1, 9, "json")

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


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(qharmonic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qharmonic.cli", "dual", "2,3,1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,2,1,2"
