"""Command-line surface: contracted invocations, exit codes, report schema."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lfunlab import cache, chars, cli, expsum, lfun, meanval
from lfunlab.chars import get_table
from lfunlab.meanval import MeanValueReport
from lfunlab.specfun import ShiftParam

CSV_HEADER = (
    "target,q,a_num,a_den,k,lhs_re,lhs_im,paper_main,oracle_main,"
    "residual,normalized_residual,route_agreement"
)


def run_cli(*argv):
    return cli.run(list(argv))


class TestContractedInvocations:
    def test_lvalue_q4_a1(self, capsys):
        assert run_cli("lvalue", "--q", "4", "--a", "1") == 0
        out = capsys.readouterr().out
        assert "0.34657359" in out

    def test_verify_lemma2_p13(self, capsys):
        assert run_cli("verify", "--target", "lemma2", "--p", "13", "--f", "1,0,3,2") == 0
        out = capsys.readouterr().out
        assert "defect" in out

    def test_sweep_lemma4_writes_row_per_prime(self, tmp_path, capsys):
        out_path = tmp_path / "lemma4.csv"
        assert run_cli(
            "sweep", "--target", "lemma4", "--primes", "101..199", "--a", "2",
            "--out", str(out_path),
        ) == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        primes = [n for n in range(101, 200) if all(n % d for d in range(2, n))]
        assert [int(r["q"]) for r in rows] == primes


class TestExitCodes:
    def test_validation_errors_exit_2(self, capsys):
        assert run_cli("verify", "--target", "lemma2", "--p", "12", "--f", "1,2") == 2
        assert run_cli("lvalue", "--q", "4", "--a", "-1") == 2
        assert run_cli("sweep", "--target", "lemma4", "--a", "2") == 2
        assert run_cli("sweep", "--target", "thm2", "--moduli", "5,7", "--a", "1") == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("lvalue", "--modulus", "4")
        assert exc.value.code == 2

    def test_numeric_failure_exits_1(self, capsys, monkeypatch):
        # force an identity breach by corrupting the defect computation
        monkeypatch.setattr(cli, "lemma2_defect", lambda t, f: 1.0)
        assert run_cli("verify", "--target", "lemma2", "--p", "13", "--f", "0,1") == 1
        capsys.readouterr()

    def test_orthogonality_with_swapped_rows_exits_1(self, monkeypatch, capsys):
        broken = chars.build_character_table(13)
        exps = broken.value_exponents.copy()
        exps[[1, 2]] = exps[[2, 1]]
        broken.value_exponents = exps
        monkeypatch.setattr(cli, "load_table", lambda q, cache: broken)
        assert run_cli("verify", "--target", "orthogonality", "--q", "13") == 1
        assert "defect for q=13: inf" in capsys.readouterr().out

    @pytest.mark.parametrize("j", ["99", "-1"])
    def test_expsum_index_out_of_range_exits_2(self, j, capsys):
        assert run_cli("expsum", "--p", "13", "--f", "1,0,3,2", "--j", j) == 2
        captured = capsys.readouterr()
        assert f"character index {j} out of range for modulus 13" in captured.err
        assert "S =" not in captured.out

    @pytest.mark.parametrize("flags, message", [
        (("--out", "report.txt"), "output path must end in .csv or .json"),
        (("--jobs", "0"), "--jobs must be at least 1"),
        (("--jobs", "-3"), "--jobs must be at least 1"),
    ])
    def test_bad_sweep_flags_fail_before_any_work(self, flags, message, tmp_path, monkeypatch, capsys):
        def no_build(q):
            raise AssertionError(f"table mod {q} built before the flags were checked")

        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", no_build)
        monkeypatch.chdir(tmp_path)
        assert run_cli("sweep", "--target", "eq1", "--moduli", "7,11", "--a", "1", *flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("target", ["thm2", "lemma2", "lemma3"])
    def test_oversized_difference_table_refused_before_any_work(self, target, monkeypatch, capsys):
        def no_evaluation(*args):
            raise AssertionError("difference sums evaluated past their budget")

        monkeypatch.setattr(expsum, "_difference_block_sums", no_evaluation)
        start = time.perf_counter()
        assert run_cli("verify", "--target", target, "--p", "99991", "--f", "1,2,3,4") == 2
        assert time.perf_counter() - start < 1.0
        assert "over their budget" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["thm2", "lemma2"])
    def test_difference_budget_checked_before_the_direct_side(self, target, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("direct side computed before the difference-table budget check")

        monkeypatch.setattr(meanval, "thm2_lhs_direct", no_work)
        monkeypatch.setattr(expsum, "weighted_char_sum_all", no_work)
        assert run_cli("verify", "--target", target, "--p", "99991", "--f", "1,2,3,4") == 2
        assert "over their budget" in capsys.readouterr().err

    def test_truncated_route_cost_does_not_grow_with_n(self, capsys):
        start = time.perf_counter()
        assert run_cli("lvalue", "--method", "truncated", "--q", "99991", "--j", "1",
                       "--n-terms", "99991000000") == 0
        assert time.perf_counter() - start < 2.0
        assert "j=1:" in capsys.readouterr().out

    @pytest.mark.parametrize("n_terms", ["1011", "909"])  # not a multiple of q; below 10q
    def test_bad_truncation_length_exits_2(self, n_terms, capsys):
        assert run_cli("lvalue", "--method", "truncated", "--q", "101", "--n-terms", n_terms) == 2
        assert "truncation length" in capsys.readouterr().err

    def test_success_paths_exit_0(self, capsys):
        assert run_cli("chars", "--q", "35") == 0
        assert run_cli("expsum", "--p", "7", "--f", "0,0,1") == 0
        assert run_cli("verify", "--target", "orthogonality", "--q", "48") == 0
        assert run_cli("verify", "--target", "lemma1", "--q", "12", "--a", "7/2") == 0
        assert run_cli("verify", "--target", "lemma3", "--p", "11", "--f", "0,0,0,1") == 0
        assert run_cli("verify", "--target", "thm2", "--p", "7", "--f", "0,1,1", "--a", "2") == 0
        assert run_cli("verify", "--target", "recombination", "--q", "35", "--k", "2", "--a", "2") == 0
        capsys.readouterr()


class TestReportSchema:
    def test_csv_header_and_sig_digits(self, tmp_path):
        out_path = tmp_path / "r.csv"
        run_cli("sweep", "--target", "eq1", "--moduli", "5,7", "--a", "1", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert len(row) == 12
        # 15 significant digits in float cells
        lhs_re = row[5]
        mantissa = lhs_re.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 15
        assert float(lhs_re) == pytest.approx(meanval.eq1_lhs(5, ShiftParam.of(1)), rel=1e-14)

    def test_csv_k_and_oracle_cells(self, tmp_path):
        out_path = tmp_path / "r.csv"
        run_cli("sweep", "--target", "lemma4", "--moduli", "5,7", "--a", "2", "--out", str(out_path))
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["k"] == "" for r in rows)
        assert all(r["oracle_main"] == "" for r in rows)
        run_cli("sweep", "--target", "thm1", "--moduli", "5,7", "--a", "1", "--k", "3",
                "--out", str(out_path))
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["k"] == "3" for r in rows)
        assert all(r["oracle_main"] != "" for r in rows)

    def test_json_mirrors_csv(self, tmp_path):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        args = ("sweep", "--target", "thm1", "--moduli", "5,7,11", "--a", "1", "--k", "2")
        run_cli(*args, "--out", str(csv_path))
        run_cli(*args, "--out", str(json_path))
        doc = json.loads(json_path.read_text())
        with csv_path.open() as handle:
            csv_rows = list(csv.DictReader(handle))
        assert len(doc["reports"]) == len(csv_rows)
        for jrow, crow in zip(doc["reports"], csv_rows):
            for field in ("target",):
                assert str(jrow[field]) == crow[field]
            for field in ("q", "a_num", "a_den", "k"):
                assert jrow[field] == int(crow[field])
            for field in ("lhs_re", "lhs_im", "paper_main", "oracle_main", "residual",
                          "normalized_residual", "route_agreement"):
                assert jrow[field] == pytest.approx(float(crow[field]), rel=1e-14)
            assert isinstance(jrow["flags"], list)
        assert "fit" in doc and "skipped" in doc

    def test_stdout_csv_when_no_out(self, capsys):
        assert run_cli("sweep", "--target", "lemma4", "--moduli", "5,7", "--a", "2") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER

    def test_empty_modulus_list_emits_header_only(self, tmp_path):
        out_path = tmp_path / "empty.csv"
        assert run_cli("sweep", "--target", "lemma4", "--moduli", "", "--a", "2",
                       "--out", str(out_path)) == 0
        assert out_path.read_text().splitlines() == [CSV_HEADER]

    def test_formatter_bytes_pinned(self):
        reports = [
            MeanValueReport(
                target="lemma4", q=7, a=ShiftParam.of(2), k=None, f=None, method="closed_direct",
                lhs=complex(12.345678901234567, 1e-17), lhs_imag_abs=1e-17, paper_main=10.0,
                oracle_main=None, residual=2.345678901234567, normalized_residual=0.5,
                route_agreement=0.0, flags=(),
            ),
            MeanValueReport(
                target="thm1", q=35, a=ShiftParam.of("7/2"), k=3, f=None, method="closed_lemma1",
                lhs=complex(-0.1, -2.5e-12), lhs_imag_abs=2.5e-12, paper_main=-1.0 / 3,
                oracle_main=-0.25, residual=0.23333333333333334, normalized_residual=-1.5e-300,
                route_agreement=3e-13, flags=("main_term_tension",),
            ),
        ]
        assert cli.render_csv(reports) == (
            CSV_HEADER + "\n"
            "lemma4,7,2,1,,12.3456789012346,1e-17,10,,2.34567890123457,0.5,0\n"
            "thm1,35,7,2,3,-0.1,-2.5e-12,-0.333333333333333,-0.25,0.233333333333333,-1.5e-300,3e-13\n"
        )
        assert json.loads(cli.render_json(reports)) == {
            "reports": [
                {
                    "target": "lemma4", "q": 7, "a_num": 2, "a_den": 1, "k": None,
                    "lhs_re": 12.345678901234567, "lhs_im": 1e-17, "paper_main": 10.0,
                    "oracle_main": None, "residual": 2.345678901234567,
                    "normalized_residual": 0.5, "route_agreement": 0.0, "flags": [],
                },
                {
                    "target": "thm1", "q": 35, "a_num": 7, "a_den": 2, "k": 3,
                    "lhs_re": -0.1, "lhs_im": -2.5e-12, "paper_main": -1.0 / 3,
                    "oracle_main": -0.25, "residual": 0.23333333333333334,
                    "normalized_residual": -1.5e-300, "route_agreement": 3e-13,
                    "flags": ["main_term_tension"],
                },
            ]
        }

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        code = run_cli("sweep", "--target", "lemma4", "--moduli", "5", "--a", "2",
                       "--out", str(tmp_path / "r.txt"))
        assert code == 2
        capsys.readouterr()


class TestDeterminismAndCache:
    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--target", "thm2", "--primes", "5..13", "--a", "1",
                "--degree", "3", "--seed", "9")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cache_does_not_change_output(self, tmp_path):
        plain, cached, warm = (tmp_path / n for n in ("p.csv", "c.csv", "w.csv"))
        args = ("sweep", "--target", "lemma4", "--primes", "101..149", "--a", "2")
        run_cli(*args, "--out", str(plain))
        cache_dir = str(tmp_path / "cache")
        run_cli(*args, "--out", str(cached), "--cache-dir", cache_dir)
        run_cli(*args, "--out", str(warm), "--cache-dir", cache_dir)  # warm hit
        assert plain.read_bytes() == cached.read_bytes()
        assert plain.read_bytes() == warm.read_bytes()

    def test_cache_subcommand_reports_and_clears(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_cli("chars", "--q", "35", "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "1 character tables" in out
        assert run_cli("cache", "--cache-dir", cache_dir, "--clear") == 0
        out = capsys.readouterr().out
        assert "cleared 1" in out

    @pytest.mark.parametrize("argv", [
        ("lvalue", "--q", "7"),
        ("chars", "--q", "7"),
        ("verify", "--target", "orthogonality", "--q", "7"),
        ("verify", "--target", "lemma1", "--q", "7"),
        ("verify", "--target", "lemma2", "--p", "7", "--f", "0,1"),
    ])
    def test_cache_dir_serves_the_table(self, argv, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cache"
        assert run_cli(*argv, "--cache-dir", str(cache_dir)) == 0
        assert (cache_dir / "table_q7.npz").exists()
        get_table.cache_clear()

        def no_build(q):
            raise AssertionError(f"table mod {q} rebuilt despite the cache")

        monkeypatch.setattr(chars, "build_character_table", no_build)
        assert run_cli(*argv, "--cache-dir", str(cache_dir)) == 0
        capsys.readouterr()


    @pytest.mark.parametrize("argv", [
        ("verify", "--target", "thm2", "--p", "101", "--f", "1,0,3,2"),
        ("verify", "--target", "recombination", "--q", "35", "--k", "2", "--a", "2"),
    ])
    def test_one_archive_decode_per_command(self, argv, tmp_path, monkeypatch, capsys):
        cache_dir = str(tmp_path / "cache")
        assert run_cli(*argv, "--cache-dir", cache_dir) == 0  # fills the cache
        get_table.cache_clear()
        meanval.clear_memo()
        decodes = []
        decode_table = cache._decode_table

        def counting(*args):
            decodes.append(args)
            return decode_table(*args)

        monkeypatch.setattr(cache, "_decode_table", counting)
        assert run_cli(*argv, "--cache-dir", cache_dir) == 0
        assert len(decodes) == 1
        capsys.readouterr()


class TestOnePathPerQuantity:
    @pytest.mark.parametrize("argv", [
        ("verify", "--target", "lemma1", "--q", "24", "--a", "3/2"),
        ("lvalue", "--q", "24", "--a", "2", "--method", "truncated"),
    ])
    def test_one_truncated_fold_per_command(self, argv, monkeypatch, capsys):
        calls = []
        folded_weights = lfun._folded_weights

        def counting(*args):
            calls.append(args)
            return folded_weights(*args)

        monkeypatch.setattr(lfun, "_folded_weights", counting)
        assert run_cli(*argv) == 0
        assert len(calls) == 1
        capsys.readouterr()


class TestNoDenseMatrix:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--target", "lemma4", "--moduli", "7,9,16,40", "--a", "3"),
        ("sweep", "--target", "eq1", "--moduli", "7,9,16,40", "--a", "3/2"),
        ("sweep", "--target", "thm1", "--moduli", "7,9,16,40", "--a", "2", "--k", "3"),
        ("sweep", "--target", "thm2", "--moduli", "7,11,13", "--a", "2", "--degree", "3"),
        ("sweep", "--target", "thm1", "--moduli", "7,16", "--a", "2", "--k", "3", "--method", "truncated"),
        ("lvalue", "--q", "24", "--a", "3/2"),
        ("expsum", "--p", "13", "--f", "1,0,3,2"),
        ("verify", "--target", "lemma1", "--q", "24", "--a", "3/2"),
        ("verify", "--target", "lemma2", "--p", "13", "--f", "1,0,3,2"),
        ("verify", "--target", "thm2", "--p", "13", "--f", "1,0,3,2", "--a", "2"),
        ("verify", "--target", "recombination", "--q", "35", "--k", "2", "--a", "2"),
    ])
    def test_report_and_verify_paths_never_build_it(self, argv, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError(f"dense character matrix mod {self.q} built")

        monkeypatch.setattr(chars.CharacterTable, "values_matrix", refuse)
        assert run_cli(*argv) == 0
        capsys.readouterr()

    def test_oversized_dense_request_exits_2(self, capsys):
        assert run_cli("chars", "--q", "99991") == 2
        assert "budget" in capsys.readouterr().err


class TestSmallSurfaces:
    def test_chars_out_json(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert run_cli("chars", "--q", "8", "--out", str(out_path)) == 0
        doc = json.loads(out_path.read_text())
        assert doc["q"] == 8 and doc["phi"] == 4
        assert len(doc["value_exponents"]) == 4
        capsys.readouterr()

    def test_lvalue_warns_below_one(self, capsys):
        run_cli("lvalue", "--q", "7", "--a", "1/2")
        out = capsys.readouterr().out
        assert "a >= 1" in out

    def test_lvalue_single_index_and_truncated(self, capsys):
        assert run_cli("lvalue", "--q", "12", "--a", "2", "--j", "3",
                       "--method", "truncated") == 0
        out = capsys.readouterr().out
        assert out.count("j=") == 1

    def test_expsum_single_index(self, capsys):
        assert run_cli("expsum", "--p", "5", "--f", "0,1", "--j", "2") == 0
        out = capsys.readouterr().out
        assert f"sqrt(p) = {math.sqrt(5):.6f}" in out

    def test_entry_point_runs(self):
        # The child finds the package where this process imported it from,
        # also when pytest put src/ on sys.path rather than on PYTHONPATH.
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "lfunlab.cli", "lvalue", "--q", "4", "--a", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "0.34657359" in proc.stdout
