"""Command-line surface: contracted invocations, exit codes, report schema."""

import argparse
import builtins
import csv
import dataclasses
import logging
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from lfunlab import chars, cli, expsum, lfun, meanval
from lfunlab.cache import ReportCache
from lfunlab.chars import get_table
from lfunlab.meanval import MeanValueReport
from lfunlab.specfun import ShiftParam

CSV_HEADER = (
    "target,q,a_num,a_den,k,lhs_re,lhs_im,paper_main,oracle_main,"
    "residual,normalized_residual,route_agreement"
)


def run_cli(*argv):
    return cli.run(list(argv))


def refused_exit_code(*argv):
    """The exit code of a command line the parser refuses (argparse exits)."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    return exc.value.code


def run_fresh(*argv):
    """The command in a fresh interpreter: (exit code, stdout, stderr)."""
    # The child finds the package where this process imported it from,
    # also when pytest put src/ on sys.path rather than on PYTHONPATH.
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "lfunlab.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_version_2_entries(cache_dir, moduli, a_num, a_den):
    """The .npz archives a version-2 cache kept for an eq1 sweep: the real
    tables, and closed-route L-vectors of zeros that would change the CSV."""
    cache_dir.mkdir()
    for q in moduli:
        t = chars.build_character_table(q)
        entries = {f"table_q{q}.npz": ({"q": q, "phi": t.phi, "exponent": t.exponent,
                                        "components": [[c.prime_power, list(c.generators), list(c.orders)]
                                                       for c in t.components],
                                        "orders": list(t.orders)},
                                       {"residue_index": t.residue_index, "conjugate_map": t.conjugate_map})}
        for method in ("closed_direct", "closed_lemma1"):
            entries[f"lvec_q{q}_a{a_num}_{a_den}_{method}.npz"] = (
                {"q": q, "a_num": a_num, "a_den": a_den, "method": method, "length": t.phi},
                {"values": np.zeros(t.phi, dtype=np.complex128)})
        for name, (meta, arrays) in entries.items():
            record = json.dumps({"version": 2, **meta}).encode()
            with open(cache_dir / name, "wb") as handle:
                np.savez(handle, meta=np.frombuffer(record, dtype=np.uint8), **arrays)
    return {p.name: p.read_bytes() for p in cache_dir.iterdir()}


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
        assert refused_exit_code("lvalue", "--modulus", "4") == 2

    def test_verify_refuses_both_q_and_p(self, monkeypatch, capsys):
        # Either flag names the modulus; given both, neither is dropped silently.
        monkeypatch.setattr(cli, "get_table", lambda q: pytest.fail(f"built a table mod {q}"))
        assert run_cli("verify", "--target", "lemma2", "--q", "13", "--p", "17", "--f", "1,0,3,2") == 2
        assert capsys.readouterr().err == "error: --q and --p both name the modulus; give one of them\n"

    def test_numeric_failure_exits_1(self, capsys, monkeypatch):
        # force an identity breach by corrupting the defect computation
        monkeypatch.setattr(cli, "lemma2_defect", lambda t, f: 1.0)
        assert run_cli("verify", "--target", "lemma2", "--p", "13", "--f", "0,1") == 1
        capsys.readouterr()

    def test_orthogonality_with_swapped_rows_exits_1(self, monkeypatch, capsys):
        t = chars.build_character_table(13)
        residue_index = t.residue_index.copy()
        residue_index[[2, 4]] = residue_index[[4, 2]]  # 2 and 4 = 2^2 swap their logs
        broken = dataclasses.replace(t, residue_index=residue_index)
        monkeypatch.setattr(cli, "get_table", lambda q: broken)
        assert run_cli("verify", "--target", "orthogonality", "--q", "13") == 1
        assert "defect for q=13: inf" in capsys.readouterr().out

    @pytest.mark.parametrize("q", [15, 16])
    @pytest.mark.parametrize("field, edit", [
        ("residue_index", lambda t, a: np.where(np.arange(t.q) == 0, 0, a)),  # a non-unit marked
        ("residue_index", lambda t, a: np.where(a >= 0, a // 4 * 4 + (a // 4 + a % 4) % 4, a)),  # (e0, e0 + e1)
        ("orders", lambda t, a: a[::-1]),
    ])
    def test_orthogonality_with_broken_logs_exits_1(self, q, field, edit, monkeypatch, capsys):
        t = chars.build_character_table(q)
        assert t.orders == (2, 4)
        broken = dataclasses.replace(t, **{field: edit(t, getattr(t, field))})
        monkeypatch.setattr(cli, "get_table", lambda q: broken)
        assert run_cli("verify", "--target", "orthogonality", "--q", str(q)) == 1
        assert f"defect for q={q}: inf" in capsys.readouterr().out

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
        (("--out", "missing/report.csv"), "output directory 'missing' does not exist"),
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

        monkeypatch.setattr(expsum, "_certified_walk", no_evaluation)
        monkeypatch.setattr(expsum, "_shifted_sums", no_evaluation)
        start = time.perf_counter()
        assert run_cli("verify", "--target", target, "--p", "99991", "--f", "1,2,3,4") == 2
        assert time.perf_counter() - start < 1.0
        assert "over their budget" in capsys.readouterr().err

    def test_lemma2_catches_a_perturbed_character_side(self, monkeypatch, capsys):
        # The difference table never evaluates f through _poly_values_mod, so
        # one wrong residue of f on the S(chi, f) side breaks the identity.
        argv = ("verify", "--target", "lemma2", "--p", "101", "--f", "1,0,3,2")
        assert run_cli(*argv) == 0
        horner = expsum._poly_values_mod

        def perturbed(coefficients, p, xs):
            values = horner(coefficients, p, xs)
            values[xs == 2] = (values[xs == 2] + 1) % p
            return values

        monkeypatch.setattr(expsum, "_poly_values_mod", perturbed)
        assert run_cli(*argv) == 1
        assert "defect" in capsys.readouterr().out

    # At N = 1e16 q the truncated bound is about 2e-16, below the closed
    # routes' rounding; the gap is held to the sum of both routes' bounds.
    LEMMA1_AT_LARGE_N = ("verify", "--target", "lemma1", "--q", "101", "--a", "3/2",
                         "--n-terms", "1010000000000000000")

    def test_lemma1_at_large_n_compares_with_the_summed_bounds(self, capsys):
        assert run_cli(*self.LEMMA1_AT_LARGE_N) == 0
        assert "excess over the summed bounds 1.000e-11:" in capsys.readouterr().out

    def test_lemma1_at_large_n_catches_a_perturbed_truncated_route(self, monkeypatch, capsys):
        truncated_vector = lfun.truncated_vector

        def perturbed(t, a, n_terms):
            values, bound = truncated_vector(t, a, n_terms)
            return values + 1e-9, bound

        monkeypatch.setattr(lfun, "truncated_vector", perturbed)
        assert run_cli(*self.LEMMA1_AT_LARGE_N) == 1
        capsys.readouterr()

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

    @pytest.mark.parametrize("argv", [
        ("lvalue", "--q", "5", "--a", "1", "--method", "closed_direct", "--n-terms", "7"),
        ("lvalue", "--q", "5", "--a", "1", "--n-terms", "50"),
        ("verify", "--target", "thm2", "--p", "5", "--f", "1,2", "--n-terms", "50"),
    ])
    def test_stray_n_terms_exits_2_before_any_work(self, argv, monkeypatch, capsys):
        def no_build(q):
            raise AssertionError(f"table mod {q} built before --n-terms was checked")

        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", no_build)
        assert run_cli(*argv) == 2
        assert "--n-terms applies only to" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--target", "lemma2", "--p", "13", "--f", "1,0,3,2", "--a", "5", "--k", "3"), "--a"),
        (("verify", "--target", "lemma3", "--p", "13", "--f", "1,0,3,2", "--a", "2"), "--a"),
        (("verify", "--target", "orthogonality", "--q", "13", "--a", "1"), "--a"),
        (("verify", "--target", "orthogonality", "--q", "13", "--k", "2"), "--k"),
        (("verify", "--target", "lemma1", "--q", "13", "--k", "2"), "--k"),
        (("verify", "--target", "lemma2", "--p", "13", "--f", "1,0,3,2", "--k", "3"), "--k"),
        (("verify", "--target", "lemma3", "--p", "13", "--f", "1,0,3,2", "--k", "3"), "--k"),
        (("verify", "--target", "thm2", "--p", "13", "--f", "1,0,3,2", "--k", "3"), "--k"),
        (("verify", "--target", "orthogonality", "--q", "13", "--f", "1,2"), "--f"),
        (("verify", "--target", "lemma1", "--q", "13", "--f", "1,2"), "--f"),
        (("verify", "--target", "recombination", "--q", "35", "--k", "2", "--f", "1,2"), "--f"),
    ])
    def test_stray_verify_flag_exits_2_before_any_work(self, argv, flag, monkeypatch, capsys):
        def no_build(q):
            raise AssertionError(f"table mod {q} built before {flag} was checked")

        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", no_build)
        assert run_cli(*argv) == 2
        assert f"error: {flag} applies only to verify --target" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("eq1", "--a", "3/2", "--k", "3"), "--k applies only to sweep --target thm1"),
        (("lemma4", "--a", "2", "--f", "1,2"), "--f applies only to sweep --target thm2"),
        (("lemma4", "--a", "2", "--degree", "3"), "--degree applies only to sweep --target thm2"),
        (("thm1", "--a", "2", "--k", "3", "--degree", "3"), "--degree applies only to sweep --target thm2"),
        (("eq1", "--a", "3/2", "--seed", "4"), "--seed applies only to sweep --target thm2"),
        (("thm1", "--a", "2"), "sweep --target thm1 requires --k"),
        (("thm2", "--a", "2", "--f", "1,2", "--degree", "3"), "--f and --degree both set the thm2 polynomial"),
        (("thm2", "--a", "2"), "thm2 sweep needs --f or a degree to sample"),
    ])
    def test_stray_or_missing_sweep_flag_exits_2_before_any_work(self, argv, message, monkeypatch, capsys):
        def no_build(q):
            raise AssertionError(f"table mod {q} built before the sweep flags were checked")

        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", no_build)
        assert run_cli("sweep", "--moduli", "7,11", "--target", *argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_sweep_seed_defaults_to_0(self, capsys):
        argv = ("sweep", "--target", "thm2", "--moduli", "7,11,13", "--a", "2", "--degree", "3")
        assert run_cli(*argv) == 0
        default = capsys.readouterr().out
        assert run_cli(*argv, "--seed", "0") == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("argv", [
        ("verify", "--target", "lemma1", "--q", "13"),
        ("verify", "--target", "thm2", "--p", "13", "--f", "1,0,3,2"),
        ("verify", "--target", "recombination", "--q", "35", "--k", "2"),
    ])
    def test_verify_shift_defaults_to_1(self, argv, capsys):
        assert run_cli(*argv) == 0
        default = capsys.readouterr().out
        assert run_cli(*argv, "--a", "1") == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("argv", [
        ("lvalue", "--q", "5", "--a", "1", "--method", "truncated", "--n-terms", "50"),
        ("verify", "--target", "lemma1", "--q", "5", "--a", "1", "--n-terms", "50"),
    ])
    def test_n_terms_reaches_the_truncated_route(self, argv, monkeypatch, capsys):
        lengths = []
        truncated_vector = lfun.truncated_vector

        def recording(t, a, n_terms):
            lengths.append(n_terms)
            return truncated_vector(t, a, n_terms)

        monkeypatch.setattr(lfun, "truncated_vector", recording)
        assert run_cli(*argv) == 0
        assert lengths == [50]
        capsys.readouterr()

    def test_success_paths_exit_0(self, capsys):
        assert run_cli("chars", "--q", "35") == 0
        assert run_cli("expsum", "--p", "7", "--f", "0,0,1") == 0
        assert run_cli("verify", "--target", "orthogonality", "--q", "48") == 0
        assert run_cli("verify", "--target", "lemma1", "--q", "12", "--a", "7/2") == 0
        assert run_cli("verify", "--target", "lemma3", "--p", "11", "--f", "0,0,0,1") == 0
        assert run_cli("verify", "--target", "thm2", "--p", "7", "--f", "0,1,1", "--a", "2") == 0
        assert run_cli("verify", "--target", "recombination", "--q", "35", "--k", "2", "--a", "2") == 0
        capsys.readouterr()


def test_verify_lemma3_counts_without_building_the_entries(monkeypatch, capsys):
    def no_entry(*args, **kwargs):
        raise AssertionError("verify lemma3 built a per-x audit entry")

    monkeypatch.setattr(expsum, "CompletedSumAudit", no_entry)
    assert run_cli("verify", "--target", "lemma3", "--p", "13", "--f", "0,0,0,1") == 0
    assert "completed sums for p=13, f=0,0,0,1: 11 values, 2 degenerate [3, 9]" in capsys.readouterr().out


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
        lhs = meanval.build_report(meanval.make_query("eq1", 5, ShiftParam.of(1))).lhs
        assert float(lhs_re) == pytest.approx(lhs.real, rel=1e-14)

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
                lhs=complex(12.345678901234567, 1e-17), paper_main=10.0,
                oracle_main=None, residual=2.345678901234567, normalized_residual=0.5,
                route_agreement=0.0, flags=(),
            ),
            MeanValueReport(
                target="thm1", q=35, a=ShiftParam.of("7/2"), k=3, f=None, method="closed_lemma1",
                lhs=complex(-0.1, -2.5e-12), paper_main=-1.0 / 3,
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

    def test_output_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a long complex dot product over its threads, so a
        # statistic reduced through BLAS prints other last digits under 1 and
        # 2 threads at q near 2e4.  (A host with one CPU runs one thread.)
        commands = [
            ["sweep", "--target", "lemma4", "--moduli", "20011", "--a", "2"],
            ["sweep", "--target", "thm1", "--moduli", "20011", "--a", "2", "--k", "3"],
            ["verify", "--target", "recombination", "--q", "20011", "--k", "3", "--a", "2"],
            ["verify", "--target", "thm2", "--p", "19997", "--f", "1,0,3,2"],
        ]
        script = ("import contextlib, io, json, sys\nfrom lfunlab import cli\nruns = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    out, err = io.StringIO(), io.StringIO()\n"
                  "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                  "        runs.append([cli.run(argv), out.getvalue(), err.getvalue()])\n"
                  "print(json.dumps(runs))\n")
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
        outputs = [subprocess.run([sys.executable, "-c", script, json.dumps(commands)], capture_output=True,
                                  text=True, check=True,
                                  env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert [code for code, _, _ in json.loads(outputs[0])] == [0, 0, 0, 0]
        assert outputs[0] == outputs[1]

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
        assert refused_exit_code("chars", "--q", "35", "--cache-dir", cache_dir) == 2
        assert not os.path.exists(cache_dir)
        run_cli("sweep", "--target", "eq1", "--moduli", "35", "--a", "1", "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "entries: 0 character tables, 1 L-vector records" in out
        assert run_cli("cache", "--cache-dir", cache_dir, "--clear") == 0
        out = capsys.readouterr().out
        assert "cleared 1" in out

    @pytest.mark.parametrize("argv", [
        ("lvalue", "--q", "7"),
        ("chars", "--q", "7"),
        ("verify", "--target", "orthogonality", "--q", "7"),
        ("verify", "--target", "lemma1", "--q", "7"),
        ("verify", "--target", "lemma2", "--p", "7", "--f", "0,1"),
        ("verify", "--target", "thm2", "--p", "7", "--f", "0,1"),
        ("verify", "--target", "recombination", "--q", "7", "--k", "2"),
    ])
    def test_cache_dir_neither_stores_nor_reads_a_table(self, argv, tmp_path, monkeypatch, capsys):
        # Only sweep takes a cache flag: chars, lvalue and verify refuse
        # --cache and --cache-dir before any work, and build their table in
        # process whatever a cache directory holds.
        assert run_cli(*argv) == 0
        plain = capsys.readouterr().out
        cache_dir = tmp_path / "cache"
        for flag in (("--cache-dir", str(cache_dir)), ("--cache",)):
            assert refused_exit_code(*argv, *flag) == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not cache_dir.exists()
        ReportCache(str(cache_dir)).put_table(chars.build_character_table(7))
        get_table.cache_clear()
        built = []
        build = chars.build_character_table
        monkeypatch.setattr(chars, "build_character_table", lambda q: built.append(q) or build(q))
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == plain
        assert built == [7]
        get_table.cache_clear()

    def test_warm_sweep_evaluates_no_digamma(self, tmp_path, monkeypatch):
        # thm1 reads the chi(k) column, so the warm pass builds its tables
        # (in process, never from disk) but evaluates no L-route.
        args = ("sweep", "--target", "thm1", "--moduli", "7,16,40,97,101", "--a", "5/2", "--k", "3")
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        cache_dir = tmp_path / "cache"
        assert run_cli(*args, "--out", str(cold), "--cache-dir", str(cache_dir)) == 0
        assert not list(cache_dir.glob("table_*"))

        def no_digamma(*args):
            raise AssertionError("an L-route evaluated a psi grid on a warm cache")

        built = []
        build = chars.build_character_table
        monkeypatch.setattr(chars, "build_character_table", lambda q: built.append(q) or build(q))
        monkeypatch.setattr(lfun, "digamma", no_digamma)
        get_table.cache_clear()
        assert run_cli(*args, "--out", str(warm), "--cache-dir", str(cache_dir)) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert built == [7, 16, 40, 97, 101]
        get_table.cache_clear()

    EQ1_SWEEP = ("sweep", "--target", "eq1", "--moduli", "7,16,40,97,101", "--a", "3/2")
    EQ1_RECORDS = {f"lvec_q{q}_a3_2.rec" for q in (7, 16, 40, 97, 101)}

    def test_cold_eq1_sweep_stores_one_record_per_modulus_and_no_table(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert run_cli(*self.EQ1_SWEEP, "--out", str(tmp_path / "cold.csv"), "--cache-dir", str(cache_dir)) == 0
        assert {p.name for p in cache_dir.iterdir()} == self.EQ1_RECORDS

    def test_warm_eq1_sweep_builds_no_table_and_evaluates_no_digamma(self, tmp_path, monkeypatch):
        plain, cold, warm = (tmp_path / n for n in ("plain.csv", "cold.csv", "warm.csv"))
        cache_dir = str(tmp_path / "cache")
        assert run_cli(*self.EQ1_SWEEP, "--out", str(plain)) == 0
        assert run_cli(*self.EQ1_SWEEP, "--out", str(cold), "--cache-dir", cache_dir) == 0

        def no_build(q):
            raise AssertionError(f"a warm eq1 sweep built the table mod {q}")

        def no_digamma(*args):
            raise AssertionError("an L-route evaluated a psi grid on a warm cache")

        monkeypatch.setattr(chars, "build_character_table", no_build)
        monkeypatch.setattr(lfun, "digamma", no_digamma)
        get_table.cache_clear()
        assert run_cli(*self.EQ1_SWEEP, "--out", str(warm), "--cache-dir", cache_dir) == 0
        assert warm.read_bytes() == cold.read_bytes() == plain.read_bytes()

    def test_parallel_sweeps_store_one_record_per_modulus(self, tmp_path):
        plain, cold, warm = (tmp_path / n for n in ("plain.csv", "cold.csv", "warm.csv"))
        cache_dir = tmp_path / "cache"
        assert run_cli(*self.EQ1_SWEEP, "--out", str(plain)) == 0
        for out in (cold, warm):
            assert run_cli(*self.EQ1_SWEEP, "--jobs", "2", "--out", str(out), "--cache-dir", str(cache_dir)) == 0
            assert {p.name for p in cache_dir.iterdir()} == self.EQ1_RECORDS
        assert warm.read_bytes() == cold.read_bytes() == plain.read_bytes()

    def test_a_cached_sweep_makes_its_directory_once_and_no_mkstemp(self, tmp_path, monkeypatch):
        made = []
        makedirs = os.makedirs
        monkeypatch.setattr(os, "makedirs", lambda *args, **kw: made.append(args[0]) or makedirs(*args, **kw))
        monkeypatch.setattr(tempfile, "mkstemp", lambda *args, **kw: pytest.fail("a record went through mkstemp"))
        monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", 100)  # four batches
        cache_dir = tmp_path / "cache"
        for expected in ([str(cache_dir)], []):  # cold, then warm
            made.clear()
            assert run_cli(*self.EQ1_SWEEP, "--out", str(tmp_path / "out.csv"), "--cache-dir", str(cache_dir)) == 0
            assert made == expected
            assert {p.name for p in cache_dir.iterdir()} == self.EQ1_RECORDS

    def test_single_route_callers_share_the_report_record(self, tmp_path, monkeypatch):
        cache = ReportCache(str(tmp_path / "cache"))
        lemma4_query = meanval.make_query("lemma4", 97, 2)
        lemma4 = meanval.build_report(lemma4_query).lhs
        meanval.build_report(meanval.make_query("eq1", 97, "5/2"), cache)
        meanval.build_report(lemma4_query, cache)
        written = {p.name: p.read_bytes() for p in Path(cache.directory).iterdir()}
        assert set(written) == {"lvec_q97_a5_2.rec", "lvec_q97_a0_1.rec"}

        def no_routes(*args, **kwargs):
            raise AssertionError("an L-route was computed despite the stored record")

        monkeypatch.setattr(lfun, "route_vectors_batch", no_routes)  # the one entry point of the routes
        eq1 = meanval.build_report(meanval.make_query("eq1", 97, "5/2", method="closed_lemma1"), cache)
        assert eq1.lhs.real > 0
        assert meanval.build_report(lemma4_query, cache).lhs == lemma4
        assert {p.name: p.read_bytes() for p in Path(cache.directory).iterdir()} == written

    def test_missing_or_discarded_record_recomputes_both_routes_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        route_vectors_batch = lfun.route_vectors_batch

        def recording(jobs, methods, n_terms=None):
            calls.append(list(methods))
            return route_vectors_batch(jobs, methods, n_terms)

        monkeypatch.setattr(lfun, "route_vectors_batch", recording)
        args = ("sweep", "--target", "eq1", "--moduli", "97", "--a", "3/2")
        cache_dir = tmp_path / "cache"
        record = cache_dir / "lvec_q97_a3_2.rec"
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert run_cli(*args, "--out", str(first), "--cache-dir", str(cache_dir)) == 0
        assert calls == [["closed_direct", "closed_lemma1"]]  # one call for both closed routes
        stored = record.read_bytes()

        def shorten():  # a sound record whose vectors are not phi(97) = 96 long
            ReportCache(str(cache_dir)).put_lvec(97, 3, 2, dict.fromkeys(
                ("closed_direct", "closed_lemma1"), np.zeros(95, dtype=np.complex128)))

        for spoil in (record.unlink, lambda: record.write_bytes(b"not a cache record"), shorten):
            spoil()
            calls.clear()
            assert run_cli(*args, "--out", str(again), "--cache-dir", str(cache_dir)) == 0
            assert calls == [["closed_direct", "closed_lemma1"]]
            assert again.read_bytes() == first.read_bytes()
            assert [p.name for p in cache_dir.iterdir()] == [record.name]
            assert record.read_bytes() == stored

    def test_per_method_records_are_neither_read_nor_deleted(self, tmp_path, monkeypatch, capsys, caplog):
        # The records an earlier version 3 kept: one per closed route, and the tables.
        args = ("sweep", "--target", "eq1", "--moduli", "7,11", "--a", "3/2")
        plain, cached = tmp_path / "plain.csv", tmp_path / "cached.csv"
        assert run_cli(*args, "--out", str(plain)) == 0
        cache_dir = tmp_path / "cache"
        cache = ReportCache(str(cache_dir))
        for q in (7, 11):
            cache.put_table(chars.build_character_table(q))
            for method in ("closed_direct", "closed_lemma1"):
                meta = {"q": q, "a_num": 3, "a_den": 2, "method": method, "length": q - 1}
                cache._write(str(cache_dir / f"lvec_q{q}_a3_2_{method}.rec"), meta,
                             (("values", "<c16"),), np.zeros(q - 1, dtype=np.complex128))
        leftovers = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        capsys.readouterr()
        opened = []
        real_open = builtins.open

        def recording_open(file, *rest, **kwargs):
            opened.append(os.path.basename(os.fspath(file)))
            return real_open(file, *rest, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        with caplog.at_level(logging.WARNING, logger="lfunlab"):
            assert run_cli(*args, "--out", str(cached), "--cache-dir", str(cache_dir)) == 0
        assert cached.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().err == ""
        assert not caplog.records
        assert not set(opened) & set(leftovers)
        assert all((cache_dir / name).read_bytes() == data for name, data in leftovers.items())
        assert run_cli("cache", "--cache-dir", str(cache_dir)) == 0
        assert "entries: 2 character tables, 6 L-vector records" in capsys.readouterr().out
        assert run_cli("cache", "--cache-dir", str(cache_dir), "--clear") == 0
        assert "cleared 8" in capsys.readouterr().out
        assert list(cache_dir.iterdir()) == []


    def test_version_2_entries_are_neither_read_nor_deleted(self, tmp_path, monkeypatch, capsys, caplog):
        args = ("sweep", "--target", "eq1", "--moduli", "7,11", "--a", "3/2")
        plain, cached = tmp_path / "plain.csv", tmp_path / "cached.csv"
        assert run_cli(*args, "--out", str(plain)) == 0
        cache_dir = tmp_path / "cache"
        leftovers = write_version_2_entries(cache_dir, (7, 11), 3, 2)
        capsys.readouterr()
        opened = []
        real_open = builtins.open

        def recording_open(file, *rest, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *rest, **kwargs)

        def no_load(*args, **kwargs):
            raise AssertionError("a version-2 archive was opened")

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(np, "load", no_load)
        with caplog.at_level(logging.WARNING, logger="lfunlab"):
            assert run_cli(*args, "--out", str(cached), "--cache-dir", str(cache_dir)) == 0
        assert cached.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().err == ""
        assert not caplog.records
        assert not [f for f in opened if f.endswith(".npz")]
        assert all((cache_dir / name).read_bytes() == data for name, data in leftovers.items())

    def test_cache_subcommand_counts_and_clears_version_2_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        write_version_2_entries(cache_dir, (7, 11), 3, 2)
        assert run_cli("cache", "--cache-dir", str(cache_dir)) == 0
        assert "entries: 2 character tables, 4 L-vector records" in capsys.readouterr().out
        assert run_cli("cache", "--cache-dir", str(cache_dir), "--clear") == 0
        assert "cleared 6" in capsys.readouterr().out
        assert list(cache_dir.iterdir()) == []


# Every option of every subcommand, in the order the parser declares them.
CLI_OPTIONS = {
    "chars": ["--q", "--out"],
    "lvalue": ["--q", "--a", "--j", "--method", "--n-terms"],
    "expsum": ["--p", "--f", "--j"],
    "verify": ["--target", "--q", "--p", "--a", "--k", "--f", "--n-terms"],
    "sweep": ["--target", "--primes", "--moduli", "--a", "--k", "--f", "--degree", "--seed", "--method",
              "--jobs", "--out", "--cache", "--cache-dir"],
    "cache": ["--cache-dir", "--clear"],
}


def test_cli_surface_pinned():
    # Adding or dropping a flag shows up as a change to CLI_OPTIONS.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: [s for action in p._actions if not isinstance(action, argparse._HelpAction)
                      for s in action.option_strings]
               for name, p in sub.choices.items()}
    assert surface == CLI_OPTIONS


class TestParserReuse:
    def test_parser_is_built_once_with_immutable_defaults(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            for action in p._actions:
                assert isinstance(action.default, (type(None), bool, int, float, str, tuple)), \
                    (name, action.dest, action.default)

    def test_second_command_keeps_nothing_of_the_first(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cache"
        first = ("sweep", "--target", "eq1", "--moduli", "7,11", "--a", "3/2")
        assert run_cli(*first, "--cache-dir", str(cache_dir)) == 0
        first_out = capsys.readouterr()
        written = {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}
        assert written

        def no_cache(directory):
            raise AssertionError(f"the second command opened the cache at {directory}")

        monkeypatch.setattr(cli, "ReportCache", no_cache)
        assert run_cli(*first) == 0
        second_out = capsys.readouterr()
        assert {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()} == written
        fresh_cache = str(tmp_path / "fresh-cache")
        assert run_fresh(*first, "--cache-dir", fresh_cache) == (0, first_out.out, first_out.err)
        assert run_fresh(*first) == (0, second_out.out, second_out.err)


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

    def test_recombination_reads_one_batch(self, monkeypatch, capsys):
        # L(1, chi), the tail and L(1, chi, a): one digamma call on psi(u/q)
        # and psi((u + a)/q) at the phi(q) units u, one transform of three rows.
        q, grids, rows = 2310, [], []
        digamma, transform = lfun.digamma, chars.CharacterTable._transform
        monkeypatch.setattr(lfun, "digamma", lambda x: grids.append(np.shape(x)) or digamma(x))
        monkeypatch.setattr(chars.CharacterTable, "_transform",
                            lambda self, grid: rows.append(len(grid)) or transform(self, grid))
        assert run_cli("verify", "--target", "recombination", "--q", str(q), "--k", "13", "--a", "3/2") == 0
        assert grids == [(2, get_table(q).phi)]
        assert rows == [3]
        capsys.readouterr()

    def test_chars_certifies_and_transforms_once(self, monkeypatch, capsys):
        certified, transformed = [], []
        certify, transform = chars._certifies_logs, chars.CharacterTable._transform
        monkeypatch.setattr(chars, "_certifies_logs", lambda t: certified.append(t.q) or certify(t))
        monkeypatch.setattr(chars.CharacterTable, "_transform",
                            lambda self, grid: transformed.append(len(grid)) or transform(self, grid))
        get_table.cache_clear()
        assert run_cli("chars", "--q", "1009") == 0
        assert certified == [1009] and transformed == [1]
        capsys.readouterr()
        get_table.cache_clear()


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
        ("verify", "--target", "orthogonality", "--q", "99991"),
        ("chars", "--q", "99991"),
    ])
    def test_report_and_verify_paths_never_build_it(self, argv, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError(f"dense character matrix mod {self.q} built")

        monkeypatch.setattr(chars.CharacterTable, "values_matrix", refuse)
        assert run_cli(*argv) == 0
        capsys.readouterr()

    def test_chars_at_the_table_bound_exits_0(self, capsys):
        # The log certificate is O(q): the largest table is checked in full.
        assert run_cli("chars", "--q", "99991") == 0
        out = capsys.readouterr().out
        assert "phi(q) = 99990" in out and "orthogonality defect" in out


class TestSmallSurfaces:
    def test_chars_out_json(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert run_cli("chars", "--q", "8", "--out", str(out_path)) == 0
        doc = json.loads(out_path.read_text())
        assert doc["q"] == 8 and doc["phi"] == 4
        assert set(doc) == {"q", "phi", "exponent", "principal_index", "orders", "residue_index",
                            "conjugate_map"}
        t = chars.build_character_table(8)
        assert doc["orders"] == [2, 2] and doc["residue_index"] == t.residue_index.tolist()
        assert doc["conjugate_map"] == t.conjugate_map.tolist()
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
        code, out, _ = run_fresh("lvalue", "--q", "4", "--a", "1")
        assert code == 0
        assert "0.34657359" in out
