"""Command-line front end.

Subcommands:
  chars    print the character-group structure and defect diagnostics for q
  lvalue   evaluate L(1, chi, a) for the non-principal characters mod q
  expsum   weighted character sums and the complete sum for (p, f)
  verify   run one exact-identity check and exit nonzero on tolerance breach
  sweep    evaluate a mean-value target over many moduli; emit CSV/JSON rows
  cache    inspect or clear the on-disk cache

Examples:
  lfunlab lvalue --q 4 --a 1
  lfunlab verify --target lemma2 --p 13 --f 1,0,3,2
  lfunlab sweep --target lemma4 --primes 101..499 --a 2 --out lemma4.csv

Exit codes: 0 success, 2 validation error (bad flags or domain violations),
1 internal numeric failure (an asserted identity broke tolerance, or I/O).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import lfun, meanval
from .arith import euler_phi, factorize, is_prime
from .cache import ReportCache, default_cache_dir
from .chars import _MAX_MODULUS, get_table, nonprincipal_period_sum_defect, orthogonality_defect
from .expsum import (Polynomial, check_difference_budget, complete_sum, lemma2_defect, lemma3_report,
                     weighted_char_sum_all)
from .meanval import MeanValueReport, ResidualSeries, cross_terms, residual_sweep
from .specfun import ShiftParam

CSV_COLUMNS = (
    "target",
    "q",
    "a_num",
    "a_den",
    "k",
    "lhs_re",
    "lhs_im",
    "paper_main",
    "oracle_main",
    "residual",
    "normalized_residual",
    "route_agreement",
)


# ---------------------------------------------------------------------------
# Report serialization

def _report_row(r: MeanValueReport) -> dict:
    """The report's cells keyed by CSV_COLUMNS; every column not derived
    here is the report attribute of the same name."""
    derived = {
        "a_num": r.a.numerator,
        "a_den": r.a.denominator,
        "lhs_re": r.lhs.real,
        "lhs_im": r.lhs.imag,
    }
    return {c: derived[c] if c in derived else getattr(r, c) for c in CSV_COLUMNS}


def _csv_cell(value) -> str:
    """Empty for an inapplicable cell, 15 significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def render_csv(reports) -> str:
    """The fixed 12-column schema with 15-significant-digit floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = _report_row(r)
        writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def render_json(reports, series: ResidualSeries | None = None) -> str:
    """Same field names as the CSV, plus per-report flags and the sweep fit."""
    rows = []
    for r in reports:
        row = _report_row(r)
        row["flags"] = list(r.flags)
        rows.append(row)
    doc: dict = {"reports": rows}
    if series is not None:
        fit = {"beta": series.beta, "constant": series.constant}
        doc["fit"] = {name: None if math.isnan(value) else value for name, value in fit.items()}
        doc["skipped"] = [{"q": q, "reason": reason} for q, reason in series.skipped]
    return json.dumps(doc, indent=2) + "\n"


def _check_output_path(path: str) -> None:
    if not path.endswith((".csv", ".json")):
        raise ValueError(f"output path must end in .csv or .json, got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output directory {os.path.dirname(path)!r} does not exist")


def emit_report(reports, path: str | None, series: ResidualSeries | None = None) -> None:
    """Write reports to path (.csv or .json by extension); stdout if no path."""
    if path is None:
        sys.stdout.write(render_csv(reports))
        return
    _check_output_path(path)
    payload = render_json(reports, series) if path.endswith(".json") else render_csv(reports)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(payload)


# ---------------------------------------------------------------------------
# Argument parsing

def _parse_moduli(primes: str | None, moduli: str | None) -> tuple[int, ...]:
    if (primes is None) == (moduli is None):
        raise ValueError("exactly one of --primes A..B or --moduli n1,n2,... is required")
    if primes is not None:
        lo_hi = primes.split("..")
        if len(lo_hi) != 2:
            raise ValueError(f"--primes wants a range like 101..499, got {primes!r}")
        try:
            lo, hi = int(lo_hi[0]), int(lo_hi[1])
        except ValueError as exc:
            raise ValueError(f"--primes wants integer endpoints, got {primes!r}") from exc
        if lo > hi:
            raise ValueError(f"--primes range is empty: {primes!r}")
        # the scan stops at the first prime over the table bound, which the sweep refuses before any work
        bound = _MAX_MODULUS
        over = next((n for n in range(max(lo, bound + 1), hi + 1) if is_prime(n)), None)
        return tuple(n for n in range(max(lo, 2), min(hi, bound) + 1) if is_prime(n)) + ((over,) if over else ())
    try:
        return tuple(int(tok.strip()) for tok in moduli.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"--moduli wants a comma list of integers, got {moduli!r}") from exc


# For each target of verify and sweep: the flags it reads, beyond the modulus
# and the flags every target reads, and the flags it requires.  The verify
# keys are its --target choices, in order.
_TARGET_FLAGS = {
    "verify": {"orthogonality": ("", "q"), "lemma1": ("a", "q"), "lemma2": ("f", "p f"), "lemma3": ("f", "p f"),
               "thm2": ("a f", "p f"), "recombination": ("a k", "q k")},
    "sweep": {"lemma4": ("", ""), "eq1": ("", ""), "thm1": ("k", "k"), "thm2": ("f degree seed", "")},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="lfunlab",
        description="verification laboratory for shifted L-series mean values",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_chars = sub.add_parser("chars", help="character-group structure and defects for one modulus")
    p_chars.add_argument("--q", type=int, required=True)
    p_chars.add_argument("--out", help="write the discrete-log table as JSON")

    p_lval = sub.add_parser("lvalue", help="L(1, chi, a) for the non-principal characters mod q")
    p_lval.add_argument("--q", type=int, required=True)
    p_lval.add_argument("--a", default="0")
    p_lval.add_argument("--j", type=int, default=None, help="single character index")
    p_lval.add_argument("--method", default="closed_direct", choices=lfun.METHODS)
    p_lval.add_argument("--n-terms", type=int, default=None, help="truncation length for --method truncated")

    p_exp = sub.add_parser("expsum", help="weighted character sums for (p, f)")
    p_exp.add_argument("--p", type=int, required=True)
    p_exp.add_argument("--f", required=True, help="polynomial coefficients a0,a1,...,ak")
    p_exp.add_argument("--j", type=int, default=None, help="single character index")

    p_ver = sub.add_parser("verify", help="run one exact-identity check")
    p_ver.add_argument("--target", required=True, choices=tuple(_TARGET_FLAGS["verify"]))
    p_ver.add_argument("--q", type=int)
    p_ver.add_argument("--p", type=int)
    p_ver.add_argument("--a")
    p_ver.add_argument("--k", type=int)
    p_ver.add_argument("--f", help="polynomial coefficients a0,a1,...,ak")
    p_ver.add_argument("--n-terms", type=int, default=None)

    p_swp = sub.add_parser("sweep", help="evaluate a mean-value target over many moduli")
    p_swp.add_argument("--target", required=True, choices=meanval.TARGETS)
    p_swp.add_argument("--primes", help="inclusive prime range A..B")
    p_swp.add_argument("--moduli", help="explicit comma-separated modulus list")
    p_swp.add_argument("--a", required=True)
    p_swp.add_argument("--k", type=int)
    p_swp.add_argument("--f", help="fixed polynomial for thm2 sweeps")
    p_swp.add_argument("--degree", type=int, help="sample a polynomial of this degree per modulus (thm2)")
    p_swp.add_argument("--seed", type=int, help="seed for polynomial sampling (thm2; default 0)")
    p_swp.add_argument("--method", default="closed_direct", choices=lfun.METHODS)
    p_swp.add_argument("--jobs", type=int, default=1, help="parallel workers across moduli")
    p_swp.add_argument("--out", help="output path (.csv or .json)")
    p_swp.add_argument("--cache", action="store_true", help="enable the on-disk cache at the default directory")
    p_swp.add_argument("--cache-dir", help="enable the on-disk cache at this directory")

    p_cache = sub.add_parser("cache", help="inspect or clear the on-disk cache")
    p_cache.add_argument("--cache-dir", help="cache directory (default: env or ~/.cache/lfunlab)")
    p_cache.add_argument("--clear", action="store_true")

    return parser


def _normalize(ns: argparse.Namespace) -> None:
    """Parse the text-valued flags in place and fold --p into q, refusing a
    flag the target does not read and a missing one it requires."""
    targets = _TARGET_FLAGS.get(ns.subcommand, {})
    reads, requires = (names.split() for names in targets.get(getattr(ns, "target", None), ("", "")))
    for flag in vars(ns):  # in the parser's order
        readers = [target for target, (names, _) in targets.items() if flag in names.split()]
        if readers and flag not in reads and getattr(ns, flag) is not None:
            raise ValueError(f"--{flag} applies only to {ns.subcommand} --target {', '.join(readers)}")
    if ns.subcommand == "verify":
        ns.a = "1" if ns.a is None else ns.a  # the default shift of lemma1, thm2 and recombination
    if hasattr(ns, "f"):
        ns.f = Polynomial.parse(ns.f) if ns.f else None
    if hasattr(ns, "a"):
        ns.a = ShiftParam.of(ns.a)
        if getattr(ns, "target", None) != "lemma4" and ns.a > sys.float_info.max:  # all others read float(a)
            raise ValueError(f"shift must satisfy a <= {sys.float_info.max!r}, the largest float")
    if getattr(ns, "p", None) is not None:
        if getattr(ns, "q", None) is not None:
            raise ValueError("--q and --p both name the modulus; give one of them")
        ns.q = ns.p
    # --n-terms sets the truncated route's N; only these two commands run that route.
    truncates = getattr(ns, "method", None) == "truncated" or getattr(ns, "target", None) == "lemma1"
    if getattr(ns, "n_terms", None) is not None and not truncates:
        raise ValueError("--n-terms applies only to lvalue --method truncated and verify --target lemma1")
    if any(getattr(ns, "q" if flag == "p" else flag) is None for flag in requires):  # q holds --p
        names = " and ".join(f"--{flag}" for flag in requires)
        raise ValueError(f"sweep --target {ns.target} requires {names}" if ns.subcommand == "sweep"
                         else f"{names} {'is' if len(requires) == 1 else 'are'} required")
    if ns.subcommand == "chars" and ns.out is not None:  # checked before the table is built
        if not ns.out.endswith(".json"):
            raise ValueError(f"chars --out must end in .json, the only format it writes, got {ns.out!r}")
        _check_output_path(ns.out)
    if ns.subcommand == "sweep":  # every sweep flag is checked before any table is built
        if ns.f is not None and ns.degree is not None:
            raise ValueError("--f and --degree both set the thm2 polynomial; give one of them")
        ns.moduli = _parse_moduli(ns.primes, ns.moduli)
        if ns.out is not None:
            _check_output_path(ns.out)
        if ns.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {ns.jobs}")


# ---------------------------------------------------------------------------
# Subcommand handlers (return exit codes)

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _handle_chars(ns: argparse.Namespace) -> int:
    t = get_table(ns.q)
    phi = t.phi
    print(f"modulus q = {t.q}: phi(q) = {phi}, character group exponent = {t.exponent}")
    for c in t.components:
        gens = ", ".join(str(g) for g in c.generators)
        orders = ", ".join(str(s) for s in c.orders)
        print(f"  component mod {c.prime_power}: generators ({gens}), orders ({orders})")
    print(f"orthogonality defect = {orthogonality_defect(t):.3e} (tolerance {1e-9 * phi:.3e})")
    print(f"non-principal period-sum defect = {nonprincipal_period_sum_defect(t):.3e}")
    if ns.out:
        doc = {
            "q": t.q,
            "phi": t.phi,
            "exponent": t.exponent,
            "principal_index": t.principal_index,
            "orders": list(t.orders),
            "residue_index": t.residue_index.tolist(),
            "conjugate_map": t.conjugate_map.tolist(),
        }
        with open(ns.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        print(f"wrote the discrete-log table to {ns.out}")
    return 0


def _handle_lvalue(ns: argparse.Namespace) -> int:
    t = get_table(ns.q)
    _require(t.phi > 1, f"modulus {ns.q} has no non-principal characters")
    a = ns.a
    if 0 < a.numerator < a.denominator:
        print(f"note: shift a = {a} < 1 lies outside the mean-value theorems' range a >= 1")
    if ns.j is None:
        indices = [j for j in range(t.phi) if j != t.principal_index]
    else:
        lfun.require_nonprincipal(t, ns.j)
        indices = [ns.j]
    values, bound = lfun.route_vectors_batch([(t, a)], (ns.method,), ns.n_terms)[0][ns.method]
    for j in indices:
        v = values[j]
        print(
            f"j={j}: L(1, chi_{j}, {a}) = {v.real:.8f}{v.imag:+.8f}i"
            f"  [{ns.method}, error bound {bound:.2e}]"
        )
    return 0


def _handle_expsum(ns: argparse.Namespace) -> int:
    p = ns.q
    f = ns.f
    _require(f is not None, "--f is required")
    t = get_table(p)
    _require(ns.j is None or 0 <= ns.j < t.phi, f"character index {ns.j} out of range for modulus {t.q}")
    sums = weighted_char_sum_all(t, f)
    indices = range(t.phi) if ns.j is None else [ns.j]
    total = complete_sum(p, f.coefficients)
    print(f"p = {p}, f = {f}  (degree {f.degree}, sqrt(p) = {math.sqrt(p):.6f})")
    print(f"complete sum over y=1..p-1: {total.real:+.6f}{total.imag:+.6f}i  |T| = {abs(total):.6f}")
    for j in indices:
        s = sums[j]
        tag = " (principal)" if j == t.principal_index else ""
        print(f"j={j}{tag}: S = {s.real:+.6f}{s.imag:+.6f}i  |S| = {abs(s):.6f}")
    return 0


def _handle_verify(ns: argparse.Namespace) -> int:
    target = ns.target
    if target == "orthogonality":
        t = get_table(ns.q)
        defect = orthogonality_defect(t)
        tol = 1e-9 * t.phi
        print(f"orthogonality defect for q={ns.q}: {defect:.3e} (tolerance {tol:.3e})")
        return 0 if defect < tol else 1

    if target == "lemma1":
        t = get_table(ns.q)
        _require(t.phi > 1, f"modulus {ns.q} has no non-principal characters")
        a = ns.a
        # Every route leaves the principal slot 0, so it adds nothing to either maximum.
        routes = lfun.route_vectors_batch([(t, a)], lfun.METHODS, ns.n_terms)[0]
        direct, lemma = routes["closed_direct"][0], routes["closed_lemma1"][0]
        trunc, trunc_bound = routes["truncated"]
        # Each closed value and the partial sum lie within their own bounds of
        # L(1, chi, a), so their gap is within the sum of the two bounds.
        bound = max(routes["closed_direct"][1], routes["closed_lemma1"][1]) + trunc_bound
        worst_gap = float(np.abs(direct - lemma).max())
        worst_excess = float(max(np.abs(direct - trunc).max(), np.abs(lemma - trunc).max())) - bound
        print(f"closed-route gap for q={ns.q}, a={a}: {worst_gap:.3e} (tolerance 1e-09)")
        print(f"worst closed-vs-truncated excess over the summed bounds {bound:.3e}: {worst_excess:.3e} (must be < 0)")
        return 0 if worst_gap < 1e-9 and worst_excess < 0 else 1

    if target == "lemma2":
        check_difference_budget(ns.q)
        t = get_table(ns.q)
        defect = lemma2_defect(t, ns.f)
        tol = 1e-7 * ns.q
        print(f"difference-sum identity defect for p={ns.q}, f={ns.f}: {defect:.3e} (tolerance {tol:.3e})")
        return 0 if defect < tol else 1

    if target == "lemma3":
        audit = lemma3_report(ns.q, ns.f)
        n_deg = len(audit.degenerate_x)
        print(
            f"completed sums for p={audit.p}, f={ns.f}: {audit.p - 2} values, "
            f"{n_deg} degenerate {list(audit.degenerate_x)}"
        )
        print(f"  bound |T| <= eff_deg*sqrt(p)+1 holds: {audit.bounds_ok}")
        print(f"  degenerate values all exactly p-1: {audit.degenerate_values_ok}")
        print(f"  degenerate count <= degree-1: {audit.degenerate_count_ok}")
        print(f"  degenerate x >= p^(1/degree): {audit.degenerate_x_bound_ok}")
        return 0 if audit.all_ok else 1

    if target == "thm2":
        check_difference_budget(ns.q)  # before the direct side, which needs no difference table
        direct, decomposed = meanval.thm2_sides(ns.q, ns.f, ns.a)
        gap = abs(direct - decomposed)
        tol = 1e-6 * ns.q * ns.q
        print(f"direct     = {direct:.12g}")
        print(f"decomposed = {decomposed.real:.12g}{decomposed.imag:+.3e}i")
        print(f"split identity gap for p={ns.q}: {gap:.3e} (tolerance {tol:.3e})")
        return 0 if gap < tol else 1

    # recombination
    ct = cross_terms(ns.q, ns.k, ns.a)
    gap = abs(ct.lhs - ct.recombined)
    phi = euler_phi(factorize(ns.q))
    tol = 1e-8 * phi
    print(f"m1 = {ct.m1:.10g}  (predicted {ct.m1_predicted:.10g})")
    print(f"m2 = {ct.m2:.10g}  (predicted {ct.m2_predicted:.10g})")
    print(f"m3 = {ct.m3:.10g}  (predicted {ct.m3_predicted:.10g})")
    print(f"recombination gap for q={ns.q}, k={ns.k}, a={ns.a}: {gap:.3e} (tolerance {tol:.3e})")
    return 0 if gap < tol else 1


def _handle_sweep(ns: argparse.Namespace) -> int:
    cache = ReportCache(ns.cache_dir or default_cache_dir()) if ns.cache_dir or ns.cache else None
    series = residual_sweep(ns.target, ns.moduli, ns.a, k=ns.k, f=ns.f, degree=ns.degree, seed=ns.seed,
                            method=ns.method, jobs=ns.jobs, cache=cache)
    emit_report(list(series.reports), ns.out, series)
    info = sys.stdout if ns.out else sys.stderr
    print(
        f"{ns.target}: {len(series.reports)} reports, {len(series.skipped)} skipped; "
        f"fit |residual| ~ C q^beta with beta = {series.beta:.4f}, C = {series.constant:.4g}; "
        f"max |normalized residual| = {series.max_normalized_abs:.6g}",
        file=info,
    )
    for r in series.reports:
        if r.flags:
            print(f"flag q={r.q}: {', '.join(r.flags)}", file=info)
    if ns.out:
        print(f"wrote {ns.out}", file=info)
    return 0


def _handle_cache(ns: argparse.Namespace) -> int:
    cache = ReportCache(ns.cache_dir or default_cache_dir())
    entries = cache.entries()
    tables = sum(1 for e in entries if e.startswith("table_"))
    records = sum(1 for e in entries if e.startswith("lvec_"))  # a record may hold several vectors
    print(f"cache directory: {cache.directory}")
    print(f"entries: {tables} character tables, {records} L-vector records")
    if ns.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries")
    return 0


_HANDLERS = {
    "chars": _handle_chars,
    "lvalue": _handle_lvalue,
    "expsum": _handle_expsum,
    "verify": _handle_verify,
    "sweep": _handle_sweep,
    "cache": _handle_cache,
}


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _normalize(ns)
        return _HANDLERS[ns.subcommand](ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
