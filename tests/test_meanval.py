"""Mean-value statistics: LHS assembly, main terms, oracles, cross terms,
reports, and sweeps.

Expected numbers are either closed-form plug-ins recomputed here from
specfun primitives or brute-force series oracles; none come from the
implementation under test.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lfunlab import arith, chars, cli, lfun, meanval
from lfunlab.arith import divisors, euler_phi, factorize, is_prime, moebius
from lfunlab.cache import ReportCache
from lfunlab.chars import char_value, get_table
from lfunlab.expsum import Polynomial, weighted_char_sum_all
from lfunlab.specfun import ShiftParam, digamma, floor_ratio, harmonic, hurwitz_zeta

A = ShiftParam.of
ZETA2 = math.pi**2 / 6


def nonprincipal(t):
    return [j for j in range(t.phi) if j != t.principal_index]


def report(target, q, a, **kwargs):
    """The report of one query: make_query -> build_report is the one public
    path to lhs, paper_main and oracle_main."""
    return meanval.build_report(meanval.make_query(target, q, a, **kwargs))


def main_terms(target, q, a, **kwargs):
    """(paper_main, oracle_main) of one query, from meanval._main_terms."""
    return meanval._main_terms([meanval.make_query(target, q, a, **kwargs)], {q: factorize(q)})[0]


def mobius_divisor_loop(q):
    """(d, mu(d)) over the squarefree divisors d | q, each d factorized on its own."""
    return [(d, moebius(factorize(d))) for d in divisors(factorize(q)) if moebius(factorize(d))]


class TestLemma4:
    def test_single_character_q3(self):
        v = report("lemma4", 3, A(2)).lhs
        assert abs(v - (-(math.pi**2) / 27)) < 1e-12

    def test_single_character_q4(self):
        v = report("lemma4", 4, A(3)).lhs
        assert abs(v - (-((math.pi / 4) ** 2))) < 1e-12

    def test_q5_matches_per_character_assembly(self):
        t = get_table(5)
        expected = sum(
            char_value(t, j, 2) * abs(lfun.l1_chi(t, j)) ** 2 for j in nonprincipal(t)
        )
        v = report("lemma4", 5, A(2)).lhs
        assert abs(v - expected) < 1e-12
        assert abs(v.imag) < 1e-9

    def test_main_plug_ins(self):
        assert abs(report("lemma4", 7, A(2)).paper_main - 3 * ZETA2 * (48 / 49)) < 1e-12
        assert abs(report("lemma4", 4, A(3)).paper_main - ZETA2 / 2) < 1e-12
        assert abs(report("lemma4", 3, A(2)).paper_main - 8 * math.pi**2 / 54) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            meanval.make_query("lemma4", 5, A(1))  # needs a >= 2
        with pytest.raises(ValueError):
            meanval.make_query("lemma4", 9, A(3))  # gcd(a, q) > 1
        with pytest.raises(ValueError):
            meanval.make_query("lemma4", 5, A("7/2"))  # integer only


class TestEq1:
    def test_q4_single_character(self):
        assert abs(report("eq1", 4, A(1)).lhs.real - (math.log(2) / 2) ** 2) < 1e-12

    def test_main_plug_in_q5(self):
        r = report("eq1", 5, A(2))  # paper_main is the full term, oracle_main the first
        first = 4 * (hurwitz_zeta(2, 2) - hurwitz_zeta(2, 2 / 5) / 25)
        assert abs(r.oracle_main - first) < 1e-12
        full = first - (4 * 4 / 2) * (harmonic(2) - harmonic(0) / 5)
        assert abs(r.paper_main - full) < 1e-12

    @pytest.mark.parametrize("q, a_str", [(5, "1"), (7, "2"), (12, "7/2"), (35, "1")])
    def test_lhs_nonnegative_real(self, q, a_str):
        v = report("eq1", q, A(a_str)).lhs.real
        assert v >= 0

    def test_lhs_is_sum_of_squares(self):
        t = get_table(7)
        lv = [lfun.l1_chi_a(t, j, A(2), "closed_direct").value for j in nonprincipal(t)]
        assert abs(report("eq1", 7, A(2)).lhs.real - sum(abs(v) ** 2 for v in lv)) < 1e-12


class TestThm1:
    def test_main_plug_ins(self):
        assert report("thm1", 5, A(1), k=2).paper_main == pytest.approx(4.0, abs=1e-12)
        assert report("thm1", 5, A(1), k=3).paper_main == pytest.approx(2.0, abs=1e-12)

    def test_main_empty_blocks_vanish(self):
        # a=1, k large: floor(a/d) = floor(a/(kd)) = 0 everywhere except d=1
        assert report("thm1", 7, A(1), k=3).paper_main == pytest.approx(6 / (1 * 2), abs=1e-12)

    def test_lhs_single_character(self):
        v = meanval.thm1_lhs(4, 3, A(1))
        assert abs(v - (-((math.log(2) / 2) ** 2))) < 1e-12

    def test_lhs_imag_small(self):
        for q, k, a_str in ((35, 2, "2"), (49, 3, "7/2"), (100, 3, "1")):
            t = get_table(q)
            v = meanval.thm1_lhs(q, k, A(a_str))
            assert abs(v.imag) < 1e-8 * t.phi

    def test_validation(self):
        with pytest.raises(ValueError):
            meanval.thm1_lhs(5, 1, A(1))  # k = 1 excluded
        with pytest.raises(ValueError):
            meanval.thm1_lhs(4, 2, A(1))  # gcd(k, q) > 1
        with pytest.raises(ValueError):
            meanval.thm1_lhs(5, 2, A("1/2"))  # a < 1
        with pytest.raises(ValueError, match="unknown method"):
            meanval.thm1_lhs(5, 2, A(1), method="closed_magic")


class TestDiagonalOracle:
    def test_partial_fraction_closed_form(self):
        # phi(q)/(a(k-1)) * sum_d mu(d)/d * (psi(1+a/d) - psi(1+a/(kd)))
        expected = 4 / (1 * 1) * (
            (digamma(2) - digamma(1.5)) - (digamma(1.2) - digamma(1.1)) / 5
        )
        assert abs(report("thm1", 5, A(1), k=2).oracle_main - expected) < 1e-12

    def test_brute_force_series(self):
        n = np.arange(1, 10**7, dtype=np.float64)
        keep = (np.arange(1, 10**7) % 5) != 0
        brute = 4 * float(np.sum(1.0 / ((n + 1) * (2 * n + 1)), where=keep))
        assert abs(report("thm1", 5, A(1), k=2).oracle_main - brute) < 1e-6

    def test_large_prime_limit(self):
        # sieve factor -> 1, so the density tends to 2 ln 2 - 1 per character
        q = 9973
        v = main_terms("thm1", q, A(1), k=2)[1]
        assert abs(v / (q - 1) - (2 * math.log(2) - 1)) < 1e-3


class TestCharColumn:
    """t.values_at(x) reads chi_j(x) for every j from the exact logs of x."""

    @staticmethod
    def _points(q):
        # 0 (a non-unit for q > 1), 1, 2, q - 1 and a few more.
        return sorted({0, 1 % q, 2 % q, (q - 1) % q, *range(3, q, max(1, q // 5))})

    def test_equals_char_value_bit_for_bit(self):
        # The dense oracle forms its exponents as a matrix product.  x >= q
        # is read mod q: thm1's k is the written integer.
        for q in range(1, 201):
            t = get_table(q)
            dense = t.values_matrix()
            for x in self._points(q):
                for written in (x, x + q, x + 10 * q):
                    assert np.array_equal(t.values_at(written), dense[:, x]), (q, written)
                assert all(char_value(t, j, x) == dense[j, x] for j in range(t.phi)), (q, x)

    def test_matches_the_point_mass_transform(self):
        for q in range(1, 501):
            t = get_table(q)
            for x in self._points(q):
                delta = np.zeros(q)
                delta[x] = 1.0
                assert np.abs(t.values_at(x) - t.sums_over_residues(delta)).max() <= 1e-14


class TestCrossTerms:
    def test_single_character_closed_evaluation(self):
        t = get_table(4)
        ct = meanval.cross_terms(4, 3, A(1))
        chi_k = char_value(t, 1, 3)
        tail = lfun.shifted_tail_sum(t, 1, A(1))
        l_conj = lfun.l1_chi(t, t.conjugate_map[1])
        l_val = lfun.l1_chi(t, 1)
        assert abs(ct.m1 - chi_k * tail * l_conj) < 1e-12
        assert abs(ct.m2 - chi_k * tail.conjugate() * l_val) < 1e-12
        assert abs(ct.m3 - chi_k * abs(tail) ** 2) < 1e-12

    @pytest.mark.parametrize("q, k, a_str", [(4, 3, "1"), (5, 2, "2"), (35, 2, "2"), (49, 3, "1")])
    def test_recombination_identity(self, q, k, a_str):
        a = A(a_str)
        ct = meanval.cross_terms(q, k, a)
        lhs = meanval.thm1_lhs(q, k, a)
        t = get_table(q)
        assert abs(lhs - ct.recombined) < 1e-8 * t.phi
        unshifted = ct.unshifted_moment
        manual = (
            unshifted
            - float(a) * ct.m1
            - float(a) * ct.m2
            + float(a)**2 * ct.m3
        )
        assert abs(ct.recombined - manual) < 1e-12

    @pytest.mark.parametrize("q, k", [(35, 2), (1009, 3), (1024, 3), (2310, 13)])
    @pytest.mark.parametrize("a_str", ["1", "3/2", "2"])
    def test_lhs_is_thm1_lhs(self, q, k, a_str):
        # One batch, the same bits as the thm1 statistic by its own route.
        assert meanval.cross_terms(q, k, A(a_str)).lhs == meanval.thm1_lhs(q, k, A(a_str))

    def test_one_character_column_per_call(self, monkeypatch):
        # The four recombination sums and lhs are weights of one _statistics call.
        columns = []
        values_at = chars.CharacterTable.values_at
        monkeypatch.setattr(chars.CharacterTable, "values_at", lambda t, x: columns.append(x) or values_at(t, x))
        meanval.cross_terms(2310, 13, A("3/2"))
        assert columns == [13]

    def test_k_inversion_relates_m1_m2(self):
        for q, k, a_str in ((7, 2, "1"), (13, 5, "2")):
            ct = meanval.cross_terms(q, k, A(a_str))
            inv = meanval.cross_terms(q, pow(k, -1, q), A(a_str))
            assert abs(ct.m2 - inv.m1) < 1e-10

    def test_predictions_are_finite_reports(self):
        ct = meanval.cross_terms(35, 2, A(2))
        for value in (ct.m1_predicted, ct.m2_predicted, ct.m3_predicted):
            assert math.isfinite(value)


class TestThm2:
    def test_direct_per_character_assembly(self):
        t = get_table(5)
        f = Polynomial((0, 1))
        sums = weighted_char_sum_all(t, f)
        expected = sum(
            abs(sums[j]) ** 2
            * abs(lfun.l1_chi_a(t, j, A(1), "closed_direct").value) ** 2
            for j in nonprincipal(t)
        )
        direct = meanval.thm2_lhs_direct(5, f, A(1))
        assert abs(direct - expected) < 1e-10
        # |tau(chi)|^2 = 5 for every primitive character mod 5
        reference = 5 * report("eq1", 5, A(1)).lhs.real
        assert abs(direct - reference) < 1e-10

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_split_identity(self, p):
        f = Polynomial((1, 2, 0, 1))
        direct = meanval.thm2_lhs_direct(p, f, A(2))
        decomposed = meanval.thm2_lhs_decomposed(p, f, A(2))
        assert abs(direct - decomposed) < 1e-6 * p * p
        assert direct >= 0

    @pytest.mark.parametrize("p", [7, 101, 1009])
    def test_sides_share_one_l_vector(self, p, monkeypatch):
        f, a = Polynomial((1, 2, 0, 1)), A(2)
        expected = (meanval.thm2_lhs_direct(p, f, a), meanval.thm2_lhs_decomposed(p, f, a))
        calls = []
        real = lfun.route_vectors_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lfun, "route_vectors_batch", counting)
        assert meanval.thm2_sides(p, f, a) == expected  # bit for bit
        assert len(calls) == 1

    def test_smoke_report_p7(self):
        q = meanval.make_query("thm2", 7, A(2), f=Polynomial((0, 0, 1)))
        r = meanval.build_report(q)
        for field in (r.lhs.real, r.paper_main, r.oracle_main, r.residual,
                      r.normalized_residual, r.route_agreement):
            assert math.isfinite(field)
        assert meanval.THM2_DIVISOR_NOTE in r.flags

    def test_main_divisor_pair(self):
        p, a = 5, A(1)
        expected = (
            p**2 * (hurwitz_zeta(2, 1) - hurwitz_zeta(2, 1 / 5) / 25)
            - 4 * p**2 * (harmonic(1) - harmonic(0) / 5)
        )
        assert abs(report("thm2", p, a, f=Polynomial((0, 1))).paper_main - expected) < 1e-10

    def test_validation(self):
        f = Polynomial((0, 1))
        with pytest.raises(ValueError):
            meanval.make_query("thm2", 12, A(1), f=f)  # composite
        with pytest.raises(ValueError):
            meanval.make_query("thm2", 7, A(1))  # no polynomial
        with pytest.raises(ValueError):
            meanval.make_query("thm2", 7, A(1), f=Polynomial((7, 14, 21)))
        with pytest.raises(ValueError):
            meanval.make_query("thm2", 7, A(7), f=f)  # gcd(a, p) > 1


class TestReports:
    def test_oracle_wiring(self):
        eq1_first = main_terms("eq1", 7, A(2))[1]
        r_eq1 = meanval.build_report(meanval.make_query("eq1", 7, A(2)))
        assert r_eq1.oracle_main == pytest.approx(eq1_first, abs=1e-12)
        r_thm1 = meanval.build_report(meanval.make_query("thm1", 7, A(2), k=2))
        assert r_thm1.oracle_main == pytest.approx(
            main_terms("thm1", 7, A(2), k=2)[1], abs=1e-12
        )
        r_lemma4 = meanval.build_report(meanval.make_query("lemma4", 7, A(2)))
        assert r_lemma4.oracle_main is None
        f = Polynomial((0, 1))
        r_thm2 = meanval.build_report(meanval.make_query("thm2", 7, A(2), f=f))
        assert r_thm2.oracle_main == pytest.approx(6 * eq1_first, abs=1e-10)

    def test_normalizations(self):
        phi7, fac = 6, factorize(7)
        assert meanval._normalization("thm1", fac, None) == pytest.approx(
            phi7 * math.log(7) / math.sqrt(7)
        )
        assert meanval._normalization("eq1", fac, None) == pytest.approx(
            phi7 * math.log(7) / math.sqrt(7)
        )
        assert meanval._normalization("lemma4", fac, None) == pytest.approx(math.log(7) ** 2)
        assert meanval._normalization("thm2", fac, 3) == pytest.approx(7 ** (2 - 1 / 3))

    def test_tension_flag_thresholds(self):
        r = meanval.build_report(meanval.make_query("thm1", 101, A(1), k=2))
        assert meanval.TENSION_FLAG in r.flags  # lhs ~ 25 vs stated main 100
        r4 = meanval.build_report(meanval.make_query("lemma4", 997, A(2)))
        assert meanval.TENSION_FLAG not in r4.flags

    def test_route_agreement_closed_pair(self):
        r = meanval.build_report(meanval.make_query("eq1", 35, A("7/2")))
        assert r.route_agreement < 1e-10

    def test_truncated_method_route(self):
        r = meanval.build_report(
            meanval.make_query("eq1", 12, A(1), method="truncated")
        )
        envelope = meanval._normalization("eq1", factorize(12), None)  # loose sanity ceiling
        assert r.route_agreement < envelope
        assert math.isfinite(r.lhs.real)


@pytest.mark.parametrize("q", [1033, 1116])
def test_eq1_report_factorizes_q_once(q, monkeypatch, tmp_path):
    # A report passes one factorization of q to its main terms, normalization
    # and cache check; the table build, which every report that computes a
    # route makes (no memo), makes its own.  A warm eq1 report builds no table.
    calls = []

    def counting(n, _fn=arith.factorize):
        calls.append(n)
        return _fn(n)

    query = meanval.make_query("eq1", q, A("3/2"))
    meanval.clear_memo()
    for module in (arith, chars, meanval):
        monkeypatch.setattr(module, "factorize", counting)
    chars.build_character_table(q)
    table_calls = len(calls)
    store = ReportCache(str(tmp_path / "cache"))
    for cache in (None, None, store):  # twice without a cache, then a cold cache
        calls.clear()
        meanval.build_report(query, cache)
        assert len(calls) == 1 + table_calls and calls.count(q) == 2
    for _ in range(2):
        calls.clear()
        meanval.build_report(query, store)
        assert calls == [q]
    assert get_table.cache_info().currsize == 0


class TestResidualSweep:
    def test_skips_invalid_moduli(self):
        s = meanval.residual_sweep("lemma4", [3, 4, 5, 6, 7], A(2))
        assert [r.q for r in s.reports] == [3, 5, 7]
        skipped_q = [q for q, _ in s.skipped]
        assert skipped_q == [4, 6]

    def test_sorted_output_and_fit(self):
        s = meanval.residual_sweep("lemma4", [31, 11, 23, 17], A(2))
        assert [r.q for r in s.reports] == [11, 17, 23, 31]
        assert math.isfinite(s.beta) and math.isfinite(s.constant)
        assert s.constant > 0

    def test_empty_sweep(self):
        s = meanval.residual_sweep("lemma4", [], A(2))
        assert s.reports == ()
        assert math.isnan(s.beta)
        assert s.max_normalized_abs == 0.0

    def test_parallel_matches_serial(self):
        serial = meanval.residual_sweep("thm1", [11, 13, 17, 19], A(1), k=2, jobs=1)
        parallel = meanval.residual_sweep("thm1", [11, 13, 17, 19], A(1), k=2, jobs=2)
        assert serial.reports == parallel.reports

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (500, 2, 2), (500, 64, 3), (2, 64, 2), (500, 1, None), (1, 64, None), (500, None, 3),
    ])
    def test_pool_has_no_more_workers_than_batches_or_cpus(self, jobs, cpus, workers, monkeypatch):
        # A fake pool records its size and starts no process; cpus None
        # stands for a platform without os.sched_getaffinity.
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", 1000)  # three batches
        moduli = (97, 101, 211, 1009, 7)
        series = meanval.residual_sweep("thm1", moduli, A(2), k=5, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert series.reports == meanval.residual_sweep("thm1", moduli, A(2), k=5).reports

    def test_import_leaves_the_process_pool_out(self):
        # Only --jobs > 1 needs concurrent.futures; a plain import does not pay for it.
        code = "import sys, lfunlab; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"

    def test_thm2_sampling_deterministic(self):
        kwargs = dict(degree=3, seed=5, a=A(1))
        s1 = meanval.residual_sweep("thm2", [5, 7, 11], kwargs["a"], degree=3, seed=5)
        s2 = meanval.residual_sweep("thm2", [5, 7, 11], kwargs["a"], degree=3, seed=5)
        assert s1.reports == s2.reports
        s3 = meanval.residual_sweep("thm2", [5, 7, 11], A(1), degree=3, seed=6)
        assert [r.f for r in s3.reports] != [r.f for r in s1.reports]

    def test_thm2_needs_poly_or_degree(self):
        with pytest.raises(ValueError):
            meanval.residual_sweep("thm2", [5, 7], A(1))


def sweep_argv(target, moduli, a, **flags):
    """The `lfunlab sweep` argv of a sweep over moduli with these flags."""
    return ["sweep", "--target", target, "--moduli", ",".join(map(str, moduli)), "--a", a,
            *[token for name, value in flags.items() for token in (f"--{name}", value)]]


def library_sweep(target, moduli, a, **flags):
    """The residual_sweep of the same sweep as sweep_argv."""
    f = flags.pop("f", None)
    return meanval.residual_sweep(target, moduli, a, f=None if f is None else Polynomial.parse(f),
                                  **{name: int(value) for name, value in flags.items()})


# Rules that do not read the modulus, with the text each sweep modulus was
# skipped with before a sweep refused them once.
PARAMETER_RULES = [
    (("thm1", "2", {"k": "1"}), "thm1 weight k must be an integer >= 2, got 1"),
    (("eq1", "1/2", {}), "shift must satisfy a >= 1, got a=1/2"),
    (("eq1", "0", {}), "shift must satisfy a >= 1, got a=0"),
    (("thm1", "1/2", {"k": "3"}), "shift must satisfy a >= 1, got a=1/2"),
    (("thm2", "1/2", {"f": "1,2"}), "shift must satisfy a >= 1, got a=1/2"),
    (("thm2", "1/2", {"degree": "3"}), "shift must satisfy a >= 1, got a=1/2"),
    (("lemma4", "3/2", {}), "lemma4 weight must be an integer >= 2, got a=3/2"),
    (("lemma4", "1", {}), "lemma4 weight must be an integer >= 2, got a=1"),
    (("thm2", "1", {"degree": "0"}), "degree must be >= 1, got 0"),
]

# Rules that read the modulus: the modulus is skipped with this text and
# the sweep goes on.
MODULUS_RULES = [
    (("thm1", "2", {"k": "3"}), (7, 9, 11), 9, "thm1 weight k=3 must be coprime to q=9"),
    (("lemma4", "2", {}), (7, 8, 11), 8, "lemma4 weight a=2 must be coprime to q=8"),
    (("eq1", "1", {}), (2, 7, 11), 2, "modulus must be an integer >= 3, got 2"),
    (("thm2", "1", {"f": "1,2"}), (7, 9, 11), 9, "thm2 modulus must be prime, got 9"),
    (("thm2", "1", {"degree": "3"}), (7, 9, 11), 9, "thm2 modulus must be prime, got 9"),
    (("thm2", "1", {"f": "7,14"}), (5, 7, 11), 7, "p=7 divides every coefficient of 7,14"),
    (("thm2", "7", {"f": "1,2"}), (5, 7, 11), 7, "integer shift a=7 must be coprime to p=7"),
]


def _no_table(q):
    raise AssertionError(f"table mod {q} built before the parameters were checked")


class TestQueryRules:
    """A parameter rule is checked once per sweep, before any table is built,
    and refuses the sweep; only modulus rules skip a modulus."""

    @pytest.mark.parametrize("sweep, message", PARAMETER_RULES)
    def test_cli_sweep_refuses_a_bad_parameter_before_any_work(self, sweep, message, monkeypatch, capsys):
        target, a, flags = sweep
        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", _no_table)
        assert cli.run(sweep_argv(target, (7, 11), a, **flags)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("sweep, message", PARAMETER_RULES)
    def test_residual_sweep_raises_on_a_bad_parameter_before_any_work(self, sweep, message, monkeypatch):
        target, a, flags = sweep
        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", _no_table)
        with pytest.raises(ValueError) as exc:
            library_sweep(target, (7, 11), a, **flags)
        assert str(exc.value) == message

    def test_sweep_refuses_a_repeated_modulus_before_any_work(self, monkeypatch, capsys):
        # Two identical q = 7 rows would enter the residual fit twice.
        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", _no_table)
        assert cli.run(sweep_argv("eq1", (7, 7, 11), "2")) == 2
        assert capsys.readouterr() == ("", "error: modulus 7 is listed more than once\n")
        with pytest.raises(ValueError, match="^modulus 11 is listed more than once$"):
            library_sweep("thm1", (11, 7, 2, 11, 2), "2", k="3")

    def test_sweep_refuses_a_modulus_over_the_table_bound_before_any_work(self, monkeypatch, capsys):
        # Without the check the moduli below the bound were computed first.
        bound = chars._MAX_MODULUS
        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", _no_table)
        assert cli.run(sweep_argv("lemma4", (99991, 100003), "2")) == 2
        assert capsys.readouterr() == ("", f"error: modulus 100003 exceeds the table bound {bound}\n")
        with pytest.raises(ValueError, match=f"^modulus {bound + 1} exceeds the table bound {bound}$"):
            library_sweep("eq1", (7, bound, bound + 1, 11), "2")

    @pytest.mark.parametrize("argv, message", [
        (("recombination", "--q", "35", "--k", "1"), "thm1 weight k must be an integer >= 2, got 1"),
        (("recombination", "--q", "35", "--k", "2", "--a", "1/2"), "shift must satisfy a >= 1, got a=1/2"),
        (("thm2", "--p", "13", "--f", "1,2", "--a", "1/2"), "shift must satisfy a >= 1, got a=1/2"),
    ])
    def test_verify_refuses_a_bad_parameter_before_any_work(self, argv, message, monkeypatch, capsys):
        get_table.cache_clear()
        monkeypatch.setattr(chars, "build_character_table", _no_table)
        assert cli.run(["verify", "--target", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("sweep, moduli, bad, message", MODULUS_RULES)
    def test_cli_sweep_skips_a_modulus_that_breaks_a_rule(self, sweep, moduli, bad, message, tmp_path, capsys):
        target, a, flags = sweep
        out = tmp_path / "sweep.json"
        assert cli.run([*sweep_argv(target, moduli, a, **flags), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["skipped"] == [{"q": bad, "reason": message}]
        assert [row["q"] for row in doc["reports"]] == [q for q in moduli if q != bad]
        capsys.readouterr()

    @pytest.mark.parametrize("sweep, moduli, bad, message", MODULUS_RULES)
    def test_residual_sweep_skips_a_modulus_that_breaks_a_rule(self, sweep, moduli, bad, message):
        target, a, flags = sweep
        series = library_sweep(target, moduli, a, **flags)
        assert series.skipped == ((bad, message),)
        assert [r.q for r in series.reports] == [q for q in moduli if q != bad]

    def test_sampled_thm2_sweep_checks_the_modulus_before_sampling(self, monkeypatch):
        # Sampling mod 1 would draw constant polynomials forever.
        sample = meanval.sample_polynomial
        sampled = []
        monkeypatch.setattr(meanval, "sample_polynomial",
                            lambda rng, degree, p: sampled.append(p) or sample(rng, degree, p))
        series = library_sweep("thm2", (0, 1, 2, 4, 7), "1", degree="2")
        assert series.skipped == tuple((q, f"modulus must be an integer >= 3, got {q}") for q in (0, 1, 2)) + (
            (4, "thm2 modulus must be prime, got 4"),)
        assert sampled == [7] and [r.q for r in series.reports] == [7]


def test_memo_and_cache_clear():
    meanval.clear_memo()
    report("eq1", 7, A(1))
    report("eq1", 7, A(1))
    meanval.clear_memo()
    assert abs(report("eq1", 7, A(1)).lhs - report("eq1", 7, A(1)).lhs) == 0.0


def test_sweep_keeps_nothing_past_the_table_memo():
    moduli = [p for p in range(5000, 6000) if is_prime(p)][:40]
    meanval.clear_memo()
    tracemalloc.start()
    try:
        meanval.residual_sweep("eq1", moduli[:10], A("3/2"))
        after_10, _ = tracemalloc.get_traced_memory()
        meanval.residual_sweep("eq1", moduli[10:], A("3/2"))
        after_40, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    t = get_table(moduli[-1])  # the largest table of the sweep
    table_memo = get_table.cache_info().maxsize * (t.residue_index.nbytes + t.conjugate_map.nbytes)
    assert after_40 - after_10 <= table_memo
    meanval.clear_memo()


@pytest.mark.parametrize("target, k", [("eq1", None), ("thm1", 2)])
def test_sweep_leaves_the_table_memo_empty(target, k):
    # A sweep builds the tables of each batch itself and hands them down: eq1
    # reads each table for its L-vectors, thm1 again for the chi(k) column,
    # and neither reads or fills the chars.get_table memo.
    moduli = [p for p in range(10**4, 11000) if is_prime(p)][:16]
    meanval.clear_memo()
    meanval.residual_sweep(target, moduli, A(1), k=k)
    info = get_table.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 0)


# Primes, prime powers and composites up to 2000; each target skips some.
BATCH_MODULI = (3, 4, 5, 7, 8, 9, 12, 15, 16, 24, 97, 101, 210, 211, 243, 1009, 1024, 1155, 1999)
BATCH_SWEEPS = {
    "lemma4": dict(a=A(3)),
    "eq1": dict(a=A("3/2")),
    "thm1": dict(a=A(2), k=5),
    "thm2": dict(a=A(2), degree=3, seed=7),
}


def _valid_queries(target, method):
    """The valid queries of the sweep over BATCH_MODULI, in order."""
    kwargs = BATCH_SWEEPS[target]
    queries = []
    for q in BATCH_MODULI:
        try:
            queries.append(meanval._sweep_query(target, q, kwargs["a"], kwargs.get("k"), None,
                                                kwargs.get("degree"), kwargs.get("seed"), method))
        except ValueError:
            continue
    return queries


class TestBatchedSweep:
    """A sweep takes its main terms from one _main_terms call and builds its
    statistics in batches of consecutive moduli, which changes no byte of
    any report."""

    @pytest.mark.parametrize("target", meanval.TARGETS)
    @pytest.mark.parametrize("method", lfun.METHODS)
    def test_sweep_bytes_equal_one_query_reports(self, target, method, tmp_path, monkeypatch):
        queries = _valid_queries(target, method)
        expected = [meanval.build_report(query) for query in queries]  # one at a time
        csv_text, json_text = cli.render_csv(expected), cli.render_json(expected)
        # the default cap, several queries a batch, one query a batch, and
        # several batches for a pool of two workers
        for jobs, cap in ((1, meanval._BATCH_ARGUMENTS), (1, 1000), (1, 1), (2, 1000)):
            monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", cap)
            batches = meanval._batches(queries)
            assert [query for batch in batches for query in batch] == queries
            if cap == 1:  # every query is over the cap: a batch of its own
                assert len(batches) == len(queries)
            elif cap == 1000:
                assert 3 <= len(batches) < len(queries)
            store = ReportCache(str(tmp_path / f"cache_{jobs}_{cap}"))
            for cache in (None, store, store):  # no cache, cold, warm
                series = meanval.residual_sweep(target, BATCH_MODULI, method=method, cache=cache, jobs=jobs,
                                                **BATCH_SWEEPS[target])
                assert cli.render_csv(series.reports) == csv_text
                assert cli.render_json(series.reports) == json_text
                assert len(series.skipped) == len(BATCH_MODULI) - len(expected)

    @pytest.mark.parametrize("target", meanval.TARGETS)
    def test_one_call_of_each_kind_per_batch(self, target, monkeypatch):
        # One digamma call per batch for the psi grids; the main terms' one
        # hurwitz_zeta (eq1, thm2) or digamma (thm1) call and divisor terms
        # per query are paid once a sweep.
        calls = {"psi": [], "zeta": [], "oracle": [], "factorize": [], "table": [], "batch": [], "terms": []}

        def spy(module, name, log):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kw: log.append(args) or fn(*args, **kw))

        spy(lfun, "digamma", calls["psi"])
        spy(meanval, "hurwitz_zeta", calls["zeta"])
        spy(meanval, "digamma", calls["oracle"])
        spy(meanval, "factorize", calls["factorize"])
        spy(chars, "factorize", calls["factorize"])
        spy(chars, "build_character_table", calls["table"])
        spy(meanval, "_batch_reports", calls["batch"])
        spy(meanval, "_mobius_divisor_terms", calls["terms"])
        monkeypatch.setattr(chars, "get_table", lambda q: pytest.fail(f"a sweep read the memo for q={q}"))
        monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", 1000)
        series = meanval.residual_sweep(target, BATCH_MODULI, **BATCH_SWEEPS[target])
        valid = [r.q for r in series.reports]
        batches = len(calls["batch"])
        assert 3 <= batches < len(valid)
        assert len(calls["psi"]) == batches
        assert len(calls["zeta"]) == (1 if target in ("eq1", "thm2") else 0)
        assert len(calls["oracle"]) == (1 if target == "thm1" else 0)
        assert sorted(args[0].n for args in calls["terms"]) == valid
        assert [args[0] for args in calls["table"]] == valid
        factored = Counter(args[0] for args in calls["factorize"])
        assert set(factored) == set(valid) and max(factored.values()) <= 2

    def test_parallel_batches_match_serial(self, monkeypatch):
        monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", 1000)  # several batches for the pool
        batches = meanval._batches([meanval.make_query("thm1", q, 2, k=5) for q in (97, 101, 211, 1009, 7)])
        assert [[query.q for query in batch] for batch in batches] == [[97, 101, 211], [1009], [7]]
        serial = meanval.residual_sweep("thm1", BATCH_MODULI, A(2), k=5, jobs=1)
        parallel = meanval.residual_sweep("thm1", BATCH_MODULI, A(2), k=5, jobs=2)
        assert parallel.reports == serial.reports

    def test_memory_is_set_by_the_batch_cap_not_the_sweep_length(self):
        moduli = [q for q in range(19800, 20200) if q % 10 == 1][:40]
        peaks = []
        for sweep in (moduli[-1:], moduli):
            tracemalloc.start()
            try:
                meanval.residual_sweep("eq1", sweep, A("3/2"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_main_term_memory_is_set_by_the_argument_cap(self, monkeypatch):
        # About 15000 divisor zetas for 2000 composite moduli: capped at 2^10
        # arguments a call, the step grows with the sweep by its output alone
        # (about 270 B a query); in one call it would grow by about 2.4 KB.
        moduli = [q for q in range(10**4, 2 * 10**4) if not is_prime(q)][:2000]
        monkeypatch.setattr(meanval, "_BATCH_ARGUMENTS", 2**10)
        peaks = []
        for sweep in (moduli[:200], moduli):
            queries = [meanval.make_query("eq1", q, A("3/2")) for q in sweep]
            facs = {q: factorize(q) for q in sweep}
            tracemalloc.start()
            try:
                meanval._main_terms(queries, facs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 500 * (len(moduli) - 200)


def residue_side(q, shift, k):
    """(phi/q^2) sum_r x_r x_{kr mod q} - (sum_r x_r/q)^2 over the units r,
    x_r = psi((r + shift)/q): the sum over every character of
    chi(k) |L(1, chi, shift)|^2, by orthogonality, less the principal one."""
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    x = np.zeros(q)
    x[units] = digamma((units + float(shift)) / q)
    return len(units) / q**2 * float((x[units] * x[units * k % q]).sum()) - (x.sum() / q) ** 2


class TestResidueDomainIdentity:
    """Each report's lhs equals its statistic written over the residues
    (residue_side); lemma4 is shift 0 with k its weight, eq1 k = 1."""

    SWEEPS = {"lemma4": (A(2), None, 2), "eq1": (A("3/2"), None, 1), "thm1": (A(2), 3, 3)}
    MODULI = (*range(3, 401), 2310, 4096, 30030)

    def worst_gap(self, target, moduli):
        a, k, weight = self.SWEEPS[target]
        series = meanval.residual_sweep(target, moduli, a, k=k)
        assert [r.q for r in series.reports] == [q for q in moduli if math.gcd(q, weight) == 1]
        shift = 0 if target == "lemma4" else a
        sides = [residue_side(r.q, shift, weight) for r in series.reports]
        return max(abs(r.lhs - side) / abs(side) for r, side in zip(series.reports, sides))

    @pytest.mark.parametrize("target", ["lemma4", "eq1", "thm1"])
    def test_reports_meet_the_residue_domain_statistic(self, target):
        assert self.worst_gap(target, self.MODULI) <= 1e-12

    @pytest.mark.parametrize("target", ["lemma4", "thm1"])
    def test_a_character_column_read_at_k_plus_one_breaks_it(self, target, monkeypatch):
        values_at = chars.CharacterTable.values_at
        monkeypatch.setattr(chars.CharacterTable, "values_at", lambda t, x: values_at(t, x + 1))
        assert self.worst_gap(target, (7, 11, 25, 97, 101, 4096)) > 1e-6

    @staticmethod
    def edit_tables(monkeypatch, edit):
        """Every table the sweep builds, edited in place by edit(t)."""
        build = chars.build_character_table

        def edited(q):
            t = build(q)
            edit(t)
            return t

        monkeypatch.setattr(chars, "build_character_table", edited)

    @pytest.mark.parametrize("target", ["lemma4", "eq1", "thm1"])
    def test_a_non_unit_in_the_grid_breaks_it(self, target, monkeypatch):
        def non_unit_last(t):
            units = t._units.copy()
            units[-1] = min(p for p, _ in factorize(t.q).factors)  # p | q
            t._units = units

        self.edit_tables(monkeypatch, non_unit_last)
        assert self.worst_gap(target, (25, 35, 55, 1001)) > 1e-6

    @pytest.mark.parametrize("target", ["lemma4", "thm1"])
    def test_swapped_logs_at_the_weight_break_it(self, target, monkeypatch):
        # eq1 is k = 1 and reads no character value, so no swap can move it.
        weight = self.SWEEPS[target][2]

        def swap_weight_and_minus_one(t):
            residue_index = t.residue_index.copy()
            residue_index[[weight, t.q - 1]] = residue_index[[t.q - 1, weight]]
            t.residue_index = residue_index

        self.edit_tables(monkeypatch, swap_weight_and_minus_one)
        assert self.worst_gap(target, (7, 11, 25, 97, 101, 4096)) > 1e-6

    @pytest.mark.parametrize("target", ["lemma4", "eq1", "thm1"])
    def test_the_principal_slot_left_in_breaks_it(self, target, monkeypatch):
        route_vectors_batch = lfun.route_vectors_batch

        def principal_kept(jobs, methods, n_terms=None):
            out = route_vectors_batch(jobs, methods, n_terms)
            for (t, a), vecs in zip(jobs, out):
                principal = lfun.closed_vectors_batch([(t, a, ("l1a",))])[0]["l1a"][t.principal_index]
                for vals, _ in vecs.values():
                    vals[t.principal_index] = principal
            return out

        monkeypatch.setattr(lfun, "route_vectors_batch", principal_kept)
        assert self.worst_gap(target, (7, 11, 25, 97, 101, 4096)) > 1e-6


def test_divisor_terms_from_the_primes_match_the_loop():
    for q in [*range(1, 400), 2310, 30030, 99991, 2**16, 3**10]:
        assert meanval._mobius_divisor_terms(factorize(q)) == tuple(mobius_divisor_loop(q)), q


@pytest.mark.parametrize("q", [2310, 30030])
@pytest.mark.parametrize("a_str", ["1", "7/2", "45"])
class TestMainTermsMatchDivisorLoop:
    """One special-function call per main term gives the per-divisor loop's value."""

    def test_eq1_main(self, q, a_str):
        a = A(a_str)
        phi = euler_phi(factorize(q))
        zeta_sum = harmonic_sum = 0.0
        for d, mu in mobius_divisor_loop(q):
            zeta_sum += mu / (d * d) * hurwitz_zeta(2.0, a.numerator / (a.denominator * d))
            harmonic_sum += mu / d * harmonic(floor_ratio(a, d))
        full, first = main_terms("eq1", q, a)
        assert math.isclose(first, phi * zeta_sum, rel_tol=1e-14, abs_tol=0.0)
        expected = phi * zeta_sum - 4.0 * phi / float(a) * harmonic_sum
        assert math.isclose(full, expected, rel_tol=1e-14, abs_tol=0.0)

    def test_thm1_diagonal_oracle(self, q, a_str):
        a, k = A(a_str), 17
        total = 0.0
        for d, mu in mobius_divisor_loop(q):
            total += mu / d * (digamma(1.0 + a.numerator / (a.denominator * d)) - digamma(1.0 + a.numerator / (a.denominator * k * d)))
        expected = euler_phi(factorize(q)) / (float(a) * (k - 1)) * total
        assert math.isclose(main_terms("thm1", q, a, k=k)[1], expected, rel_tol=1e-14, abs_tol=0.0)
