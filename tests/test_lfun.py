"""Shifted L-values at s=1: closed routes vs truncated partial-sum oracle."""

import dataclasses
import inspect
import math
import random
import sys

import numpy as np
import pytest

from lfunlab import expsum, lfun, meanval
from lfunlab.arith import is_prime
from lfunlab.chars import build_character_table, get_table
from lfunlab.expsum import Polynomial
from lfunlab.specfun import ShiftParam, hurwitz_zeta


def brute_series(q, j, a_value, n_terms):
    """Raw truncated series, written independently of the library routes."""
    t = get_table(q)
    V = t.values_matrix()
    n = np.arange(1, n_terms + 1)
    return complex(V[j, n % q] @ (1.0 / (n + a_value)))


class TestAnchors:
    def test_q4_leibniz(self):
        t = get_table(4)
        assert abs(lfun.l1_chi(t, 1) - math.pi / 4) < 1e-11

    def test_q3_against_partial_sum_oracle(self):
        t = get_table(3)
        value = lfun.l1_chi(t, 1)
        oracle = brute_series(3, 1, 0.0, 10**6)
        assert abs(value - oracle) < 6 / (10**6 + 1)
        assert abs(value - math.pi / (3 * math.sqrt(3))) < 1e-11

    def test_q4_shift_one_log2(self):
        t = get_table(4)
        r = lfun.l1_chi_a(t, 1, ShiftParam.of(1), "closed_direct")
        assert abs(r.value - math.log(2) / 2) < 1e-11

    def test_shift_zero_reduces_to_unshifted(self):
        t = get_table(4)
        r = lfun.l1_chi_a(t, 1, ShiftParam.of(0), "closed_direct")
        assert abs(r.value - math.pi / 4) < 1e-11
        for q in (5, 7, 12):
            tq = get_table(q)
            for j in range(tq.phi):
                if j == tq.principal_index:
                    continue
                for method in ("closed_direct", "closed_lemma1"):
                    r = lfun.l1_chi_a(tq, j, ShiftParam.of(0), method)
                    assert abs(r.value - lfun.l1_chi(tq, j)) < 1e-12

    def test_conjugate_pair_q5(self):
        t = get_table(5)
        for j in range(1, 4):
            jc = t.conjugate_map[j]
            assert abs(lfun.l1_chi(t, j).conjugate() - lfun.l1_chi(t, jc)) < 1e-12


def kronecker_at_2(d):
    """(d/2): 0 for even d, -1 for d = 3, 5 (mod 8), else 1."""
    return 0 if d % 2 == 0 else -1 if d % 8 in (3, 5) else 1


def kronecker(d, n):
    """The Kronecker symbol (d/n) for n >= 1: a factor (d/2) per factor 2 of
    n, then the Jacobi symbol by reciprocity."""
    result = 1
    while n % 2 == 0:
        n //= 2
        result *= kronecker_at_2(d)
    if result == 0:
        return 0
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def fundamental_discriminants(limit):
    """Every D <= limit with -D a fundamental discriminant: D = 3 (mod 4)
    squarefree, or D = 4m with m = 1, 2 (mod 4) squarefree."""
    return [d for d in range(3, limit + 1)
            if d % 4 == 3 and squarefree(d) or d % 4 == 0 and d // 4 % 4 in (1, 2) and squarefree(d // 4)]


def class_number(d):
    """h(-D) as the number of reduced forms (a, b, c) of discriminant -D:
    |b| <= a <= c, with b >= 0 when |b| = a or a = c (so 3a^2 <= D)."""
    h = 0
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(1 - a, a + 1):
            c, rem = divmod(b * b + d, 4 * a)
            if rem == 0 and c >= a and not (b < 0 and c == a):
                h += 1
    return h


def kronecker_character(t, d):
    """The index of chi_{-D} mod D: its exponent on each axis is 0 or half
    the axis order, as (-D / u) is 1 or -1 at the axis unit u."""
    j, stride = 0, t.phi
    for s in t.grid_shape:
        stride //= s
        if kronecker(-d, int(t._units[stride])) == -1:
            j += s // 2 * stride
    return j


# w(-D), the number of units of the quadratic order of discriminant -D: 2
# unless D is 3 or 4.
ROOTS_OF_UNITY = {3: 6, 4: 4}


def class_number_gap(d):
    """|L(1, chi_{-D}) - 2 pi h/(w sqrt D)| relative to the class number
    formula's side (Davenport, Multiplicative Number Theory, ch. 6)."""
    t = build_character_table(d)
    w = ROOTS_OF_UNITY.get(d, 2)
    expected = 2 * math.pi * class_number(d) / (w * math.sqrt(d))
    return abs(lfun.l1_vector(t)[kronecker_character(t, d)] - expected) / expected


class TestClassNumberAnchor:
    """L(1, chi_{-D}) = 2 pi h(-D)/(w sqrt D) at every fundamental
    discriminant -D with D <= 3000, h counted from reduced forms; a digamma
    error, a wrong w, a sign error in (-D/2) and a misordered table each
    break it."""

    KNOWN = {1: (3, 4, 7, 8, 11, 19, 43, 67, 163), 2: (20, 24, 40), 3: (23,), 4: (56, 84), 5: (47,), 7: (71,)}

    def test_class_numbers_by_reduced_forms(self):
        assert {d: class_number(d) for h, ds in self.KNOWN.items() for d in ds} == {
            d: h for h, ds in self.KNOWN.items() for d in ds}
        assert len(fundamental_discriminants(3000)) == 911

    def test_closed_route_meets_the_class_number_formula(self):
        assert max(class_number_gap(d) for d in fundamental_discriminants(3000)) <= 1e-12

    def test_a_digamma_error_breaks_the_formula(self, monkeypatch):
        digamma = lfun.digamma
        monkeypatch.setattr(lfun, "digamma", lambda x: digamma(x) * (1 + 1e-9))
        assert min(class_number_gap(d) for ds in self.KNOWN.values() for d in ds) > 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_a_wrong_unit_count_breaks_the_formula(self, d, monkeypatch):
        monkeypatch.setitem(ROOTS_OF_UNITY, d, 2)
        assert class_number_gap(d) > 0.1

    # Primes with primitive root 2: the axis unit is 2, so locating chi_{-D}
    # reads (-D/2).
    @pytest.mark.parametrize("d", [3, 11, 19, 67, 163])
    def test_a_sign_error_at_2_breaks_the_formula(self, d, monkeypatch):
        assert build_character_table(d)._units[1] == 2
        at_2 = kronecker_at_2
        monkeypatch.setattr(sys.modules[__name__], "kronecker_at_2", lambda d: -at_2(d))
        assert class_number_gap(d) > 0.1

    def test_swapped_units_of_opposite_symbols_break_the_formula(self, monkeypatch):
        build = build_character_table

        def swapped(d):
            t = build(d)
            symbols = [kronecker(-d, int(u)) for u in t._units]
            i, j = symbols.index(-1), len(symbols) - 1 - symbols[::-1].index(1)
            units = t._units.copy()
            units[[i, j]] = units[[j, i]]
            residue_index = t.residue_index.copy()
            residue_index[units[[i, j]]] = [i, j]
            return dataclasses.replace(t, residue_index=residue_index)

        monkeypatch.setattr(sys.modules[__name__], "build_character_table", swapped)
        # Not D = 8: there the swapped units 3 and 5 are the two generators of
        # (Z/8)^* = C2 x C2, and swapping them is an automorphism of the group.
        assert min(class_number_gap(d) for ds in self.KNOWN.values() for d in ds if d != 8) > 0.1


class TestShiftedTailSum:
    def test_q4_a1_anchor_difference(self):
        t = get_table(4)
        v = lfun.shifted_tail_sum(t, 1, ShiftParam.of(1))
        assert abs(v - (math.pi / 4 - math.log(2) / 2)) < 1e-10

    def test_a0_hurwitz_split_q4(self):
        t = get_table(4)
        v = lfun.shifted_tail_sum(t, 1, ShiftParam.of(0))
        expected = (hurwitz_zeta(2, 0.25) - hurwitz_zeta(2, 0.75)) / 16
        assert abs(v - expected) < 1e-12

    def test_q3_a3_against_oracle(self):
        t = get_table(3)
        v = lfun.shifted_tail_sum(t, 1, ShiftParam.of(3))
        n = np.arange(1, 10**6 + 1)
        oracle = complex(t.values_matrix()[1, n % 3] @ (1.0 / (n * (n + 3))))
        assert abs(v - oracle) < 1e-10


@pytest.mark.parametrize("q", [5, 12, 35])
@pytest.mark.parametrize("a_str", ["0", "1", "2", "7/2"])
def test_lemma1_identity(q, a_str):
    t = get_table(q)
    a = ShiftParam.of(a_str)
    for j in range(t.phi):
        if j == t.principal_index:
            continue
        direct = lfun.l1_chi_a(t, j, a, "closed_direct").value
        assembled = lfun.l1_chi(t, j) - float(a) * lfun.shifted_tail_sum(t, j, a)
        assert abs(direct - assembled) < 1e-9


@pytest.mark.parametrize("q", [5, 7, 12])
@pytest.mark.parametrize("a_str", ["1", "7/2"])
def test_conjugation_commutes_with_shift(q, a_str):
    t = get_table(q)
    a = ShiftParam.of(a_str)
    for j in range(t.phi):
        if j == t.principal_index:
            continue
        jc = t.conjugate_map[j]
        lhs = lfun.l1_chi_a(t, jc, a, "closed_direct").value
        assert abs(lhs - lfun.l1_chi_a(t, j, a, "closed_direct").value.conjugate()) < 1e-12


class TestTruncated:
    def test_q4_known_limit(self):
        t = get_table(4)
        r = lfun.l1_chi_a_truncated(t, 1, ShiftParam.of(1), 10**6)
        assert r.error_bound == pytest.approx(8 / (10**6 + 1))
        assert abs(r.value - math.log(2) / 2) <= r.error_bound

    def test_contract_closed_inside_bound(self):
        for q, j, a_str in ((3, 1, "0"), (5, 2, "2"), (12, 3, "7/2"), (35, 7, "1")):
            t = get_table(q)
            a = ShiftParam.of(a_str)
            r = lfun.l1_chi_a_truncated(t, j, a, 200 * q)
            closed = lfun.l1_chi_a(t, j, a, "closed_direct").value
            assert abs(r.value - closed) <= r.error_bound

    def test_rejects_bad_cutoff(self):
        t = get_table(5)
        with pytest.raises(ValueError):
            lfun.l1_chi_a_truncated(t, 1, ShiftParam.of(1), 5001)  # not a multiple
        with pytest.raises(ValueError):
            lfun.l1_chi_a_truncated(t, 1, ShiftParam.of(1), 25)  # below 10q

    def test_oracle_consistency_random_triples(self):
        rng = random.Random(20260814)
        for _ in range(100):
            q = rng.randint(3, 50)
            t = get_table(q)
            if t.phi < 2:
                continue
            j = rng.choice([i for i in range(t.phi) if i != t.principal_index])
            a = ShiftParam(rng.randint(0, 14), rng.randint(1, 4))
            r = lfun.l1_chi_a_truncated(t, j, a, 1000 * q)
            closed = lfun.l1_chi_a(t, j, a, "closed_direct").value
            assert abs(r.value - closed) <= r.error_bound


@pytest.mark.parametrize("q", [24, 40, 63])
@pytest.mark.parametrize("method", ["closed_direct", "closed_lemma1"])
def test_closed_vectors_inside_partial_sum_bound(q, method):
    t = get_table(q)
    n_terms = 1000 * q
    for a_str in ("0", "1", "7/2"):
        a = ShiftParam.of(a_str)
        vec = lfun.l1a_vector(t, a, method)
        for j in range(t.phi):
            if j == t.principal_index:
                continue
            assert abs(vec[j] - brute_series(q, j, float(a), n_terms)) <= 2 * q / (n_terms + 1)


class TestValidation:
    def test_principal_rejected(self):
        t = get_table(5)
        with pytest.raises(ValueError):
            lfun.l1_chi(t, t.principal_index)
        with pytest.raises(ValueError):
            lfun.l1_chi_a(t, t.principal_index, ShiftParam.of(1), "closed_direct")
        with pytest.raises(ValueError):
            lfun.l1_chi_a_truncated(t, t.principal_index, ShiftParam.of(1), 1000 * 5)

    def test_unknown_method_rejected(self):
        t = get_table(5)
        with pytest.raises(ValueError):
            lfun.evaluate(t, 1, ShiftParam.of(1), "closed_magic")

    def test_evaluate_dispatch(self):
        t = get_table(5)
        a = ShiftParam.of(2)
        for method in lfun.METHODS:
            r = lfun.evaluate(t, 1, a, method)
            assert r.method == method
            assert r.q == 5 and r.a == a
            assert r.error_bound >= 0


def test_default_truncation_scale():
    assert lfun.default_truncation(7) == 7 * 10**4
    assert lfun.default_truncation(7) % 7 == 0


@pytest.mark.parametrize("q, periods", [(3, 10), (24, 1000), (97, 355)])
def test_folded_weights_match_one_pass_bincount(q, periods, monkeypatch):
    # Blocks of 7 periods: several whole blocks and a shorter last one.
    monkeypatch.setattr(lfun, "_FOLD_BLOCK_TERMS", 7 * q)
    a = ShiftParam.of("3/2")
    n = np.arange(1, periods * q + 1)
    reference = np.bincount(n % q, weights=1.0 / (n + 1.5), minlength=q)
    assert np.allclose(lfun._folded_weights(q, a, periods * q), reference, rtol=1e-14, atol=0)



def _blocked_fold(q, a_value, periods):
    """The term-by-term fold of every period, blocks of _FOLD_BLOCK_TERMS terms."""
    rows = max(1, lfun._FOLD_BLOCK_TERMS // q)
    acc = np.zeros(q)
    for k in range(0, periods, rows):
        terms = np.arange(k * q + 1, min(k + rows, periods) * q + 1, dtype=np.float64)
        terms += a_value
        np.reciprocal(terms, out=terms)
        acc += terms.reshape(-1, q).sum(axis=0)
    return np.roll(acc, 1)


class TestFarPeriods:
    """The truncated route sums _HEAD_PERIODS (24) periods term by term and
    the rest by Euler-Maclaurin through B_10."""

    @pytest.mark.parametrize("q", [3, 24, 97, 1009, 4999])
    def test_weights_match_40_digit_partial_sums(self, q):
        mpmath = pytest.importorskip("mpmath")
        periods = 10**4
        # q = 4999 is the size large-modulus draws; one shift keeps it near 0.5 s
        shifts = ("3/2",) if q == 4999 else ("0", "3/2", "7")
        with mpmath.workdps(40):
            for a in map(ShiftParam.of, shifts):
                weights = lfun._folded_weights(q, a, periods * q)
                a_mp = mpmath.mpf(a.numerator) / a.denominator
                # residue c collects n = kq + c (c = q for residue 0), k = 0 .. P-1
                betas = [(c + a_mp) / q for c in [q] + list(range(1, q))]
                exact = np.array([float((mpmath.digamma(periods + b) - mpmath.digamma(b)) / q) for b in betas])
                assert np.abs(weights / exact - 1).max() <= 2e-15, (q, a)

    @pytest.mark.parametrize("q, periods", [
        (3, 10), (24, lfun._HEAD_PERIODS - 7), (97, lfun._HEAD_PERIODS), (1009, lfun._HEAD_PERIODS),
    ])
    @pytest.mark.parametrize("block_periods", [7, None])
    def test_head_only_is_the_blocked_fold_bit_for_bit(self, q, periods, block_periods, monkeypatch):
        assert periods <= lfun._HEAD_PERIODS
        if block_periods:
            monkeypatch.setattr(lfun, "_FOLD_BLOCK_TERMS", block_periods * q)
        a = ShiftParam.of("3/2")
        assert np.array_equal(lfun._folded_weights(q, a, periods * q), _blocked_fold(q, 1.5, periods))

    @pytest.mark.parametrize("q, periods", [(5, 10), (5, 24), (5, 25), (5, 100), (5, 101), (24, 10**4), (97, 355)])
    @pytest.mark.parametrize("a_str", ["0", "3/2", "7"])
    def test_bound_covers_the_euler_maclaurin_remainder(self, q, periods, a_str):
        a = ShiftParam.of(a_str)
        n_terms = periods * q
        _, bound = lfun.truncated_vector(get_table(q), a, n_terms)
        far = 0.0
        if periods > 24:  # |B_12| / (12q) (24 + beta_min)^-12 per weight, q weights
            far = (691 / 2730) / 12 * (24 + (1 + float(a)) / q) ** -12
        assert far < 1e-18  # printed bounds do not move
        # the series bound alone is 1e14 times larger, so check the EM term on its own too
        assert lfun._far_remainder(q, a, periods) >= far
        assert bound >= 2 * q / (n_terms + 1) + far

    @pytest.mark.parametrize("q", [3, 4, 97, 1009, 4999, 10**4, 99991, 10**5])
    @pytest.mark.parametrize("a_str", ["0", "1", "3/2", "7", "50"])
    def test_far_remainder_stays_below_printed_digits(self, q, a_str):
        assert 0 < lfun._far_remainder(q, ShiftParam.of(a_str), 10**4) < 1e-18

    @pytest.mark.parametrize("q", [3, 97, 1009, 4999, 20011])
    def test_fold_evaluates_only_the_head_term_by_term(self, q, monkeypatch):
        folded = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def reciprocal(x, out=None):
                folded.append(x.size)
                return np.reciprocal(x, out=out)

        monkeypatch.setattr(lfun, "np", CountingNumpy())
        lfun._folded_weights(q, ShiftParam.of("3/2"), 10**4 * q)
        assert sum(folded) == lfun._HEAD_PERIODS * q

    def test_truncated_route_uses_no_special_function(self, monkeypatch):
        from lfunlab import specfun

        t = get_table(97)
        a = ShiftParam.of("3/2")
        expected, expected_bound = lfun.truncated_vector(t, a, 10**4 * 97)

        def forbidden(*args, **kwargs):
            raise AssertionError("the truncated route called a special function")

        monkeypatch.setattr(lfun, "digamma", forbidden)
        monkeypatch.setattr(lfun, "hurwitz_zeta", forbidden)
        for name, obj in vars(specfun).items():
            if inspect.isfunction(obj) and obj.__module__ == specfun.__name__:
                monkeypatch.setattr(specfun, name, forbidden)
        values, bound = lfun.truncated_vector(t, a, 10**4 * 97)
        assert np.array_equal(values, expected) and bound == expected_bound

class TestPsiGridWork:
    """Each report makes one digamma call, on every psi grid it needs at the
    phi(q) units, and one batched transform of the grids (calls counted, not
    timed)."""

    @staticmethod
    def _record_grid_sizes(monkeypatch):
        sizes = {"digamma": [], "hurwitz_zeta": []}
        for module in (lfun, meanval):
            for name, log in sizes.items():
                def counting(*args, _fn=getattr(module, name), _log=log):
                    _log.append(np.size(args[-1]))
                    return _fn(*args)
                monkeypatch.setattr(module, name, counting)
        return sizes

    @staticmethod
    def _record_fft_calls(monkeypatch):
        calls = []
        for name in ("ifft", "ifftn"):
            def counting(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(np.shape(args[0]))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        return calls

    @pytest.mark.parametrize("target, a, extra, psi_grids", [
        ("eq1", "3/2", {}, 2),
        ("thm1", "3/2", {"k": 2}, 2),
        ("thm2", "3/2", {"f": Polynomial.parse("1,0,3,2")}, 2),
        ("lemma4", "2", {}, 1),
    ])
    def test_build_report_grid_count(self, target, a, extra, psi_grids, monkeypatch):
        q = 101
        query = meanval.make_query(target, q, a, **extra)
        meanval.clear_memo()
        sizes = self._record_grid_sizes(monkeypatch)
        fft_calls = self._record_fft_calls(monkeypatch)
        meanval.build_report(query)
        # thm1's diagonal oracle adds a digamma call on its few divisor terms
        phi = get_table(q).phi
        assert [n for n in sizes["digamma"] if n >= phi] == [psi_grids * phi]
        assert sizes["hurwitz_zeta"].count(phi) == 0
        # the closed routes' batch; thm2 adds the one transform of S(chi, f)
        assert len(fft_calls) == (2 if target == "thm2" else 1)
        meanval.clear_memo()

    @pytest.mark.parametrize("q", [5, 24, 101, 1033])
    @pytest.mark.parametrize("a, rows", [("0", 1), ("3/2", 3), ("2", 3)])
    def test_route_vectors_one_call_of_each_kind(self, q, a, rows, monkeypatch):
        t = get_table(q)
        a = ShiftParam.of(a)
        expected = {m: lfun.route_vectors_batch([(t, a)], (m,))[0][m] for m in ("closed_direct", "closed_lemma1")}
        sizes = self._record_grid_sizes(monkeypatch)
        fft_calls = self._record_fft_calls(monkeypatch)
        got = lfun.route_vectors_batch([(t, a)], ("closed_direct", "closed_lemma1"))[0]
        assert sizes["digamma"] == [(1 if a == 0 else 2) * t.phi]  # psi at the units only
        assert [shape[0] for shape in fft_calls] == [rows]  # one call on the batch of distinct grids
        for m, (vals, bound) in expected.items():  # the batch changes no bit of either route
            assert np.array_equal(got[m][0], vals) and got[m][1] == bound

    @pytest.mark.parametrize("methods", [
        ("closed_direct", "closed_lemma1"), ("closed_lemma1",), ("closed_direct", "truncated"), ("truncated",),
    ])
    def test_route_vectors_batch_equals_one_job_calls(self, methods, monkeypatch):
        # Every job's psi grids come from one digamma call on all of them, and
        # each job's vectors equal a batch of that job alone bit for bit.
        jobs = [(build_character_table(q), ShiftParam.of(a))
                for q, a in ((1, "3/2"), (5, "3/2"), (24, "0"), (101, "2"), (1033, "3/2"), (2310, "5/2"))]
        sizes = self._record_grid_sizes(monkeypatch)
        expected = [lfun.route_vectors_batch([job], methods)[0] for job in jobs]
        one_job = list(sizes["digamma"])
        sizes["digamma"].clear()
        got = lfun.route_vectors_batch(jobs, methods)
        assert sizes["digamma"] == ([sum(one_job)] if one_job else [])  # none for the truncated route alone
        for vecs, ref in zip(got, expected):
            assert list(vecs) == list(methods)
            for m, (vals, bound) in ref.items():
                assert np.array_equal(vecs[m][0], vals) and vecs[m][1] == bound
        assert lfun.route_vectors_batch([], methods) == []

    @pytest.mark.parametrize("q", [5, 24, 101])
    def test_closed_lemma1_at_zero_is_l1_vector(self, q, monkeypatch):
        t = get_table(q)
        expected = lfun.l1_vector(t)

        def no_tail(*args):
            raise AssertionError("closed_lemma1 built a Hurwitz grid at a = 0")

        monkeypatch.setattr(lfun, "hurwitz_zeta", no_tail)
        assert np.array_equal(lfun.l1a_vector(t, ShiftParam(0), "closed_lemma1"), expected)


def _residue_order_closed_vectors(t, a, parts):
    """Oracle: one closed_vectors_batch job with every psi grid at the
    residues r = 1 .. q-1 (column 0 holds 0), transformed through
    sums_over_residues."""
    q, s = t.q, float(a)
    shifts = (s, 0.0)
    psi = np.zeros((2, q))
    psi[:, 1:] = lfun.digamma((np.arange(1, q) + np.array(shifts)[:, None]) / q)
    grids = {"l1a": psi[0], "l1": psi[1], "tail": psi[0] - psi[1]}
    keys = [p for p in ("l1a", "l1", "tail") if p in parts]
    sums = dict(zip(keys, t.sums_over_residues(np.stack([grids[k] for k in keys]))))
    return {p: sums[p] / (s * q) if p == "tail" else -sums[p] / q for p in keys}


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 24, 101, 1033, 2310, 30030])
def test_unit_order_grids_are_bit_identical_to_residue_order(q, monkeypatch):
    # Grids evaluated at the phi(q) units in grid order change no bit of the
    # closed pieces, the zeta(2, .) tail at a = 0 or S(chi, f).  At q = 1 the
    # only unit is residue 0: its slot stays 0 and no psi is taken there.
    t = get_table(q)
    arguments = []
    digamma = lfun.digamma
    monkeypatch.setattr(lfun, "digamma", lambda x: arguments.append(np.min(x, initial=1.0)) or digamma(x))
    for a in ("0", "3/2", "2"):
        a = ShiftParam.of(a)
        parts = ("l1a", "l1", "tail") if float(a) else ("l1a", "l1")
        got, expected = lfun.closed_vectors_batch([(t, a, parts)])[0], _residue_order_closed_vectors(t, a, parts)
        for p in parts:
            assert np.array_equal(got[p], expected[p]), (a, p)
    assert min(arguments) > 0
    zeta_grid = np.zeros(q)
    zeta_grid[1:] = hurwitz_zeta(2.0, np.arange(1, q) / q)
    assert np.array_equal(lfun.tail_vector(t, ShiftParam(0)), t.sums_over_residues(zeta_grid) / (q * q))
    if q > 2 and is_prime(q):
        f = Polynomial.parse("1,0,3,2")
        terms = np.zeros(q, dtype=np.complex128)
        terms[1:] = expsum._e(expsum._poly_values_mod(f.coefficients, q, np.arange(1, q, dtype=np.int64)), q)
        assert np.array_equal(expsum.weighted_char_sum_all(t, f), t.sums_over_residues(terms))
