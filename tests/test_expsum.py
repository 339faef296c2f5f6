"""Exponential sums mod p: difference polynomials, the squared-modulus
decomposition identity, and explicit Weil-type bound audits.

The independent oracle throughout is a direct cmath evaluation of
sum(chi(x) e(f(x)/p)), no shared code with the library implementation.
"""

import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lfunlab import expsum
from lfunlab.arith import primitive_root
from lfunlab.chars import CharacterTable, build_character_table, char_value, get_table
from lfunlab.expsum import (
    CompletedSumAudit,
    Polynomial,
    complete_sum,
    difference_poly,
    difference_sums,
    lemma2_defect,
    lemma3_report,
    sample_polynomial,
    weighted_char_sum_all,
)


def poly_mod(coefficients, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coefficients)) % p


def brute_complete_sum(p, coefficients):
    return sum(cmath.exp(2j * cmath.pi * poly_mod(coefficients, y, p) / p) for y in range(1, p))


def full_difference_table(p, f):
    """Coefficient rows and T(g_x) for every x = 2..p-1, each row summed on
    its own with a remainder after every Horner step over y = 1..p-1: the
    table without the primitive-root walk or the inverse-pair halving."""
    xs = np.arange(2, p, dtype=np.int64)
    coeffs = np.array([[a * (pow(int(x), i, p) - 1) % p for i, a in enumerate(f.coefficients)]
                       for x in xs], dtype=np.int64).reshape(len(xs), len(f.coefficients))
    ys = np.arange(1, p, dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    sums = per_step_block_sums(coeffs, p, ys, roots)
    sums[~coeffs.any(axis=1)] = p - 1
    return coeffs, sums


def per_step_block_sums(block, p, ys, roots):
    acc = np.empty((len(block), p - 1), dtype=np.int64)
    acc[:] = block[:, -1:]
    for i in range(block.shape[1] - 2, -1, -1):
        acc = (acc * ys + block[:, i:i + 1]) % p
    return np.take(roots, acc).sum(axis=1)


def brute_weighted_sum(t, j, f):
    p = t.q
    return sum(
        char_value(t, j, x) * cmath.exp(2j * cmath.pi * poly_mod(f.coefficients, x, p) / p)
        for x in range(1, p)
    )


class TestPolynomial:
    def test_parse(self):
        f = Polynomial.parse("1,0,3,2")
        assert f.coefficients == (1, 0, 3, 2)
        assert f.degree == 3
        assert str(f) == "1,0,3,2"

    def test_parse_rejects_garbage(self):
        for bad in ("", "5", "1,a,2", "1.5,2"):
            with pytest.raises(ValueError):
                Polynomial.parse(bad)

    def test_requires_degree_at_least_one(self):
        with pytest.raises(ValueError):
            Polynomial((7,))

    def test_coprime_check(self):
        assert Polynomial((1, 0, 3)).coprime_to(3)
        assert not Polynomial((3, 6, 9)).coprime_to(3)


class TestDifferencePoly:
    def test_x_one_vanishes(self):
        f = Polynomial((4, 1, 2, 3))
        g = difference_poly(f, 1, 7)
        assert g.coefficients == (0, 0, 0, 0)
        assert g.degenerate

    def test_linear_example(self):
        g = difference_poly(Polynomial((0, 1)), 2, 5)
        assert g.coefficients == (0, 1)
        assert not g.degenerate

    def test_square_degenerate_at_minus_one(self):
        # 6^2 = 36 = 1 mod 7, so x=6 kills the quadratic term
        g = difference_poly(Polynomial((0, 0, 1)), 6, 7)
        assert g.coefficients == (0, 0, 0)
        assert g.degenerate

    def test_formula_bi(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rng.choice([5, 7, 11, 13])
            f = Polynomial(tuple(rng.randrange(p) for _ in range(rng.randint(2, 5))))
            x = rng.randrange(1, p)
            g = difference_poly(f, x, p)
            assert g.coefficients[0] == 0
            for i, (a_i, b_i) in enumerate(zip(f.coefficients, g.coefficients)):
                assert b_i == a_i * (pow(x, i, p) - 1) % p

    def test_matches_fxy_minus_fy(self):
        # complete_sum of the difference poly equals the literal sum over
        # y of e((f(xy) - f(y))/p)
        rng = random.Random(5)
        for _ in range(25):
            p = rng.choice([5, 7, 11])
            f = Polynomial(tuple(rng.randrange(p) for _ in range(rng.randint(2, 5))))
            x = rng.randrange(2, p)
            g = difference_poly(f, x, p)
            lhs = complete_sum(p, g.coefficients)
            rhs = sum(
                cmath.exp(
                    2j
                    * cmath.pi
                    * ((poly_mod(f.coefficients, x * y % p, p) - poly_mod(f.coefficients, y, p)) % p)
                    / p
                )
                for y in range(1, p)
            )
            assert abs(lhs - rhs) < 1e-10

    def test_rejects_bad_inputs(self):
        f = Polynomial((0, 1))
        with pytest.raises(ValueError):
            difference_poly(f, 1, 6)  # composite modulus
        with pytest.raises(ValueError):
            difference_poly(f, 0, 5)
        with pytest.raises(ValueError):
            difference_poly(f, 5, 5)


class TestCompleteSum:
    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_linear_is_minus_one(self, p, c):
        assert abs(complete_sum(p, (0, c)) - (-1)) < 1e-12

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_zero_polynomial_exact(self, p):
        assert complete_sum(p, (0, 0)) == complex(p - 1)
        assert complete_sum(p, (p, 2 * p, p * p)) == complex(p - 1)

    def test_quadratic_gauss_modulus(self):
        s = complete_sum(5, (0, 0, 1))
        assert abs(abs(s + 1) - math.sqrt(5)) < 1e-12

    def test_against_cmath_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rng.choice([5, 7, 11, 13])
            coeffs = tuple(rng.randrange(-10, 30) for _ in range(rng.randint(2, 6)))
            assert abs(complete_sum(p, coeffs) - brute_complete_sum(p, coeffs)) < 1e-11

    def test_completion_identity(self):
        # sum over y=1..p-1 equals full period sum minus the y=0 term
        rng = random.Random(9)
        for _ in range(20):
            p = rng.choice([5, 7, 11])
            coeffs = tuple(rng.randrange(p) for _ in range(3))
            full = sum(
                cmath.exp(2j * cmath.pi * poly_mod(coeffs, y, p) / p) for y in range(p)
            )
            assert abs(complete_sum(p, coeffs) - (full - cmath.exp(2j * cmath.pi * coeffs[0] / p))) < 1e-12


class TestDifferenceSums:
    @pytest.mark.parametrize("p", [3, 5, 7, 101, 211, 397])
    def test_blocks_match_per_x_complete_sums(self, p, monkeypatch):
        # Blocks of 5 or 6 rows: several near-equal blocks where p > 11.
        monkeypatch.setattr(expsum, "_DIFFERENCE_BLOCK", 5 * (p - 1))
        rng = random.Random(p)
        # f(x) = x^3 and x^6 have degenerate x (cube and sixth roots of unity).
        for f in (Polynomial((0, 0, 0, 1)), Polynomial((1, 0, 0, 0, 0, 0, 1)),
                  Polynomial(tuple(rng.randrange(-p, 2 * p) for _ in range(5)))):
            values = difference_sums(p, f)
            degenerate = 0
            for x in range(2, p):
                d = difference_poly(f, x, p)
                expected = complete_sum(p, d.coefficients)
                if d.degenerate:
                    degenerate += 1
                    assert values[x - 2] == complex(p - 1)
                else:
                    assert abs(values[x - 2] - expected) <= 1e-12 * p
            if p % 3 == 1 and f.degree in (3, 6):
                assert degenerate > 0

    @pytest.mark.parametrize("p", [3, 5, 7, 101, 1009])
    def test_inverse_pair_halving_matches_full_rows(self, p, monkeypatch):
        # Blocks of 3 rows, so the (p - 1)/2 summed rows span several blocks.
        monkeypatch.setattr(expsum, "_DIFFERENCE_BLOCK", 3 * (p - 1))
        shifts = []
        kernel = expsum._shifted_sums

        def spy(windows, block, roots):
            shifts.extend(block)
            return kernel(windows, block, roots)

        monkeypatch.setattr(expsum, "_shifted_sums", spy)
        g = primitive_root(p)
        rng = random.Random(p + 1)
        for f in (Polynomial((0, 0, 0, 1)), Polynomial((1, 0, 0, 0, 0, 0, 1)),
                  Polynomial(tuple(rng.randrange(p) for _ in range(4))),
                  Polynomial(tuple(rng.randrange(-p, 2 * p) for _ in range(7)))):
            shifts.clear()
            values = difference_sums(p, f)
            coeffs, full = full_difference_table(p, f)
            assert np.abs(values - full).max() <= 1e-13 * p
            # Each pair {x, 1/x} summed once, the self-inverse p - 1 among them.
            pairs = [frozenset((pow(g, l, p), pow(g, -l, p))) for l in shifts]
            assert len(set(pairs)) == len(pairs) == (p - 1) // 2
            assert set().union(*pairs) == set(range(2, p))
            assert frozenset((p - 1,)) in pairs
            for x in range(2, p - 1):  # p - 1 is its own inverse, summed directly
                assert values[pow(x, -1, p) - 2] == np.conj(values[x - 2])
            degenerate = ~coeffs.any(axis=1)
            assert np.array_equal(values[degenerate], full[degenerate])

    @pytest.mark.parametrize("p", [5, 101, 1009])
    def test_window_off_by_one_fails_the_oracle(self, p, monkeypatch):
        kernel = expsum._shifted_sums
        monkeypatch.setattr(expsum, "_shifted_sums", lambda windows, block, roots: kernel(
            windows, range(block.start + 1, block.stop + 1), roots))
        f = Polynomial((0, 1, 2, 1))
        _, full = full_difference_table(p, f)
        assert np.abs(difference_sums(p, f) - full).max() > 1e-13 * p

    @pytest.mark.parametrize("p", [101, 1009])
    def test_no_fourier_transform_in_the_direct_table(self, p, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the direct difference table called an FFT")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        rng = random.Random(p)
        for f in (Polynomial((0, 0, 0, 1)), Polynomial(tuple(rng.randrange(p) for _ in range(7)))):
            _, full = full_difference_table(p, f)
            assert np.abs(difference_sums(p, f) - full).max() <= 1e-13 * p

    @pytest.mark.parametrize("p", [5, 101, 1009])
    def test_dropped_conjugate_fails_the_oracle(self, p, monkeypatch):
        kernel = expsum._shifted_sums
        monkeypatch.setattr(expsum, "_shifted_sums", lambda windows, block, conj_u: kernel(
            windows, block, np.conj(conj_u)))
        f = Polynomial((0, 1, 2, 1))
        _, full = full_difference_table(p, f)
        assert np.abs(difference_sums(p, f) - full).max() > 1e-13 * p

    def test_bytes_do_not_depend_on_blas_threads(self):
        # p = 2203 as the sweeps use it, and p = 10007 in blocks of two rows:
        # a block of one row above n = 10000 goes to a dot product that
        # OpenBLAS splits across threads, which changes the last bits.
        code = (
            "import random, sys\n"
            "from lfunlab import expsum\n"
            "for p, block in ((2203, expsum._DIFFERENCE_BLOCK), (10007, 1)):\n"
            "    expsum._DIFFERENCE_BLOCK = block\n"
            "    f = expsum.sample_polynomial(random.Random(p), 3, p)\n"
            "    sys.stdout.buffer.write(expsum.difference_sums(p, f).tobytes())\n"
        )
        path = os.pathsep.join(filter(None, [str(Path(expsum.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH", "")]))
        outputs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0]) == 16 * (2201 + 10005)
        assert outputs[0] == outputs[1]

    def test_non_generator_walk_raises(self, monkeypatch):
        p, f = 101, Polynomial((0, 1, 2, 1))
        monkeypatch.setattr(expsum, "primitive_root", lambda m: 4)  # a square: order (p-1)/2 at most
        with pytest.raises(ValueError, match="do not walk once through the units"):
            difference_sums(p, f)

    # The largest prime the budget admits: 19997 * 19995 <= 4e8 < 20009 * 20011.
    @pytest.mark.parametrize("degree", [3, 6])
    def test_largest_admitted_prime_matches_sampled_rows(self, degree):
        p = 19997
        expsum.check_difference_budget(p)
        with pytest.raises(ValueError, match="over their budget"):
            expsum.check_difference_budget(20011)
        rng = random.Random(degree)
        f = sample_polynomial(rng, degree, p)
        values = difference_sums(p, f)
        xs = [2, 3, p - 2, p - 1] + rng.sample(range(4, p - 2), 12)
        coeffs = np.array([[a * (pow(x, i, p) - 1) % p for i, a in enumerate(f.coefficients)]
                           for x in xs], dtype=np.int64)
        expected = per_step_block_sums(coeffs, p, np.arange(1, p, dtype=np.int64),
                                       np.exp(2j * np.pi * np.arange(p) / p))
        assert np.abs(values[np.array(xs) - 2] - expected).max() <= 1e-13 * p

    def test_budget_counts_p_minus_2_times_p_evaluations(self, monkeypatch):
        p, f = 101, Polynomial((0, 1, 1))
        monkeypatch.setattr(expsum, "_DIFFERENCE_EVALUATIONS", 99 * 101 - 1)
        with pytest.raises(ValueError, match=r"1.0e\+04 evaluations"):
            difference_sums(p, f)
        monkeypatch.setattr(expsum, "_DIFFERENCE_EVALUATIONS", 99 * 101)
        assert len(difference_sums(p, f)) == 99


class TestWeightedCharSum:
    def test_gauss_sum_modulus(self):
        t = get_table(5)
        f = Polynomial((0, 1))
        sums = weighted_char_sum_all(t, f)
        for j in range(t.phi):
            if j == t.principal_index:
                continue
            assert abs(abs(sums[j]) - math.sqrt(5)) < 1e-9

    def test_principal_zero_polynomial(self):
        t = get_table(7)
        assert abs(weighted_char_sum_all(t, Polynomial((0, 0)))[t.principal_index] - 6) < 1e-12

    def test_cubic_weil_bound(self):
        t = get_table(7)
        f = Polynomial((0, 1, 0, 1))  # x^3 + x
        assert np.abs(weighted_char_sum_all(t, f)).max() <= 3 * math.sqrt(7) + 1

    def test_vector_matches_the_definition_sums(self):
        t = get_table(11)
        f = Polynomial((3, 1, 4, 1, 5))
        sums = weighted_char_sum_all(t, f)
        for j in range(t.phi):
            assert abs(sums[j] - brute_weighted_sum(t, j, f)) < 1e-10

    def test_rejects_composite_modulus_table(self):
        t = get_table(12)
        with pytest.raises(ValueError):
            weighted_char_sum_all(t, Polynomial((0, 1)))


class TestLemma2Defect:
    def test_linear(self):
        assert lemma2_defect(get_table(5), Polynomial((0, 1))) < 1e-8

    def test_cubic_example(self):
        assert lemma2_defect(get_table(13), Polynomial((1, 1, 0, 2))) < 1e-7

    def test_constant_polynomial_both_sides_square(self):
        t = get_table(7)
        f = Polynomial((3, 0))
        assert lemma2_defect(t, f) < 1e-8
        s0 = weighted_char_sum_all(t, f)[t.principal_index]
        assert abs(abs(s0) ** 2 - 36) < 1e-10

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_random_polynomials(self, p):
        rng = random.Random(1000 + p)
        t = get_table(p)
        for _ in range(20):
            f = sample_polynomial(rng, rng.randint(1, 4), p)
            assert lemma2_defect(t, f) < 1e-7 * p


    @pytest.mark.parametrize("p", [5, 101, 1009, 2003])
    def test_one_transform_with_the_bits_of_two(self, p, monkeypatch):
        # Both sides in one batch of two rows, each row bit-identical to a
        # transform of its own: the defect of a call per side, bit for bit.
        t = build_character_table(p)
        f = sample_polynomial(random.Random(p), 3, p)
        g = np.zeros(p, dtype=np.complex128)
        g[2:] = difference_sums(p, f)
        rhs = (p - 1) + t.sums_over_residues(g)
        separate = float(np.abs(np.abs(weighted_char_sum_all(t, f)) ** 2 - rhs).max())
        rows = []
        transform = CharacterTable._transform
        monkeypatch.setattr(CharacterTable, "_transform", lambda t, grid: rows.append(len(grid)) or transform(t, grid))
        assert lemma2_defect(t, f) == separate
        assert rows == [2]

class TestLemma3Report:
    def test_linear_no_degenerate(self):
        audit = lemma3_report(11, Polynomial((0, 1)))
        assert audit.degenerate_x == ()
        assert audit.all_ok
        for entry in audit.entries:
            assert abs(entry.abs_sum - 1.0) < 1e-12  # every completed sum is -1

    def test_square_mod7(self):
        audit = lemma3_report(7, Polynomial((0, 0, 1)))
        assert audit.degenerate_x == (6,)
        assert audit.degenerate_values_ok
        assert audit.degenerate_count_ok  # 1 <= k-1 = 1
        assert audit.degenerate_x_bound_ok  # 6 >= sqrt(7)
        assert audit.all_ok

    def test_cube_mod11_no_roots(self):
        audit = lemma3_report(11, Polynomial((0, 0, 0, 1)))
        assert audit.degenerate_x == ()
        assert audit.all_ok

    def test_cube_mod13_two_roots(self):
        audit = lemma3_report(13, Polynomial((0, 0, 0, 1)))
        assert audit.degenerate_x == (3, 9)
        assert audit.degenerate_count_ok  # 2 <= k-1 = 2
        assert audit.all_ok

    def test_degree_drop_uses_effective_degree(self):
        # b4 = x^4 - 1 = 0 for every unit mod 5, so each difference poly
        # collapses to degree 1
        audit = lemma3_report(5, Polynomial((0, 1, 0, 0, 1)))
        assert audit.all_ok
        for entry in audit.entries:
            assert entry.effective_degree == 1
            assert abs(entry.abs_sum - 1.0) < 1e-12

    def test_weil_bound_sweep(self):
        rng = random.Random(97)
        primes = [p for p in range(11, 98) if all(p % d for d in range(2, p))]
        for p in primes:
            for _ in range(3):
                f = sample_polynomial(rng, rng.randint(2, 4), p)
                audit = lemma3_report(p, f)
                assert audit.bounds_ok, (p, f)
                assert audit.degenerate_values_ok and audit.degenerate_count_ok

    @pytest.mark.parametrize("p", [7, 13, 31, 97, 211])
    def test_inverse_pairs_share_their_audit(self, p):
        rng = random.Random(3 * p)
        for f in (Polynomial((0, 0, 0, 1)), Polynomial((2, 0, 0, 0, 0, 0, 1)),
                  Polynomial((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, p - 1)),
                  sample_polynomial(rng, 4, p)):
            audit = lemma3_report(p, f)
            for entry in audit.entries:
                partner = audit.entries[pow(entry.x, -1, p) - 2]
                assert (partner.abs_sum, partner.effective_degree, partner.bound_ok, partner.degenerate) == (
                    entry.abs_sum, entry.effective_degree, entry.bound_ok, entry.degenerate)
            # The same classification from the full, unpaired table.
            coeffs, full = full_difference_table(p, f)
            degenerate = ~coeffs.any(axis=1)
            eff_deg = [max((i for i, b in enumerate(row) if b), default=0) for row in coeffs.tolist()]
            within = [d or abs(t) <= e * math.sqrt(p) + 1.0 for d, t, e in zip(degenerate, full, eff_deg)]
            degenerate_x = tuple(int(x) for x in np.flatnonzero(degenerate) + 2)
            assert audit.degenerate_x == degenerate_x
            assert [e.bound_ok for e in audit.entries] == within
            assert [e.effective_degree for e in audit.entries] == [
                None if d else e for d, e in zip(degenerate, eff_deg)]
            assert audit.bounds_ok == all(within)
            assert audit.degenerate_values_ok == bool((full[degenerate] == p - 1).all())
            assert audit.degenerate_count_ok == (len(degenerate_x) <= f.degree - 1)
            assert audit.degenerate_x_bound_ok == all(x >= p ** (1 / f.degree) for x in degenerate_x)

    @pytest.mark.parametrize("coefficients", [(5, 0, 3, 1), (5, 0, 0, 1)])  # x^3 = 1 has 3 roots mod 1993
    def test_entries_match_a_per_x_rebuild(self, coefficients):
        # Each entry is the tuple of fields rebuilt for its x alone, from the
        # exact coefficients of g_x and the shared |T(g_x)|.
        p, f = 1993, Polynomial(coefficients)
        abs_sums = np.abs(difference_sums(p, f))
        rebuilt = []
        for x in range(2, p):
            g = difference_poly(f, x, p)
            abs_sum = float(abs_sums[x - 2])
            eff = None if g.degenerate else max(i for i, b in enumerate(g.coefficients) if b)
            bound = None if g.degenerate else eff * math.sqrt(p) + 1.0
            rebuilt.append(CompletedSumAudit(
                x=x, degenerate=g.degenerate, effective_degree=eff, abs_sum=abs_sum, bound=bound,
                bound_ok=g.degenerate or abs_sum <= bound, scaled=abs_sum / p ** (1.0 - 1.0 / f.degree)))
        audit = lemma3_report(p, f)
        assert list(audit.entries) == rebuilt
        assert len(audit.degenerate_x) == (2 if coefficients == (5, 0, 0, 1) else 0)

    def test_entries_are_built_from_the_columns_once(self):
        audit = lemma3_report(13, Polynomial((0, 0, 0, 1)))
        assert "entries" not in vars(audit)
        entries = audit.entries
        assert audit.entries is entries and len(entries) == 13 - 2
        assert [e.x for e in entries] == list(range(2, 13))
        assert [e.degenerate for e in entries] == audit.degenerate.tolist()
        assert [e.abs_sum for e in entries] == audit.abs_sums.tolist()
        assert [e.bound_ok for e in entries] == audit.within.tolist()

    def test_rejects_zero_mod_p(self):
        with pytest.raises(ValueError):
            lemma3_report(7, Polynomial((7, 14, 21)))

    def test_rejects_constant_mod_p(self):
        # 1 + 7x reduces to a nonzero constant, so the degenerate-count
        # bound has no content
        with pytest.raises(ValueError):
            lemma3_report(7, Polynomial((1, 7)))


class TestSamplePolynomial:
    def test_shape_and_range(self):
        rng = random.Random(0)
        for _ in range(50):
            f = sample_polynomial(rng, 4, 13)
            assert f.degree == 4
            assert all(0 <= c < 13 for c in f.coefficients)
            assert any(c % 13 for c in f.coefficients[1:])

    def test_deterministic_for_seed(self):
        a = sample_polynomial(random.Random(42), 3, 11)
        b = sample_polynomial(random.Random(42), 3, 11)
        assert a == b
