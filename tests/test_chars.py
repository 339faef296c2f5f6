"""Character tables: exact exponent arithmetic, orthogonality, conjugation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lfunlab import chars
from lfunlab.arith import discrete_log_array, euler_phi, factorize, is_prime, primitive_root
from lfunlab.chars import (
    build_character_table,
    char_value,
    conjugate_index,
    get_table,
    is_principal,
    nonprincipal_period_sum_defect,
    orthogonality_defect,
)

MODULI = [3, 4, 5, 7, 8, 9, 12, 16, 24, 35, 36, 49, 72, 100]


def test_q4_unique_nonprincipal():
    t = build_character_table(4)
    assert t.phi == 2
    assert char_value(t, 1, 3) == pytest.approx(-1)
    assert char_value(t, 1, 1) == pytest.approx(1)


def test_q5_generator_powers():
    t = build_character_table(5)
    assert t.phi == 4
    for j in range(4):
        expected = complex(math.cos(math.pi * j / 2), math.sin(math.pi * j / 2))
        assert char_value(t, j, 2) == pytest.approx(expected, abs=1e-15)
    # 3 = 2^3 mod 5, so the character with chi(2)=i has chi(3)=i^3
    assert char_value(t, 1, 3) == pytest.approx(-1j, abs=1e-15)
    assert char_value(t, 1, 10) == 0


def test_q1_degenerate_group():
    t = build_character_table(1)
    assert t.phi == 1
    assert char_value(t, 0, 7) == pytest.approx(1)
    assert orthogonality_defect(t) == 0.0


def test_q2_group_of_order_one():
    t = build_character_table(2)
    assert t.phi == 1
    assert char_value(t, 0, 3) == pytest.approx(1)
    assert char_value(t, 0, 4) == 0


@pytest.mark.parametrize("q", MODULI)
class TestTableInvariants:
    def test_row_count_and_distinct(self, q):
        t = get_table(q)
        assert t.value_exponents.shape == (t.phi, q)
        rows = {tuple(row) for row in t.value_exponents.tolist()}
        assert len(rows) == t.phi

    def test_principal_row(self, q):
        t = get_table(q)
        assert is_principal(t, t.principal_index)
        for n in range(q):
            e = t.value_exponents[t.principal_index, n]
            if math.gcd(n, q) == 1:
                assert e == 0
            else:
                assert e == -1

    def test_zero_exactly_off_units(self, q):
        t = get_table(q)
        V = t.values_matrix()
        for n in range(q):
            if math.gcd(n, q) == 1:
                assert np.all(np.abs(np.abs(V[:, n]) - 1) < 1e-15)
            else:
                assert np.all(V[:, n] == 0)

    def test_exponent_multiplicativity_exact(self, q):
        t = get_table(q)
        E, L = t.value_exponents, t.exponent
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for n in units:
            for m in units:
                lhs = E[:, (n * m) % q]
                assert np.all((lhs - E[:, n] - E[:, m]) % L == 0)

    def test_conjugation_involution_and_negation(self, q):
        t = get_table(q)
        E, L = t.value_exponents, t.exponent
        for j in range(t.phi):
            jc = conjugate_index(t, j)
            assert conjugate_index(t, jc) == j
            for n in range(q):
                if E[j, n] == -1:
                    assert E[jc, n] == -1
                else:
                    assert (E[jc, n] + E[j, n]) % L == 0

    def test_orthogonality(self, q):
        t = get_table(q)
        assert orthogonality_defect(t) < 1e-9 * t.phi

    def test_period_sums_vanish(self, q):
        t = get_table(q)
        assert nonprincipal_period_sum_defect(t) < 1e-9


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_value_multiplicativity_floating(q, n, m):
    t = get_table(q)
    j = (n + m) % t.phi
    lhs = char_value(t, j, n * m)
    rhs = char_value(t, j, n) * char_value(t, j, m)
    assert abs(lhs - rhs) < 1e-12


@given(st.integers(min_value=3, max_value=200), st.integers(min_value=0, max_value=10**4))
def test_conjugate_values(q, n):
    t = get_table(q)
    for j in range(t.phi):
        gap = char_value(t, conjugate_index(t, j), n) - char_value(t, j, n).conjugate()
        assert abs(gap) < 1e-12


def test_deterministic_construction():
    a = build_character_table(36)
    b = build_character_table(36)
    assert np.array_equal(a.value_exponents, b.value_exponents)
    assert np.array_equal(a.conjugate_map, b.conjugate_map)
    assert a.components == b.components


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_character_table(0)
    with pytest.raises(ValueError):
        build_character_table(10**5 + 1)


def test_two_power_structure():
    t = get_table(16)
    (comp,) = t.components
    assert comp.prime_power == 16
    assert comp.orders == (2, 4)  # <-1> x <5>
    assert t.phi == 8


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _assert_transform_matches_oracle(q, seed):
    t = build_character_table(q)
    V = t.values_matrix()
    rng = np.random.default_rng(seed)
    x, w = _random_complex(rng, q), _random_complex(rng, t.phi)
    assert np.abs(t.sums_over_residues(x) - V @ x).max() <= 1e-12 * t.phi
    assert np.abs(t.sums_over_characters(w) - V.T @ w).max() <= 1e-12 * t.phi


def test_transform_matches_dense_oracle_q_1_to_200():
    # q = 1 and 2 (trivial group), 2^e with e >= 3 (two factors for 2^e) and
    # q = 2m (no factor for the 2) are all in range.
    for q in range(1, 201):
        _assert_transform_matches_oracle(q, q)


@given(
    st.integers(min_value=3, max_value=7),
    st.sampled_from([1, 3, 5, 7, 9, 15, 21, 25, 27, 35, 45]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transform_matches_oracle_with_two_power_factor(e, m, seed):
    _assert_transform_matches_oracle(2**e * m, seed)


def _gram_defect(t):
    """Oracle: max over unit pairs (n, l) of |sum_chi chi(n) conj(chi(l)) - phi [n == l]|,
    by the O(phi^3) Gram product of the dense unit block."""
    v = t.values_matrix()[:, t.unit_residues()]
    gram = v.conj().T @ v
    gram[np.diag_indices_from(gram)] -= t.phi
    return float(np.abs(gram).max())


def _assert_defect_matches_gram_oracle(q):
    t = build_character_table(q)
    assert orthogonality_defect(t) < 1e-9 * t.phi
    assert _gram_defect(t) < 1e-9 * t.phi


def test_defect_matches_gram_oracle_q_1_to_200():
    for q in range(1, 201):
        _assert_defect_matches_gram_oracle(q)
    for q in (1, 2):
        assert orthogonality_defect(build_character_table(q)) == 0.0


@given(
    st.integers(min_value=3, max_value=7),
    st.sampled_from([1, 3, 5, 7, 9, 15, 21, 25, 27, 35, 45]),
)
def test_defect_matches_gram_oracle_with_two_power_factor(e, m):
    _assert_defect_matches_gram_oracle(2**e * m)


def _with_exponents(q, edit):
    """A fresh table mod q whose dense exponent oracle is edit(t, correct exponents)."""
    t = build_character_table(q)
    t.value_exponents = edit(t, t.value_exponents.copy())  # values_matrix() is not built yet
    return t


def _swap_rows(t, exps):
    exps[[1, 2]] = exps[[2, 1]]
    return exps


class TestGroupLawCertificate:
    """Broken tables the orthogonality check must reject."""

    @pytest.mark.parametrize("q", [13, 15, 16, 35])
    def test_two_residues_sharing_a_slot(self, q):
        t = build_character_table(q)
        n, m = t.unit_residues()[1:3]
        residue_index = t.residue_index.copy()
        residue_index[m] = residue_index[n]
        broken = dataclasses.replace(t, residue_index=residue_index)
        assert orthogonality_defect(broken) > 1e-9 * t.phi

    @pytest.mark.parametrize("q", [13, 15, 16])
    def test_swapped_rows(self, q):
        t = _with_exponents(q, _swap_rows)
        assert _gram_defect(t) < 1e-9 * t.phi  # the unit-pair Gram is blind to row order
        assert orthogonality_defect(t) == math.inf

    @pytest.mark.parametrize("q", [15, 16])
    def test_rows_relabelled_off_the_group_law_at_the_wrap(self, q):
        # Row (e0, e1) holds character (e0, e0 + e1 mod 4): a bijection of the
        # grid, additive inside it, but twice row (1, 0) is not row (0, 0).
        def relabel(t, exps):
            e0, e1 = np.unravel_index(np.arange(8), (2, 4))
            return exps[np.ravel_multi_index((e0, (e0 + e1) % 4), (2, 4))]

        t = _with_exponents(q, relabel)
        assert _gram_defect(t) < 1e-9 * t.phi
        assert nonprincipal_period_sum_defect(t) < 1e-9
        assert orthogonality_defect(t) == math.inf

    @pytest.mark.parametrize("q", [15, 16])
    def test_unit_pairing_weights(self, q):
        def weights_one(t, exps):
            units, shape = t.unit_residues(), t.grid_shape
            tuples = np.stack(np.unravel_index(np.arange(t.phi), shape), axis=1)
            logs = np.stack(np.unravel_index(t.residue_index[units], shape), axis=1)
            exps[:, units] = tuples @ logs.T % t.exponent
            return exps

        t = _with_exponents(q, weights_one)
        assert t.orders == (2, 4)  # weights L / s_i = (2, 1)
        assert orthogonality_defect(t) > 1e-9 * t.phi

    @pytest.mark.parametrize("q, j, n", [(13, 5, 7), (13, 1, 2), (13, 0, 7), (16, 3, 3), (15, 6, 2)])
    def test_one_exponent_off_by_one(self, q, j, n):
        assert math.gcd(n, q) == 1

        def bump(t, exps):
            exps[j, n] = (exps[j, n] + 1) % t.exponent
            return exps

        assert orthogonality_defect(_with_exponents(q, bump)) == math.inf


def test_residue_index_marks_units_by_gcd():
    for q in (1, 2, 6, 10, 18, 40, 98):
        t = build_character_table(q)
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        assert t.unit_residues().tolist() == units
        assert sorted(t.residue_index[units].tolist()) == list(range(t.phi))


class TestDenseOracleBudget:
    def test_oversized_request_raises_before_allocating(self):
        import tracemalloc

        t = get_table(99991)  # the transform table itself is O(q)
        assert t.residue_index.nbytes == 8 * 99991
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                t.values_matrix()
            with pytest.raises(ValueError, match="budget"):
                t.value_exponents
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_is_a_byte_estimate(self, monkeypatch):
        t = build_character_table(13)  # phi * q = 12 * 13 entries
        need = chars._DENSE_BYTES_PER_ENTRY * 12 * 13
        monkeypatch.setattr(chars, "_DENSE_ORACLE_BYTES", need - 1)
        with pytest.raises(ValueError):
            t.values_matrix()
        monkeypatch.setattr(chars, "_DENSE_ORACLE_BYTES", need)
        assert t.values_matrix().shape == (12, 13)

    def test_estimate_covers_the_oracle_peak(self):
        import tracemalloc

        for q in (211, 997, 2310):
            t = build_character_table(q)
            tracemalloc.start()
            try:
                t.value_exponents
                t.values_matrix()
                orthogonality_defect(t)
                nonprincipal_period_sum_defect(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= chars._DENSE_BYTES_PER_ENTRY * t.phi * q


def _pow_loop_logs(pk, g, count):
    """Exponent t of each g^t mod pk, t < count, by a plain multiplication loop."""
    logs = np.full(pk, -1, dtype=np.int64)
    x = 1 % pk
    for t in range(count):
        logs[x] = t
        x = x * g % pk
    return logs


class TestDiscreteLogsByDoubling:
    def test_prime_power_logs_match_pow_loop(self):
        prime_powers = [p**e for p in range(2, 2001) if is_prime(p)
                        for e in range(1, 12) if p**e <= 2000 and (p > 2 or e <= 2)]
        for pk in prime_powers:
            g = primitive_root(pk)
            phi = euler_phi(factorize(pk))
            assert np.array_equal(discrete_log_array(pk, g), _pow_loop_logs(pk, g, phi)), pk

    def test_two_power_logs_match_pow_loop(self):
        for e in range(3, 17):
            pk = 2**e
            t0 = np.full(pk, -1, dtype=np.int64)
            t1 = np.full(pk, -1, dtype=np.int64)
            x = 1
            for i in range(2 ** (e - 2)):  # u = (-1)^t0 5^t1
                t0[x], t1[x] = 0, i
                t0[pk - x], t1[pk - x] = 1, i
                x = x * 5 % pk
            got = chars._two_power_logs(e)
            assert np.array_equal(got[0], t0) and np.array_equal(got[1], t1), e

    def test_every_non_generator_rejected(self):
        for pk in (7, 9, 25, 27, 49, 121, 169, 2 * 49):
            phi = euler_phi(factorize(pk))
            for g in range(2, pk):
                if math.gcd(g, pk) != 1:
                    continue
                order = next(s for s in range(1, phi + 1) if pow(g, s, pk) == 1)
                if order == phi:
                    assert discrete_log_array(pk, g)[g] == 1
                else:
                    with pytest.raises(ValueError, match="does not generate"):
                        discrete_log_array(pk, g)
