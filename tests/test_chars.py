"""Character tables: exact exponent arithmetic, orthogonality, conjugation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lfunlab import chars
from lfunlab.arith import discrete_log_array, euler_phi, factorize, is_prime, primitive_root
from lfunlab.chars import (
    GroupComponent,
    build_character_table,
    char_value,
    get_table,
    nonprincipal_period_sum_defect,
    orthogonality_defect,
)

MODULI = [3, 4, 5, 7, 8, 9, 12, 16, 24, 35, 36, 49, 72, 100]


def dense_exponents(t):
    """Dense oracle: int64 phi(q) x q matrix E with chi_j(n) = exp(2 pi i E[j, n] / L),
    and -1 where gcd(n, q) > 1, from the pairing sum_i e_i t_i(n) L / s_i of the
    exponent tuple e of chi_j with the log tuple t(n)."""
    shape = t.grid_shape
    units = t.unit_residues()
    tuples = np.stack(np.unravel_index(np.arange(t.phi), shape), axis=1)
    logs = np.stack(np.unravel_index(t.residue_index[units], shape), axis=1)
    weights = np.array([t.exponent // s for s in shape], dtype=np.int64)
    exps = np.full((t.phi, t.q), -1, dtype=np.int64)
    exps[:, units] = (tuples * weights) @ logs.T % t.exponent
    return exps


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
        E = dense_exponents(t)
        assert E.shape == (t.phi, q)
        rows = {tuple(row) for row in E.tolist()}
        assert len(rows) == t.phi
        V = t.values_matrix()  # the public oracle reads the same exponents
        assert np.array_equal(V[E >= 0], t.roots_at(np.arange(t.exponent))[E[E >= 0]])
        assert not V[E < 0].any()

    def test_principal_row(self, q):
        t = get_table(q)
        assert t.principal_index == 0
        E = dense_exponents(t)
        for n in range(q):
            e = E[t.principal_index, n]
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
        E, L = dense_exponents(t), t.exponent
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for n in units:
            for m in units:
                lhs = E[:, (n * m) % q]
                assert np.all((lhs - E[:, n] - E[:, m]) % L == 0)

    def test_conjugation_involution_and_negation(self, q):
        t = get_table(q)
        E, L = dense_exponents(t), t.exponent
        for j in range(t.phi):
            jc = t.conjugate_map[j]
            assert t.conjugate_map[jc] == j
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
        gap = char_value(t, int(t.conjugate_map[j]), n) - char_value(t, j, n).conjugate()
        assert abs(gap) < 1e-12


def test_deterministic_construction():
    a = build_character_table(36)
    b = build_character_table(36)
    assert np.array_equal(a.residue_index, b.residue_index)
    assert np.array_equal(dense_exponents(a), dense_exponents(b))
    assert np.array_equal(a.conjugate_map, b.conjugate_map)
    assert a.components == b.components


def test_table_stores_only_its_logs():
    # phi, the exponent and the conjugation map are derived from the orders.
    assert [f.name for f in dataclasses.fields(chars.CharacterTable)] == ["q", "components", "orders",
                                                                         "residue_index"]
    assert all(f.init for f in dataclasses.fields(chars.CharacterTable))
    t = build_character_table(720)  # 16 * 9 * 5: orders (2, 4, 6, 4)
    assert (t.orders, t.phi, t.exponent) == ((2, 4, 6, 4), euler_phi(factorize(720)), 12)


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
    # Real inputs take the packed half-length transform on a cyclic group,
    # complex ones the split into even and odd entries.
    for x, w in ((x, w), (x.real.copy(), w.real.copy())):
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


@pytest.mark.parametrize("q", [4993, 5009, 6983, 7027])
def test_transform_matches_sampled_rows_past_the_dense_budget(q):
    # phi = q - 1 is 2^7 * 3 * 13, 2^4 * 313, 2 * 3491 and 2 * 3 * 1171; the
    # last three have a large prime factor, where pocketfft is slowest.  Row
    # j of a cyclic group is exp(2 pi i j log(n) / phi), log(n) = residue_index[n].
    t = build_character_table(q)
    rng = np.random.default_rng(q)
    units = t.unit_residues()
    logs = t.residue_index[units]
    for x, w in ((rng.standard_normal(q), rng.standard_normal(t.phi)),
                 (_random_complex(rng, q), _random_complex(rng, t.phi))):
        got_residues, got_characters = t.sums_over_residues(x), t.sums_over_characters(w)
        roots = t.roots_at(np.arange(t.exponent))
        for j in (0, 1, 2, t.phi // 2 - 1, t.phi // 2, t.phi // 2 + 1, t.phi - 1, *rng.integers(t.phi, size=9)):
            row = roots[(j * logs) % t.phi]
            assert abs(got_residues[j] - row @ x[units]) <= 1e-12 * t.phi
        for n in (1, 2, q - 1, *rng.choice(units, size=9)):
            column = roots[(np.arange(t.phi) * t.residue_index[n]) % t.phi]
            assert abs(got_characters[n] - column @ w) <= 1e-12 * t.phi


@pytest.mark.parametrize("q", [4, 101, 6983])
def test_transform_keeps_only_the_twiddles_it_reads(q):
    # A cyclic group of even order phi = 2h: the transform computes and keeps
    # the h twiddles, equal bit for bit to the first h roots of unity.
    t = build_character_table(q)
    t.sums_over_residues(np.ones(q))
    kept = {name for name, value in vars(t).items() if isinstance(value, np.ndarray)}
    assert kept == {"residue_index", "_units", "_twiddles"}
    assert np.array_equal(t._twiddles, t.roots_at(np.arange(t.exponent))[: t.phi // 2])


@pytest.mark.parametrize("q", [3, 101, 1033, 24, 2**10, 2310, 4620])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_batched_sums_equal_the_row_by_row_calls(q, kind):
    # q = 3, 101, 1033: cyclic (1033 has phi = 2 * 516); 24 and 2^10: three
    # and two axes; 2310 and 4620: four and five axes.  Each row of a
    # batch equals the call on that row alone, bit for bit.
    t = build_character_table(q)
    rng = np.random.default_rng(q)
    draw = rng.standard_normal if kind == "real" else (lambda shape: _random_complex(rng, shape))
    for m in (1, 2, 3):
        x, w = draw((m, q)), draw((m, t.phi))
        sums, back = t.sums_over_residues(x), t.sums_over_characters(w)
        assert sums.shape == (m, t.phi) and back.shape == (m, q)
        for i in range(m):
            assert np.array_equal(sums[i], t.sums_over_residues(x[i]))
            assert np.array_equal(back[i], t.sums_over_characters(w[i]))


@pytest.mark.parametrize("q", [3, 101, 1033, 24, 2**10, 2310])
def test_unit_order_is_built_once_and_inverts_the_logs(q):
    t = build_character_table(q)
    order = t._units
    assert t._units is order
    assert np.array_equal(t.residue_index[order], np.arange(t.phi))
    if is_prime(q):  # on a cyclic group the unit at log l is g^l
        g = primitive_root(q)
        assert order.tolist() == [pow(g, l, q) for l in range(t.phi)]


def test_one_fft_call_per_batch(monkeypatch):
    calls = []
    for name in ("ifft", "ifftn"):
        def counting(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    for q, name in ((1033, "ifft"), (24, "ifftn")):
        t = build_character_table(q)
        for x in (np.ones((3, q)), np.ones((3, q), dtype=np.complex128)):
            calls.clear()
            t.sums_over_residues(x)
            t.sums_over_characters(x[:, :t.phi])
            assert calls == [name, name]


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


def _with_logs(q, **edits):
    """A fresh table mod q with each named array replaced by edit(t, a copy of it)."""
    t = build_character_table(q)
    return dataclasses.replace(t, **{name: edit(t, np.copy(getattr(t, name))) for name, edit in edits.items()})


def _swap_rows(t, residue_index):
    """The units at grid indices 1 and 2 swap their log tuples."""
    n, m = (int(np.flatnonzero(residue_index == k)[0]) for k in (1, 2))
    residue_index[[n, m]] = residue_index[[m, n]]
    return residue_index


class TestGroupLawCertificate:
    """Broken logs the orthogonality check must reject."""

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
        t = _with_logs(q, residue_index=_swap_rows)
        assert _gram_defect(t) < 1e-9 * t.phi  # the unit-pair Gram is blind to the swap
        assert orthogonality_defect(t) == math.inf
        assert nonprincipal_period_sum_defect(t) == math.inf

    @pytest.mark.parametrize("q", [15, 16])
    def test_rows_relabelled_off_the_group_law_at_the_wrap(self, q):
        # Log tuple (e0, e1) becomes (e0, e0 + e1 mod 4): a bijection of the
        # grid that keeps every step along e1 and the step along e0 from
        # e0 = 0, but twice (1, 0) is not (0, 0).
        def relabel(t, residue_index):
            units = residue_index >= 0
            e0, e1 = np.unravel_index(residue_index[units], (2, 4))
            residue_index[units] = np.ravel_multi_index((e0, (e0 + e1) % 4), (2, 4))
            return residue_index

        t = _with_logs(q, residue_index=relabel)
        assert t.orders == (2, 4)
        assert sorted(t.residue_index[t.unit_residues()].tolist()) == list(range(8))
        assert _gram_defect(t) < 1e-9 * t.phi
        assert orthogonality_defect(t) == math.inf

    @pytest.mark.parametrize("q", [15, 16])
    def test_unit_pairing_weights(self, q):
        # orders (4, 2) read the same logs on the transposed grid: the pairing
        # weights L / s_i become (1, 2) instead of (2, 1).  The components
        # carry those orders and the units the transposed grid puts at its
        # unit vectors as generators, so only the group law can fail.
        t = build_character_table(q)
        assert t.orders == (2, 4)
        components = {15: (GroupComponent(3, (1,), (4,)), GroupComponent(5, (2,), (2,))),
                      16: (GroupComponent(16, (9, 5), (4, 2)),)}[q]
        broken = dataclasses.replace(t, components=components, orders=(4, 2))
        assert orthogonality_defect(broken) == math.inf

    @pytest.mark.parametrize("q, j, n", [(13, 5, 7), (13, 1, 2), (13, 0, 7), (16, 3, 3), (15, 6, 2)])
    def test_one_exponent_off_by_one(self, q, j, n):
        # The log tuple of the unit n, or of the unit at grid index j, one
        # step off along the last axis.
        assert math.gcd(n, q) == 1
        t = build_character_table(q)
        s = t.orders[-1]
        for m in (n, int(t._units[j])):
            residue_index = t.residue_index.copy()
            residue_index[m] += (residue_index[m] + 1) % s - residue_index[m] % s
            assert orthogonality_defect(dataclasses.replace(t, residue_index=residue_index)) == math.inf

    @pytest.mark.parametrize("q, n", [(13, 0), (15, 0), (15, 3), (15, 5), (16, 0), (16, 2)])
    def test_non_unit_marked_as_unit(self, q, n):
        assert math.gcd(n, q) > 1

        def mark(t, residue_index):
            residue_index[n] = 0
            return residue_index

        t = _with_logs(q, residue_index=mark)
        assert orthogonality_defect(t) == math.inf
        assert nonprincipal_period_sum_defect(t) == math.inf


def test_residue_index_marks_units_by_gcd():
    """The walks reach exactly the residues prime to q: the gcd mask."""
    for q in [*range(1, 3001), 99991]:
        t = build_character_table(q)
        units = np.gcd(np.arange(q), q) == 1
        assert np.array_equal(t.residue_index >= 0, units), q
        assert np.array_equal(np.sort(t.residue_index[units]), np.arange(t.phi)), q


class TestDenseOracleBudget:
    def test_oversized_request_raises_before_allocating(self):
        import tracemalloc

        t = get_table(99991)  # the transform table itself is O(q)
        assert t.residue_index.nbytes == 8 * 99991
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                t.values_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_is_a_byte_estimate(self, monkeypatch):
        t = build_character_table(13)  # phi * q = 12 * 13 entries
        need = 48 * 12 * 13  # the estimate in values_matrix's docstring
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
                t.values_matrix()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 48 * t.phi * q


class TestCertificateWithoutDenseMatrix:
    @pytest.fixture(autouse=True)
    def refuse_dense(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"dense character matrix mod {self.q} built")

        monkeypatch.setattr(chars.CharacterTable, "values_matrix", refuse)

    @pytest.mark.parametrize("q", [1, 2, 997, 2310, 2**16, 99990, 99991])
    def test_both_defects_pass(self, q):
        t = build_character_table(q)
        assert orthogonality_defect(t) < 1e-9 * t.phi
        assert nonprincipal_period_sum_defect(t) < 1e-9

    def test_memory_is_linear_in_q(self):
        import tracemalloc

        for q in (997, 2310, 10007, 99991):
            t = build_character_table(q)
            tracemalloc.start()
            try:
                orthogonality_defect(t)
                nonprincipal_period_sum_defect(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 128 * q  # 73-75 B per residue at prime q


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
            logs = np.full(pk, -1, dtype=np.int64)
            x = 1
            for i in range(2 ** (e - 2)):  # u = (-1)^t0 5^t1 at flat index t0 2^(e-2) + t1
                logs[x] = i
                logs[pk - x] = 2 ** (e - 2) + i
                x = x * 5 % pk
            assert np.array_equal(build_character_table(pk).residue_index, logs), e

    def test_walk_built_tables_match_log_oracle(self):
        # The oracle: per prime power pk > 2 of q, the flat log of each
        # residue mod pk by pow loops (-1 off the units), read at n mod pk
        # and combined in C order, then -1 at every n sharing a factor with q.
        component_logs = {}

        def logs_mod(pk):
            if pk not in component_logs:
                if pk % 2:
                    logs = _pow_loop_logs(pk, primitive_root(pk), euler_phi(factorize(pk)))
                elif pk == 4:
                    logs = _pow_loop_logs(4, 3, 2)
                else:  # u = (-1)^t0 5^t1 at flat index t0 pk/4 + t1
                    fives = _pow_loop_logs(pk, 5, pk // 4)
                    negated = fives[-np.arange(pk) % pk]
                    logs = np.where(fives >= 0, fives, np.where(negated >= 0, pk // 4 + negated, -1))
                component_logs[pk] = logs
            return component_logs[pk]

        for q in [*range(1, 3001), 2**16, 30030, 96983, 99990, 99991]:
            t = build_character_table(q)
            n = np.arange(q)
            oracle = np.zeros(q, dtype=np.int64)
            units = np.ones(q, dtype=bool)
            for p, e in factorize(q).factors:
                units &= n % p != 0
                if p**e > 2:
                    oracle = oracle * euler_phi(factorize(p**e)) + logs_mod(p**e)[n % p**e]
            oracle[~units] = -1
            assert np.array_equal(t.residue_index, oracle), q
            assert np.array_equal(t.residue_index[t._units], np.arange(t.phi)), q
            assert chars._certifies_logs(t), q

    def test_walk_through_a_non_generator_raises(self, monkeypatch):
        monkeypatch.setattr(chars, "primitive_root", lambda pk, fac=None: 4)  # a square: order (p-1)/2 at most
        for q in (7, 2 * 49, 8 * 9):
            with pytest.raises(ValueError, match="do not reach"):
                build_character_table(q)

    def test_trivial_groups_keep_their_tables(self):
        for q, residue_index in ((1, [0]), (2, [-1, 0])):
            t = build_character_table(q)
            assert t.components == () and t.orders == () and t.phi == 1
            assert t.residue_index.tolist() == residue_index and t._units.tolist() == [q - 1]

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
