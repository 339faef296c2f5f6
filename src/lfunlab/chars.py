"""Dirichlet characters mod q as discrete logs over the cyclic factors of the unit group.

The unit group (Z/qZ)^* is a product of cyclic factors: one generator per odd
prime power, and <-1> x <5> for 2^e with e >= 3.  A character is an exponent
tuple e over those factors.  Characters are numbered by their tuples in
lexicographic order, last factor fastest, which is numpy C order on the grid
of shape `orders`; character 0 (the all-zero tuple) is principal.  Each unit
residue n is stored by its tuple of discrete logs t(n), flattened into the
same grid, and

    chi_e(n) = exp(2 pi i sum_i e_i t_i(n) / s_i),   s_i = orders[i].

A table is built from generator walks: each cyclic factor walks its units
in grid order (the powers of its generator), the walks are lifted to q by
their CRT idempotents and combined by one outer sum mod q, which gives the
unit residue at every flat grid index, and residue_index is its inverse.
Every character sum over all characters at once is then one inverse FFT
over the grid (Rader 1968; Platt 2016), O(q log q) time and O(q) memory:

    sums_over_units:      sum_i chi_j(u_i) v_i   for every character j
    sums_over_residues:   sum_n chi_j(n) x_n     for every character j
    sums_over_characters: sum_j chi_j(n) w_j     for every residue n

with u_i the unit at grid index i.  A grid evaluated only at the units, in
grid order, goes straight to the transform; sums_over_residues is that call
on the gather of a length-q grid at the units.  All three take a leading
batch axis, (m, phi) or (m, q) grids to (m, phi) sums and back, and send the
whole batch through one FFT call; a single grid is a batch of one.
Character values at one residue x, chi_j(x) for every j, are values_at(x),
from the exact exponents in O(phi); char_value(t, j, n) is one entry of it.
The unit order and the transform's twiddles are kept with the table, so a
call is one FFT call and the twiddle combine.  Reusing one FFT set-up
across many transforms (Frigo and Johnson, Proc. IEEE 93(2), 2005) is what
makes the batch cheaper than a call per grid.

The table stores only q, its components, the cyclic orders and the logs
residue_index, O(q) exact integers, so cached tables are bit-reproducible;
phi, the exponent L = lcm(orders) and the conjugation map e -> -e are
derived from the orders on first use.  The orthogonality and period-sum
checks, and every table read from the cache, certify the stored fields in
exact integers in O(q): residue_index must be an isomorphism of the unit
group onto the grid group and each generator the unit it puts at a unit
vector, which makes both orthogonality relations exact (Apostol,
Introduction to Analytic Number Theory, ch. 6).  The certificate reads no
character value and stays independent of the transform.  The dense
phi(q) x q matrix (values_matrix()) is a small-q oracle for tests and API
users, refused beyond a fixed byte budget; nothing in the package calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import Factorization, factorize, powers_mod, primitive_root

# Measured on a 2-core x86-64 host: at q = 99991 a table builds with its unit
# order in 2.7-3.2 ms (best of 30; 0.3-0.5 ms at q = 99990, whose walks are
# short) and holds 3.2 MB with the unit order, twiddles and conjugation map
# it keeps, and `lfunlab sweep --target thm1` runs in 0.25 s with a 54 MB
# peak RSS.  Larger moduli are untested.
_MAX_MODULUS = 10**5

_DENSE_ORACLE_BYTES = 2**30


@dataclass(frozen=True)
class GroupComponent:
    """One cyclic factor of the unit group mod q."""

    prime_power: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]


@dataclass(eq=False)
class CharacterTable:
    """All phi(q) Dirichlet characters mod q, stored as discrete logs.

    orders are the cyclic factor orders s_i (the components' orders in
    sequence); residue_index[n] is the C-order flat index of the log tuple
    t(n) in the grid of shape orders, or -1 when gcd(n, q) > 1.  Everything
    else is derived from these on first use and kept with the table: phi,
    the exponent L = lcm(orders), and conjugate_map[j], the index of
    conj(chi_j).
    """

    q: int
    components: tuple[GroupComponent, ...]
    orders: tuple[int, ...]
    residue_index: np.ndarray
    principal_index = 0  # the all-zero exponent tuple

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """orders, or (1,) for the trivial group mod 1 and 2."""
        return self.orders or (1,)

    @functools.cached_property
    def phi(self) -> int:
        return math.prod(self.orders)

    @functools.cached_property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    @functools.cached_property
    def conjugate_map(self) -> np.ndarray:
        return _negation(self.grid_shape)

    @functools.cached_property
    def _units(self) -> np.ndarray:
        """The unit residue at each flat grid index (on a cyclic group, the
        powers of g): set by the build, derived here for a table read from a
        record."""
        units = self.unit_residues()
        order = np.empty(self.phi, dtype=np.int64)
        order[self.residue_index[units]] = units  # units fill the grid exactly once
        return order

    @functools.cached_property
    def _period_sum_defects(self) -> tuple[float, float]:
        """orthogonality_defect and nonprincipal_period_sum_defect, from one
        certificate and one transform of the unit indicator (the period sums
        sum_{n=1..q} chi_j(n)); (inf, inf) when _certifies_logs fails."""
        if not _certifies_logs(self):
            return math.inf, math.inf
        sums = self.sums_over_units(np.ones(self.phi))
        principal = abs(sums[self.principal_index] - self.phi)
        sums[self.principal_index] = 0.0
        nonprincipal = float(np.abs(sums).max())
        return float(max(principal, nonprincipal)), nonprincipal

    @functools.cached_property
    def _twiddles(self) -> np.ndarray:
        return self.roots_at(np.arange(self.phi // 2))

    def _transform(self, grid: np.ndarray) -> np.ndarray:
        """phi * ifftn over the cyclic factors of each row of an (m, phi)
        batch, flattened back to C order: one FFT call for the whole batch.

        Over a cyclic group of even order phi = 2h the transform is split
        into the sums E over the even and O over the odd entries, two
        unnormalized inverse FFTs of length h, and is E + v^k O at k and
        E - v^k O at k + h, v = exp(2 pi i/phi); the h twiddles v^k are
        computed on first use and kept with the table.  A real grid needs a
        single FFT of length h: with z = (even entries) + i (odd entries),
        Z = h * ifft(z) and R[k] = conj(Z[-k]), E = (Z + R)/2 and
        O = (Z - R)/2i.  Halving the length matters most where phi has a
        large prime factor and pocketfft must use Bluestein's algorithm: on
        a 2-core x86-64 host a real transform at q = 6983 (phi = 2 * 3491)
        takes about 0.54 ms this way and 0.94 ms by the ifft of length phi.
        pocketfft sets up once per call and transforms the rows of a batch
        side by side, each row bit-identical to a call of its own: on the
        same host a batch of three rows of length h = 998 (q = 1997) takes
        about 80 us per row against 140 us per single call, and at h = 516
        about 18 against 30 us.
        """
        m = len(grid)
        if len(self.grid_shape) > 1 or self.phi % 2 or grid.dtype not in (np.float64, np.complex128):
            axes = tuple(range(1, len(self.grid_shape) + 1))
            return self.phi * np.fft.ifftn(grid.reshape((m,) + self.grid_shape), axes=axes).reshape(m, -1)
        h = self.phi // 2
        grid = np.ascontiguousarray(grid)
        if grid.dtype == np.float64:
            z = np.fft.ifft(grid.view(np.complex128), norm="forward")
            r = np.empty_like(z)  # conj(Z[-k]): Z[0], then Z[h-1] .. Z[1]
            r[:, 0], r[:, 1:] = z[:, 0], z[:, :0:-1]
            np.conj(r, out=r)
            even, odd = (z + r) / 2, (z - r) * -0.5j
        else:
            even, odd = np.fft.ifft(grid.reshape(m, h, 2).transpose(2, 0, 1), norm="forward")
        odd *= self._twiddles
        out = np.empty((m, self.phi), dtype=np.complex128)
        np.add(even, odd, out=out[:, :h])
        np.subtract(even, odd, out=out[:, h:])
        return out

    def sums_over_units(self, v: np.ndarray) -> np.ndarray:
        """sum_i chi_j(_units[i]) v[..., i] for every character j, v given at
        the units in grid order: a grid of length phi gives phi sums, an
        (m, phi) batch gives (m, phi), from one batched transform."""
        v = np.asarray(v)
        return self._transform(v.reshape(-1, self.phi)).reshape(v.shape)

    def sums_over_residues(self, x: np.ndarray) -> np.ndarray:
        """sum_{n=0}^{q-1} chi_j(n) x[..., n] for every character j: a grid of
        length q gives phi sums, an (m, q) batch gives (m, phi); sums_over_units
        of the gather of x at the units."""
        return self.sums_over_units(np.asarray(x)[..., self._units])

    def sums_over_characters(self, w: np.ndarray) -> np.ndarray:
        """sum_j chi_j(n) w[..., j] for every residue n = 0..q-1 (0 off the
        units): length phi gives q sums, an (m, phi) batch gives (m, q)."""
        w = np.asarray(w)
        flat = self._transform(w.reshape(-1, self.phi))
        out = np.zeros((len(flat), self.q), dtype=flat.dtype)
        out[:, self._units] = flat
        return out.reshape(w.shape[:-1] + (self.q,))

    def roots_at(self, v: np.ndarray) -> np.ndarray:
        """exp(2 pi i v / L) for an integer array v, by the one expression
        every root table of t uses, so equal v give bit-identical roots."""
        return np.exp(1j * (2.0 * np.pi * v / self.exponent))

    def values_at(self, x: int) -> np.ndarray:
        """chi_j(x) for every character j (0 at a non-unit x), x read mod q,
        from the exact logs t_i(x): the exponent sum_i e_i t_i(x) L/s_i mod L
        over the grid of tuples e, in O(phi) integers, then one root per
        character."""
        f = int(self.residue_index[x % self.q])
        if f < 0:
            return np.zeros(self.phi, dtype=np.complex128)
        exps = np.zeros(1, dtype=np.int64)
        for s, ti in zip(self.grid_shape, np.unravel_index(f, self.grid_shape)):
            exps = (exps[:, None] + np.arange(s) * int(ti) % s * (self.exponent // s)).ravel()
        return self.roots_at(exps % self.exponent)

    def unit_residues(self) -> np.ndarray:
        return np.flatnonzero(self.residue_index >= 0)

    def values_matrix(self) -> np.ndarray:
        """Dense small-q oracle: complex phi(q) x q matrix of character values
        (column n = residue n), from the exact exponents sum_i e_i t_i(n) L / s_i.

        The estimate is 48 B per phi * q entry: the complex result (16) and,
        per pair of a character and a unit, the int64 exponent (8) and its
        gathered root (16), with room for the O(q) index arrays.  The traced
        peak is 40.0 B per entry at q = 997 and 4093, 40.2 B at q = 211.
        """
        need = 48 * self.phi * self.q
        if need > _DENSE_ORACLE_BYTES:
            raise ValueError(
                f"the dense character oracle mod {self.q} needs about {need / 2**20:.0f} MiB, "
                f"over its {_DENSE_ORACLE_BYTES / 2**20:.0f} MiB budget"
            )
        shape = self.grid_shape
        units = self.unit_residues()
        tuples = np.stack(np.unravel_index(np.arange(self.phi), shape), axis=1)
        logs = np.stack(np.unravel_index(self.residue_index[units], shape), axis=1)
        weights = np.array([self.exponent // s for s in shape], dtype=np.int64)
        exps = (tuples * weights) @ logs.T
        exps %= self.exponent
        vals = np.zeros((self.phi, self.q), dtype=np.complex128)
        vals[:, units] = self.roots_at(np.arange(self.exponent))[exps]
        return vals


def check_table_bound(q: int) -> None:
    """Refuse an integer modulus above _MAX_MODULUS, before any work."""
    if q > _MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the table bound {_MAX_MODULUS}")


def build_character_table(q: int) -> CharacterTable:
    """Construct the character table mod q from generator walks, in O(q) time
    and memory.

    Each component walks its units mod its prime power in C order over its
    axes: the powers of a primitive root g for an odd prime power, 1, 3 for
    4, and 5^t then 2^e - 5^t for 2^e, e >= 3 (the factor 2 of q = 2 mod 4
    is the constant 1).  Each walk is lifted to q by its CRT idempotent and
    the lifts are combined by one outer sum mod q, which gives the unit at
    every flat grid index (kept as the transform's unit order); residue_index
    is its inverse, -1 off the units.  A walk that misses a unit raises
    ValueError.

    Accepts 1 <= q <= 1e5.  q = 1 yields the single character that is
    identically 1, with every integer landing in the unit residue class 0.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q!r}")
    check_table_bound(q)
    components: list[GroupComponent] = []
    units = np.zeros(1, dtype=np.int64)
    for p, e in factorize(q).factors:
        pk = p**e
        if pk == 2:
            walk = np.ones(1, dtype=np.int64)  # units mod 2 are trivial
        elif pk == 4:
            components.append(GroupComponent(4, (3,), (2,)))
            walk = np.array([1, 3], dtype=np.int64)
        elif p == 2:
            components.append(GroupComponent(pk, (pk - 1, 5), (2, 2 ** (e - 2))))
            fives = powers_mod(5, pk, 2 ** (e - 2))
            walk = np.concatenate((fives, pk - fives))  # (-1)^t0 5^t1
        else:
            g, order = primitive_root(pk, Factorization(pk, ((p, e),))), pk // p * (p - 1)
            components.append(GroupComponent(pk, (g,), (order,)))
            walk = powers_mod(g, pk, order)
        cofactor = q // pk
        units = (units[:, None] + walk * (cofactor * pow(cofactor, -1, pk))).ravel()
    units %= q
    residue_index = np.full(q, -1, dtype=np.int64)
    residue_index[units] = np.arange(len(units))
    t = CharacterTable(q, tuple(components), tuple(s for c in components for s in c.orders), residue_index)
    if np.count_nonzero(residue_index >= 0) != t.phi:
        raise ValueError(f"the generator walks mod {q} do not reach all {t.phi} units")
    t._units = units
    return t


@functools.lru_cache(maxsize=1)
def get_table(q: int) -> CharacterTable:
    """Memoized build_character_table, holding the last table built.  The
    commands read at most one table each through it (chars, lvalue, expsum
    and every verify target but lemma3: 0 hits, 0 or 1 misses), so its hits
    come from library callers that read a modulus again, directly or through
    meanval.thm2_sides and meanval.cross_terms.  Sweeps and reports never
    read it: meanval._batch_reports builds the tables of a sweep's batch
    itself."""
    return build_character_table(q)


def char_value(t: CharacterTable, j: int, n: int) -> complex:
    """chi_j(n) as a complex number (0 on non-units): entry j of t.values_at(n)."""
    if not 0 <= j < t.phi:
        raise ValueError(f"character index {j} out of range for modulus {t.q}")
    return complex(t.values_at(n)[j])


def _negation(shape: tuple[int, ...]) -> np.ndarray:
    """Flat index of -e (mod shape) for every flat index e of the grid, in C
    order: an outer sum, axis by axis, of the negated coordinates."""
    flat = np.zeros(1, dtype=np.int64)
    for s in shape:
        flat = (flat[:, None] * s + -np.arange(s) % s).ravel()
    return flat


def _certifies_logs(t: CharacterTable) -> bool:
    """Exact O(q) certificate that the stored fields of t (q, components,
    orders, residue_index) give the whole character group.

    With t(n) the grid tuple at residue_index[n] and u_i the unit at the flat
    index of the unit vector e_i, checks that the components sit on the prime
    powers of q (2 aside) with one generator per order, and that orders are
    their orders; that residue_index is -1 exactly off the units and hits
    every grid index once on them; that t(u_i n) = t(n) + e_i (mod orders)
    for every unit n and every axis; and that the generator of each axis is
    u_i reduced mod its prime power.

    The group-law check gives t(u^k n) = t(n) + k for every product u^k of
    the u_i.  By the second, the tuples t(1) + k cover the grid, so every
    unit is some u^k with t(u^k) = t(1) + k, and t(u_i) = e_i forces t(1) = 0
    (trivially so when phi = 1).  So t(mn) = t(m) + t(n): t is an isomorphism
    of the units onto the grid group, the tuples are exactly the phi
    characters, and both orthogonality relations hold exactly.  phi, the
    exponent and conjugate_map are derived from orders and need no check.
    """
    q, idx, factors = t.q, t.residue_index, factorize(t.q).factors
    axes = [(c.prime_power, g) for c in t.components for g in c.generators]
    if ([c.prime_power for c in t.components] != [p**e for p, e in factors if p**e > 2]
            or tuple(s for c in t.components for s in c.orders) != t.orders or len(axes) != len(t.orders)):
        return False
    units = np.ones(q, dtype=bool)
    for p, _ in factors:
        units[::p] = False  # the multiples of p, 0 included
    if not np.array_equal(idx >= 0, units) or idx.min() < -1:  # also False on a length other than q
        return False
    flat, unit_list = idx[units], np.flatnonzero(units)
    counts = np.bincount(flat, minlength=t.phi)
    if counts.size != t.phi or (counts != 1).any():
        return False
    stride = 1
    for s, (pk, g) in zip(reversed(t.orders), reversed(axes)):  # C order: the last axis has stride 1
        u = int(t._units[stride])
        coord = flat // stride % s
        step = np.where(coord == s - 1, (1 - s) * stride, stride)
        if u % pk != g or not np.array_equal(idx[u * unit_list % q], flat + step):
            return False
        stride *= s
    return True


def orthogonality_defect(t: CharacterTable) -> float:
    """max_j |sum_{n=1..q} chi_j(n) - phi [chi_j = chi_0]|, or inf when the
    logs fail the exact certificate of _certifies_logs.

    A certified table satisfies both orthogonality relations exactly, so the
    float defect is the transform's rounding on the unit indicator.  Reads
    only the table's stored fields; no dense matrix is formed.
    """
    return t._period_sum_defects[0]


def nonprincipal_period_sum_defect(t: CharacterTable) -> float:
    """max over chi != chi_0 of |sum_{n=1..q} chi(n)| (exactly 0 in theory),
    or inf when the logs fail the exact certificate."""
    return t._period_sum_defects[1]
