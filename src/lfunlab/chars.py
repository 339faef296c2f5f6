"""Dirichlet characters mod q as discrete logs over the cyclic factors of the unit group.

The unit group (Z/qZ)^* is a product of cyclic factors: one generator per odd
prime power, and <-1> x <5> for 2^e with e >= 3.  A character is an exponent
tuple e over those factors.  Characters are numbered by their tuples in
lexicographic order, last factor fastest, which is numpy C order on the grid
of shape `orders`; character 0 (the all-zero tuple) is principal.  Each unit
residue n is stored by its tuple of discrete logs t(n), flattened into the
same grid, and

    chi_e(n) = exp(2 pi i sum_i e_i t_i(n) / s_i),   s_i = orders[i].

Every character sum over all characters at once is therefore one inverse FFT
over the grid (Rader 1968; Platt 2016), O(q log q) time and O(q) memory:

    sums_over_residues:   sum_n chi_j(n) x_n  for every character j
    sums_over_characters: sum_j chi_j(n) w_j  for every residue n

The table itself holds O(q) exact integers, so cached tables are
bit-reproducible.  The dense phi(q) x q matrices of exact exponents
(value_exponents) and complex values (values_matrix()) are small-q oracles,
built on first use and refused beyond a fixed byte budget; only the
orthogonality and period-sum checks, `lfunlab chars --out` and the tests use
them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import discrete_log_array, euler_phi, factorize, powers_mod, primitive_root

# Measured on a 2-core x86-64 host: at q = 99991 a table builds in 0.02 s
# and holds 1.5 MB, and `lfunlab sweep --target thm1` runs in 0.2 s with a
# 50 MB peak RSS.  Larger moduli are untested.
_MAX_MODULUS = 10**5

# Peak bytes of the dense oracle per phi(q) * q entry: the complex matrix
# (16), the int32 exponents (4) and the three complex phi x phi copies
# orthogonality_defect makes (48); 1.13 GB peak RSS measured at q = 4093.
_DENSE_BYTES_PER_ENTRY = 68
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
    t(n) in the grid of shape orders, or -1 when gcd(n, q) > 1.  exponent is
    L = lcm(orders), and conjugate_map[j] is the index of conj(chi_j).
    """

    q: int
    phi: int
    exponent: int
    components: tuple[GroupComponent, ...]
    orders: tuple[int, ...]
    residue_index: np.ndarray
    conjugate_map: np.ndarray
    principal_index: int = 0
    _values: np.ndarray | None = field(default=None, init=False, repr=False)
    _roots: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """orders, or (1,) for the trivial group mod 1 and 2."""
        return self.orders or (1,)

    def _transform(self, grid: np.ndarray) -> np.ndarray:
        """phi * ifftn over the cyclic factors, flattened back to C order."""
        return self.phi * np.fft.ifftn(grid.reshape(self.grid_shape)).ravel()

    def sums_over_residues(self, x: np.ndarray) -> np.ndarray:
        """sum_{n=0}^{q-1} chi_j(n) x[n] for every character j (length phi)."""
        x = np.asarray(x)
        units = self.residue_index >= 0
        grid = np.empty(self.phi, dtype=x.dtype)
        grid[self.residue_index[units]] = x[units]  # units fill the grid exactly once
        return self._transform(grid)

    def sums_over_characters(self, w: np.ndarray) -> np.ndarray:
        """sum_j chi_j(n) w[j] for every residue n = 0..q-1 (0 off the units)."""
        flat = self._transform(np.asarray(w))
        out = np.zeros(self.q, dtype=flat.dtype)
        units = self.residue_index >= 0
        out[units] = flat[self.residue_index[units]]
        return out

    def roots_of_unity(self) -> np.ndarray:
        """exp(2 pi i v / L) for v = 0 .. L-1."""
        if self._roots is None:
            angles = 2.0 * np.pi * np.arange(self.exponent) / self.exponent
            self._roots = np.exp(1j * angles)
        return self._roots

    def unit_residues(self) -> np.ndarray:
        return np.flatnonzero(self.residue_index >= 0)

    def _check_dense_budget(self) -> None:
        need = _DENSE_BYTES_PER_ENTRY * self.phi * self.q
        if need > _DENSE_ORACLE_BYTES:
            raise ValueError(
                f"the dense character oracle mod {self.q} needs about {need / 2**20:.0f} MiB, "
                f"over its {_DENSE_ORACLE_BYTES / 2**20:.0f} MiB budget"
            )

    @functools.cached_property
    def value_exponents(self) -> np.ndarray:
        """Dense oracle: int32 phi(q) x q matrix with chi_j(n) =
        exp(2 pi i value_exponents[j, n] / exponent), and -1 where gcd(n, q) > 1."""
        self._check_dense_budget()
        shape = self.grid_shape
        units = self.unit_residues()
        tuples = np.stack(np.unravel_index(np.arange(self.phi), shape), axis=1)
        logs = np.stack(np.unravel_index(self.residue_index[units], shape), axis=1)
        weights = np.array([self.exponent // s for s in shape], dtype=np.int64)
        exps = np.full((self.phi, self.q), -1, dtype=np.int32)
        exps[:, units] = (tuples * weights) @ logs.T % self.exponent
        return exps

    def values_matrix(self) -> np.ndarray:
        """Dense oracle: complex phi(q) x q matrix of character values (column n = residue n)."""
        if self._values is None:
            exps = self.value_exponents
            vals = self.roots_of_unity()[np.maximum(exps, 0)]
            vals[exps < 0] = 0.0
            self._values = vals
        return self._values


def _two_power_logs(e: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-residue logs (t0, t1) with u = (-1)^t0 5^t1 mod 2^e, e >= 3."""
    pk = 2**e
    t0 = np.full(pk, -1, dtype=np.int64)
    t1 = np.full(pk, -1, dtype=np.int64)
    pows = powers_mod(5, pk, 2 ** (e - 2))
    steps = np.arange(len(pows))
    t0[pows], t1[pows] = 0, steps
    t0[pk - pows], t1[pk - pows] = 1, steps
    return t0, t1


def _component_logs(q: int) -> tuple[list[GroupComponent], list[int], list[np.ndarray]]:
    """Components, cyclic orders, and one length-q log column per order."""
    components: list[GroupComponent] = []
    orders: list[int] = []
    log_columns: list[np.ndarray] = []
    residues = np.arange(q, dtype=np.int64)
    for p, e in factorize(q).factors:
        pk = p**e
        if p == 2:
            if e == 1:
                continue  # units mod 2 are trivial
            if e == 2:
                components.append(GroupComponent(4, (3,), (2,)))
                orders.append(2)
                col = np.array([-1, 0, -1, 1], dtype=np.int64)
                log_columns.append(col[residues % 4])
                continue
            components.append(GroupComponent(pk, (pk - 1, 5), (2, 2 ** (e - 2))))
            orders.extend((2, 2 ** (e - 2)))
            t0, t1 = _two_power_logs(e)
            log_columns.append(t0[residues % pk])
            log_columns.append(t1[residues % pk])
            continue
        g = primitive_root(pk)
        order = euler_phi(factorize(pk))
        components.append(GroupComponent(pk, (g,), (order,)))
        orders.append(order)
        log_columns.append(discrete_log_array(pk, g)[residues % pk])
    return components, orders, log_columns


def build_character_table(q: int) -> CharacterTable:
    """Construct the character table mod q in O(q) time and memory.

    Accepts 1 <= q <= 1e5.  q = 1 yields the single character that is
    identically 1, with every integer landing in the unit residue class 0.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q!r}")
    if q > _MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the table bound {_MAX_MODULUS}")
    components, orders, log_columns = _component_logs(q)
    phi = euler_phi(factorize(q))

    residue_index = np.zeros(q, dtype=np.int64)
    for col, s in zip(log_columns, orders):
        residue_index = residue_index * s + col
    # Non-units by gcd: q = 2m has no log column for the factor 2.
    residue_index[np.gcd(np.arange(q), q) != 1] = -1

    shape = tuple(orders) or (1,)
    coords = np.unravel_index(np.arange(phi), shape)
    conjugate_map = np.ravel_multi_index([(-c) % s for c, s in zip(coords, shape)], shape)

    return CharacterTable(
        q=q,
        phi=phi,
        exponent=math.lcm(*orders) if orders else 1,
        components=tuple(components),
        orders=tuple(orders),
        residue_index=residue_index,
        conjugate_map=conjugate_map.astype(np.int64),
    )


@functools.lru_cache(maxsize=16)
def get_table(q: int) -> CharacterTable:
    """Memoized build_character_table; sweeps touching one modulus at a time
    keep at most a handful of tables alive."""
    return build_character_table(q)


def char_value(t: CharacterTable, j: int, n: int) -> complex:
    """chi_j(n) as a complex number (0 on non-units), from the exact exponent."""
    if not 0 <= j < t.phi:
        raise ValueError(f"character index {j} out of range for modulus {t.q}")
    f = int(t.residue_index[n % t.q])
    if f < 0:
        return 0j
    shape = t.grid_shape
    e, logs = np.unravel_index(j, shape), np.unravel_index(f, shape)
    v = sum(int(ei) * int(ti) * (t.exponent // s) for ei, ti, s in zip(e, logs, shape)) % t.exponent
    return complex(t.roots_of_unity()[v])


def is_principal(t: CharacterTable, j: int) -> bool:
    return j == t.principal_index


def conjugate_index(t: CharacterTable, j: int) -> int:
    """Index of the complex-conjugate character of chi_j."""
    if not 0 <= j < t.phi:
        raise ValueError(f"character index {j} out of range for modulus {t.q}")
    return int(t.conjugate_map[j])


def orthogonality_defect(t: CharacterTable) -> float:
    """max over unit pairs (n, l) of |sum_chi chi(n) conj(chi(l)) - phi [n==l]|,
    from the dense oracle."""
    units = t.unit_residues()
    v = t.values_matrix()[:, units]
    gram = v.conj().T @ v
    gram[np.diag_indices_from(gram)] -= t.phi
    return float(np.abs(gram).max())


def nonprincipal_period_sum_defect(t: CharacterTable) -> float:
    """max over chi != chi_0 of |sum_{n=1..q} chi(n)| (exactly 0 in theory),
    from the dense oracle."""
    if t.phi == 1:
        return 0.0
    sums = t.values_matrix().sum(axis=1)
    sums[t.principal_index] = 0.0
    return float(np.abs(sums).max())
