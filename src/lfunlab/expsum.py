"""Complete exponential sums of polynomials mod p and character-twisted sums.

The central identity: for f with integer coefficients and S(chi, f) =
sum_{x=1}^{p-1} chi(x) e(f(x)/p),

    |S(chi, f)|^2 = (p - 1) + sum_{x=2}^{p-1} chi(x) T(g_x),

where g_x(y) = f(x y) - f(y) has coefficients b_i = a_i (x^i - 1) and
T(h) = sum_{y=1}^{p-1} e(h(y)/p).  It follows from substituting y -> x y in
one factor and holds for every character, principal included.  The module
evaluates both sides exactly enough to use the identity as a cross-check, and
audits each completed sum against the square-root cancellation bound.

The table of T(g_x) is a direct sum over y that uses no characters or
transforms, so the identity stays a check of the character side.  It walks y
through the powers g^j of a primitive root g, certified in exact integers
before use, so f(x y) for x = g^l is f at power j + l: with F[j] = f(g^j)
mod p and u[j] = e(F[j]/p), the row of x is sum_j u[j + l] conj(u[j]), the
shift of u by l against conj(u), whatever the degree.  Blocks of rows are
summed as BLAS matrix-vector products (zgemv); the rows are never computed
by a transform, since the Fourier route to this autocorrelation goes through
|S(chi, f)|^2, the side under check.  Since g_{1/x}(x y) = -g_x(y), the row
of 1/x = g^(p-1-l) is the complex conjugate of the row of x (same |T|,
effective degree and degeneracy), so half the rows are summed.  The work
around the product (coefficients, walk values, the scatter of the rows) is
a few exact integer passes of length p per coefficient.

lemma2_defect takes both character sums of the identity, S(chi, f) and
sum_x chi(x) T(g_x), from one batched transform of their two grids; the
S grid is the one weighted_char_sum_all transforms (_unit_grid).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import is_prime, powers_mod, primitive_root
from .chars import CharacterTable


@dataclass(frozen=True)
class Polynomial:
    """f(x) = a_0 + a_1 x + ... + a_k x^k with integer coefficients, k >= 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise ValueError("polynomial needs degree >= 1 (at least two coefficients)")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in self.coefficients):
            raise ValueError("polynomial coefficients must be integers")
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse "a0,a1,...,ak" (constant term first)."""
        try:
            coeffs = tuple(int(c.strip()) for c in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse polynomial {text!r}") from exc
        return cls(coeffs)

    def coprime_to(self, p: int) -> bool:
        """True when p does not divide every coefficient."""
        return any(c % p != 0 for c in self.coefficients)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class DifferencePoly:
    """Coefficients of f(x y) - f(y) mod p and whether they all vanish."""

    coefficients: tuple[int, ...]
    degenerate: bool


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 3 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")


def difference_poly(f: Polynomial, x: int, p: int) -> DifferencePoly:
    """b_i = a_i (x^i - 1) mod p for i = 0..k (b_0 is always 0)."""
    _check_prime(p)
    if not 1 <= x <= p - 1:
        raise ValueError(f"x must lie in 1..p-1, got {x}")
    coeffs = []
    xi = 1
    for a in f.coefficients:
        coeffs.append(a * (xi - 1) % p)
        xi = xi * x % p
    return DifferencePoly(tuple(coeffs), all(c == 0 for c in coeffs))


def _e(values: np.ndarray, p: int) -> np.ndarray:
    """e(v/p) = exp(2 pi i v/p) for an integer array v, one exp per entry."""
    return np.exp(2j * np.pi * values / p)


def _poly_values_mod(coefficients, p: int, xs: np.ndarray) -> np.ndarray:
    """Horner evaluation of the polynomial mod p over an int64 grid."""
    acc = np.zeros_like(xs)
    for c in reversed(coefficients):
        acc = (acc * xs + c % p) % p
    return acc


def complete_sum(p: int, coefficients) -> complex:
    """T(h) = sum_{y=1}^{p-1} e(h(y)/p) for h given by its coefficient list.

    When p divides every coefficient each term is 1 and the value is exactly
    p - 1 (returned without touching floats).  Each root of unity used
    otherwise is accurate to about one ulp, so |T| carries error ~1e-13 p.
    """
    _check_prime(p)
    coeffs = [int(c) % p for c in coefficients]
    if not coeffs:
        raise ValueError("empty coefficient list")
    if all(c == 0 for c in coeffs):
        return complex(p - 1)
    ys = np.arange(1, p, dtype=np.int64)
    vals = _poly_values_mod(coeffs, p, ys)
    return complex(_e(vals, p).sum())


def _unit_grid(t: CharacterTable, f: Polynomial) -> np.ndarray:
    """e(f(u)/p) at the units u mod p = t.q in grid order: the grid whose
    transform is S(chi, f)."""
    p = t.q
    _check_prime(p)
    return _e(_poly_values_mod(f.coefficients, p, t._units), p)


def weighted_char_sum_all(t: CharacterTable, f: Polynomial) -> np.ndarray:
    """S(chi, f) for every character at once (row j = character j), by one
    transform of e(f(u)/p) at the units u in grid order."""
    return t.sums_over_units(_unit_grid(t, f))


# (x, y) pairs summed per block of the difference sums (at least two rows).
# On a 2-core x86-64 host 2^15 and 2^16 tie at p = 1801 .. 5003, 2^16 is
# faster at p = 10007 and 2^15 at p = 19997, and 2^14 is slower throughout;
# 2^15 also keeps the periodic copy of u to 17 copies, 0.6 MB, at p = 2203.
_DIFFERENCE_BLOCK = 2**15

# Counted as all (p - 2) p (x, y) pairs, although only one row of each
# inverse pair is summed.  Measured on a 2-core x86-64 host with
# single-threaded BLAS: 0.6-0.7 ns per counted pair at p = 2203, 0.5 ns at
# p = 10007 and 0.4-0.5 ns at p = 19997, for degree 3 and degree 6 alike,
# so 4e8 of them, p near 2e4, is about 0.2 s.
_DIFFERENCE_EVALUATIONS = 4 * 10**8


def check_difference_budget(p: int) -> None:
    """Refuse, before any work, a difference table of more than
    _DIFFERENCE_EVALUATIONS (p - 2) p evaluations."""
    need = (p - 2) * p
    if need > _DIFFERENCE_EVALUATIONS:
        raise ValueError(
            f"the difference sums mod {p} need about {need:.1e} evaluations, "
            f"over their budget of {_DIFFERENCE_EVALUATIONS:.1e}"
        )


def _certified_walk(p: int) -> np.ndarray:
    """g^j mod p for j = 0 .. p-2, g = primitive_root(p), certified in exact
    integers: the walk starts at 1, each step multiplies by g mod p, g times
    the last power is 1, and every unit 1 .. p-1 appears exactly once.  A walk
    that fails any of these raises instead of indexing a table."""
    g = primitive_root(p)
    pw = powers_mod(g, p, p - 1)
    if (pw[0] != 1 or not np.array_equal(pw[1:], g * pw[:-1] % p) or g * int(pw[-1]) % p != 1
            or not (np.bincount(pw, minlength=p)[1:] == 1).all()):
        raise ValueError(f"the powers of {g} do not walk once through the units mod {p}")
    return pw


def _shifted_sums(windows: np.ndarray, shifts: range, conj_u: np.ndarray) -> np.ndarray:
    """sum_j u[j + l] conj(u[j]) over j = 0 .. p-2, for each l in shifts.

    windows is the window view, of width n = p - 1, of u repeated, so row m
    is u[m], ..., u[m + n - 1], indices mod n, and conj_u is conj(u).  Row
    l + k (n + 1) is the shift l + k: the block of shifts is the slice of
    rows l, l + (n + 1), ..., a matrix with leading dimension n + 1 that
    numpy hands to BLAS (zgemv) without a copy.  zgemv sums each row as one
    dot product on one thread, so the bytes do not depend on the BLAS
    thread count; a block of a single row would go to a dot product that
    OpenBLAS splits across threads, so _difference_table never makes one
    when it has two rows to sum.
    """
    return windows[shifts.start::len(conj_u) + 1][:len(shifts)] @ conj_u


def _difference_table(p: int, f: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of g_x mod p (row x - 2) and T(g_x), for x = 2 .. p-1.

    A direct O(p^2) sum, with no characters, along the certified walk
    y = g^j (_certified_walk).  With F[j] = f(g^j) mod p, built from the
    certified powers as sum_i a_i g^(i j mod (p-1)), and u[j] = e(F[j]/p),
    the row of x = g^l is T(g_x) = sum_j e((F[j + l] - F[j])/p) =
    sum_j u[j + l] conj(u[j]), indices mod p - 1: the shift of u by l
    against conj(u).  The rows are summed as matrix-vector products of
    shifted copies of u with conj(u), in blocks of about _DIFFERENCE_BLOCK
    pairs and at least two rows, by _shifted_sums.  They are never computed
    by a transform: the Fourier route to this autocorrelation is the
    character side of the identity the table checks.

    Only one row of each inverse pair is summed.  Substituting y -> x y
    gives g_{1/x}(x y) = f(y) - f(x y) = -g_x(y), so T(g_{1/x}) is the
    complex conjugate of T(g_x): the rows l = 1 .. (p-1)/2 are summed (the
    last is the self-inverse x = p - 1) and row p - 1 - l is the conjugate
    of row l.  Since x^i = 1 exactly when x^-i = 1, b_i(1/x) vanishes
    exactly when b_i(x) does, so partners share |T|, effective degree and
    degeneracy; the coefficient rows are still computed for every x.
    Degenerate rows (p divides every coefficient) are set to exactly p - 1,
    with no float summation.  Refused before any work when the (p - 2) p
    evaluations exceed _DIFFERENCE_EVALUATIONS.

    Everything outside the O(p^2) product is an O(k p) pass over contiguous
    arrays: the coefficients b_i(x) fill a (k + 1) x (p - 2) array row by
    row (returned transposed, row x - 2), which also gives the degenerate
    mask; the walk index i j mod (p - 1) steps by one addition and one
    conditional subtraction per coefficient, and F is reduced mod p once;
    the summed rows and their conjugate partners fill one buffer in walk
    order, scattered to the rows x = g^l once.  Each step is exact integer
    arithmetic or a copy, so no float byte depends on how they are arranged.
    """
    check_difference_budget(p)
    xs = np.arange(2, p, dtype=np.int64)
    rows = np.zeros((len(f.coefficients), len(xs)), dtype=np.int64)  # row i: b_i(x); b_0 = 0
    xi = xs.copy()
    for a, row in zip(f.coefficients[1:], rows[1:]):
        np.subtract(xi, 1, out=row)
        row *= a % p
        row %= p
        xi *= xs
        xi %= p
    n = p - 1
    pw = _certified_walk(p)
    j = np.arange(n, dtype=np.int64)
    walk_index = np.zeros(n, dtype=np.int64)  # i j mod n, one step of j per coefficient
    walk_values = np.full(n, f.coefficients[0] % p, dtype=np.int64)
    for a in f.coefficients[1:]:
        walk_index += j
        walk_index[walk_index >= n] -= n
        walk_values += a % p * pw[walk_index]
    walk_values %= p
    u = _e(walk_values, p)
    # Rows 1 .. half in near-equal blocks of at least two rows (where
    # half >= 2).  u repeated width + 3 times holds the rows l + k (n + 1),
    # k < width, of every block start l <= half + 1.
    half = n // 2
    blocks = max(1, half // max(2, _DIFFERENCE_BLOCK // n))
    bounds = [1 + half * b // blocks for b in range(blocks + 1)]
    width = -(-half // blocks)
    windows = sliding_window_view(np.tile(u, width + 3), n)
    conj_u = np.conj(u)
    walk_sums = np.empty(n - 1, dtype=np.complex128)  # the row of g^l at l - 1, l = 1 .. n-1
    for lo, hi in zip(bounds, bounds[1:]):
        walk_sums[lo - 1:hi - 1] = _shifted_sums(windows, range(lo, hi), conj_u)
    np.conj(walk_sums[:half - 1][::-1], out=walk_sums[half:])  # row n - l, l = half-1 .. 1
    sums = np.empty(len(xs), dtype=np.complex128)
    sums[pw[1:] - 2] = walk_sums
    sums[~rows.any(axis=0)] = p - 1
    return rows.T, sums


def difference_sums(p: int, f: Polynomial) -> np.ndarray:
    """T(g_x) for x = 2 .. p-1, where g_x(y) = f(x y) - f(y)."""
    _check_prime(p)
    return _difference_table(p, f)[1]


def lemma2_defect(t: CharacterTable, f: Polynomial) -> float:
    """Max over all chi mod p of | |S(chi,f)|^2 - (p-1) - sum_x chi(x) T(g_x) |.

    The identity is exact, so the defect is pure floating-point noise
    (~1e-10 for the p used here).  Both character sums, S(chi, f) and
    sum_x chi(x) T(g_x), come from one batched transform of the two grids
    at the units (the second is 0 at x = 1, which the sum omits): each row of the batch is
    bit-identical to a transform of its own.
    """
    p = t.q
    s_grid = _unit_grid(t, f)
    g = np.zeros(p, dtype=np.complex128)
    g[2:] = difference_sums(p, f)
    s, weighted = t.sums_over_units(np.stack((s_grid, g[t._units])))
    rhs = (p - 1) + weighted
    return float(np.abs(np.abs(s) ** 2 - rhs).max())


class CompletedSumAudit(NamedTuple):
    """One x in 2..p-1: the completed sum of the difference polynomial and
    its classification against the square-root cancellation bound."""

    x: int
    degenerate: bool
    effective_degree: int | None
    abs_sum: float
    bound: float | None
    bound_ok: bool
    scaled: float  # |T| / p^(1 - 1/k), the normalization the estimates target


@dataclass(frozen=True, eq=False)
class WeilAudit:
    """Classification of all difference-polynomial sums for one (p, f).

    The classification is kept as columns over x = 2..p-1 (row x - 2);
    entries builds one CompletedSumAudit per x from them on first use.
    """

    p: int
    degree: int
    degenerate: np.ndarray        # p divides every coefficient of g_x
    effective_degree: np.ndarray  # highest i with b_i != 0 (read where not degenerate)
    abs_sums: np.ndarray          # |T(g_x)|
    bounds: np.ndarray            # eff_deg sqrt(p) + 1 (read where not degenerate)
    within: np.ndarray            # degenerate or |T| <= bound
    degenerate_x: tuple[int, ...]
    bounds_ok: bool           # every non-degenerate |T| <= eff_deg sqrt(p) + 1
    degenerate_values_ok: bool  # every degenerate T == p - 1 exactly
    degenerate_count_ok: bool   # at most degree - 1 degenerate x
    degenerate_x_bound_ok: bool  # every degenerate x >= p^(1/degree)

    @functools.cached_property
    def entries(self) -> tuple[CompletedSumAudit, ...]:
        scaled = self.abs_sums / self.p ** (1.0 - 1.0 / self.degree)
        return tuple(
            CompletedSumAudit(x, True, None, a, None, True, s) if d
            else CompletedSumAudit(x, False, e, a, b, ok, s)
            for x, d, e, a, b, ok, s in zip(range(2, self.p), self.degenerate.tolist(),
                                             self.effective_degree.tolist(), self.abs_sums.tolist(),
                                             self.bounds.tolist(), self.within.tolist(), scaled.tolist())
        )

    @property
    def all_ok(self) -> bool:
        return (
            self.bounds_ok
            and self.degenerate_values_ok
            and self.degenerate_count_ok
            and self.degenerate_x_bound_ok
        )


def lemma3_report(p: int, f: Polynomial) -> WeilAudit:
    """Audit every completed difference-polynomial sum for (p, f).

    Non-degenerate x: |T(g_x)| must satisfy D sqrt(p) + 1 where D is the
    effective degree of g_x mod p (the +1 corrects for the missing y = 0
    term of the complete sum the square-root bound applies to).

    Degenerate x (p divides every coefficient of g_x): T = p - 1 exactly;
    such x satisfy x^l = 1 mod p for any l >= 1 with p not dividing a_l, so
    there are at most degree-1 of them and each exceeds p^(1/degree).

    The sums come from the shared difference table, summed along a certified
    primitive-root walk (row x = g^l is a cyclic shift of f(g^j) by l), where
    T(g_{1/x}) is the conjugate of T(g_x): the entries of x and 1/x mod p
    carry the same |T|, effective degree, bound verdict and degeneracy.  The
    coefficients and the classification are read for every x, so the audit
    covers all x in 2..p-1.

    Rejects polynomials that are constant mod p: then g_x vanishes for every
    x, the degenerate count bound has no content, and the audit would be
    vacuous.
    """
    _check_prime(p)
    if not f.coprime_to(p):
        raise ValueError(f"p = {p} divides every coefficient of {f}")
    if all(c % p == 0 for c in f.coefficients[1:]):
        raise ValueError(f"{f} is constant mod {p}; every difference polynomial vanishes")
    k = f.degree
    coeffs, sums = _difference_table(p, f)
    nonzero = coeffs != 0
    degenerate = ~nonzero.any(axis=1)
    eff_deg = k - np.argmax(nonzero[:, ::-1], axis=1)  # highest nonzero b_i
    abs_sums = np.abs(sums)
    bounds = eff_deg * math.sqrt(p) + 1.0
    within = degenerate | (abs_sums <= bounds)
    degenerate_x = tuple((np.flatnonzero(degenerate) + 2).tolist())
    return WeilAudit(
        p=p,
        degree=k,
        degenerate=degenerate,
        effective_degree=eff_deg,
        abs_sums=abs_sums,
        bounds=bounds,
        within=within,
        degenerate_x=degenerate_x,
        bounds_ok=bool(within.all()),
        degenerate_values_ok=bool((sums[degenerate] == p - 1).all()),
        degenerate_count_ok=len(degenerate_x) <= k - 1,
        degenerate_x_bound_ok=all(x >= p ** (1.0 / k) for x in degenerate_x),
    )


def sample_polynomial(rng: random.Random, degree: int, p: int) -> Polynomial:
    """Draw coefficients uniformly from 0..p-1, rejecting polynomials that are
    constant mod p (those make the difference-sum audit vacuous)."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(degree + 1))
        if any(c % p != 0 for c in coeffs[1:]):
            return Polynomial(coeffs)
