"""Complete exponential sums of polynomials mod p and character-twisted sums.

The central identity: for f with integer coefficients and S(chi, f) =
sum_{x=1}^{p-1} chi(x) e(f(x)/p),

    |S(chi, f)|^2 = (p - 1) + sum_{x=2}^{p-1} chi(x) T(g_x),

where g_x(y) = f(x y) - f(y) has coefficients b_i = a_i (x^i - 1) and
T(h) = sum_{y=1}^{p-1} e(h(y)/p).  It follows from substituting y -> x y in
one factor and holds for every character, principal included.  The module
evaluates both sides exactly enough to use the identity as a cross-check, and
audits each completed sum against the square-root cancellation bound.

The table of T(g_x) is a direct Horner evaluation over y that uses no
characters, discrete logs or transforms, so the identity stays a check of the
character side.  It does only the work the algebra leaves: since
g_{1/x}(x y) = -g_x(y), the row of 1/x mod p is the complex conjugate of the
row of x (same |T|, effective degree and degeneracy), so half the rows are
summed; and the int64 accumulator is reduced mod p only when the next Horner
step could overflow, once per cubic for p < 5.5e4, which leaves the residues,
and so the sums, bit-identical to a reduction after every step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import is_prime
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


def _roots(p: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(p) / p)


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
    return complex(_roots(p)[vals].sum())


def weighted_char_sum_all(t: CharacterTable, f: Polynomial) -> np.ndarray:
    """S(chi, f) for every character at once (row j = character j), by one
    transform over the unit group."""
    p = t.q
    _check_prime(p)
    terms = np.zeros(p, dtype=np.complex128)
    terms[1:] = _roots(p)[_poly_values_mod(f.coefficients, p, np.arange(1, p, dtype=np.int64))]
    return t.sums_over_residues(terms)


def weighted_char_sum(t: CharacterTable, j: int, f: Polynomial) -> complex:
    """S(chi_j, f) = sum_{x=1}^{p-1} chi_j(x) e(f(x)/p): entry j of weighted_char_sum_all."""
    if not 0 <= j < t.phi:
        raise ValueError(f"character index {j} out of range for modulus {t.q}")
    return complex(weighted_char_sum_all(t, f)[j])


# (x, y) pairs evaluated per block of the difference sums.
_DIFFERENCE_BLOCK = 2**20

# Counted as all (p - 2) p (x, y) pairs, although only one row of each
# inverse pair is evaluated.  Measured on a 2-core x86-64 host: 5.6-7.0 ns
# per counted pair for a cubic f at p = 2203 .. 10007 (9.3-11.5 ns at degree
# 6), so 4e8 of them, p near 2e4, is about 2-5 s.
_DIFFERENCE_EVALUATIONS = 4 * 10**8

_INT64_MAX = 2**63 - 1


def check_difference_budget(p: int) -> None:
    """Refuse, before any work, a difference table of more than
    _DIFFERENCE_EVALUATIONS (p - 2) p evaluations."""
    need = (p - 2) * p
    if need > _DIFFERENCE_EVALUATIONS:
        raise ValueError(
            f"the difference sums mod {p} need about {need:.1e} evaluations, "
            f"over their budget of {_DIFFERENCE_EVALUATIONS:.1e}"
        )


def _difference_block_sums(block: np.ndarray, p: int, ys: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """T(g_x) for the rows of a block of difference coefficients, by Horner
    over y = 1 .. p-1.

    The accumulator is reduced mod p only when the next acc y + b could pass
    2^63 - 1 (tracked by a Python-side bound on acc), plus once at the end,
    so the reduced values equal those of a remainder after every step.
    """
    acc = np.empty((len(block), p - 1), dtype=np.int64)
    acc[:] = block[:, -1:]
    bound = p - 1  # acc <= bound entrywise
    for i in range(block.shape[1] - 2, -1, -1):  # in place: acc = acc y + b_i
        if (bound + 1) * (p - 1) > _INT64_MAX:
            np.remainder(acc, p, out=acc)
            bound = p - 1
        np.multiply(acc, ys, out=acc)
        np.add(acc, block[:, i:i + 1], out=acc)
        bound = (bound + 1) * (p - 1)
    np.remainder(acc, p, out=acc)
    return np.take(roots, acc).sum(axis=1)


def _inverses(xs: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p, the inverse of each unit x, by square and multiply."""
    inv = np.ones_like(xs)
    base = xs % p
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    return inv


def _difference_table(p: int, f: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of g_x mod p (row x - 2) and T(g_x), for x = 2 .. p-1.

    A direct O(p^2) evaluation, with no characters or discrete logs: g_x(y)
    mod p by Horner over blocks of x rows against one table of p-th roots of
    unity, reducing mod p only when int64 could overflow.

    Only one row of each inverse pair is evaluated.  Substituting y -> x y
    gives g_{1/x}(x y) = f(y) - f(x y) = -g_x(y), so T(g_{1/x}) is the
    complex conjugate of T(g_x): the rows with x <= 1/x mod p (the
    self-inverse x = p - 1 among them) are summed and each partner is their
    conjugate.  Since x^i = 1 exactly when x^-i = 1, b_i(1/x) vanishes
    exactly when b_i(x) does, so partners share |T|, effective degree and
    degeneracy; the coefficient rows are still computed for every x.
    Degenerate rows (p divides every coefficient) are set to exactly p - 1,
    with no float summation.  Refused before any work when the (p - 2) p
    evaluations exceed _DIFFERENCE_EVALUATIONS.
    """
    check_difference_budget(p)
    xs = np.arange(2, p, dtype=np.int64)
    coeffs = np.empty((len(xs), len(f.coefficients)), dtype=np.int64)
    xi = np.ones_like(xs)
    for i, a in enumerate(f.coefficients):
        coeffs[:, i] = (a % p) * (xi - 1) % p
        xi = xi * xs % p
    inv = _inverses(xs, p)
    evaluated = xs <= inv
    half = coeffs[evaluated]
    roots = _roots(p)
    ys = np.arange(1, p, dtype=np.int64)
    half_sums = np.empty(len(half), dtype=np.complex128)
    rows = max(1, _DIFFERENCE_BLOCK // (p - 1))
    for lo in range(0, len(half), rows):
        half_sums[lo:lo + rows] = _difference_block_sums(half[lo:lo + rows], p, ys, roots)
    sums = np.empty(len(xs), dtype=np.complex128)
    sums[evaluated] = half_sums
    paired = xs < inv
    sums[inv[paired] - 2] = np.conj(sums[paired])
    sums[~coeffs.any(axis=1)] = p - 1
    return coeffs, sums


def difference_sums(p: int, f: Polynomial) -> np.ndarray:
    """T(g_x) for x = 2 .. p-1, where g_x(y) = f(x y) - f(y)."""
    _check_prime(p)
    return _difference_table(p, f)[1]


def lemma2_defect(t: CharacterTable, f: Polynomial) -> float:
    """Max over all chi mod p of | |S(chi,f)|^2 - (p-1) - sum_x chi(x) T(g_x) |.

    The identity is exact, so the defect is pure floating-point noise
    (~1e-10 for the p used here).
    """
    p = t.q
    _check_prime(p)
    s = weighted_char_sum_all(t, f)
    g = np.zeros(p, dtype=np.complex128)
    g[2:] = difference_sums(p, f)
    rhs = (p - 1) + t.sums_over_residues(g)
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


@dataclass(frozen=True)
class WeilAudit:
    """Classification of all difference-polynomial sums for one (p, f)."""

    p: int
    degree: int
    entries: tuple[CompletedSumAudit, ...]
    degenerate_x: tuple[int, ...]
    bounds_ok: bool           # every non-degenerate |T| <= eff_deg sqrt(p) + 1
    degenerate_values_ok: bool  # every degenerate T == p - 1 exactly
    degenerate_count_ok: bool   # at most degree - 1 degenerate x
    degenerate_x_bound_ok: bool  # every degenerate x >= p^(1/degree)

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

    The sums come from the shared difference table, where T(g_{1/x}) is the
    conjugate of T(g_x): the entries of x and 1/x mod p carry the same
    |T|, effective degree, bound verdict and degeneracy.  The classification
    reads every row, so the audit covers all x in 2..p-1.

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
    scaled = abs_sums / p ** (1.0 - 1.0 / k)
    entries = tuple(
        CompletedSumAudit(x, True, None, a, None, True, s) if d
        else CompletedSumAudit(x, False, e, a, b, ok, s)
        for x, d, e, a, b, ok, s in zip(range(2, p), degenerate.tolist(), eff_deg.tolist(),
                                         abs_sums.tolist(), bounds.tolist(), within.tolist(),
                                         scaled.tolist())
    )
    degenerate_x = tuple((np.flatnonzero(degenerate) + 2).tolist())
    return WeilAudit(
        p=p,
        degree=k,
        entries=entries,
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
