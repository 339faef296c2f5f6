"""Complete exponential sums of polynomials mod p and character-twisted sums.

The central identity: for f with integer coefficients and S(chi, f) =
sum_{x=1}^{p-1} chi(x) e(f(x)/p),

    |S(chi, f)|^2 = (p - 1) + sum_{x=2}^{p-1} chi(x) T(g_x),

where g_x(y) = f(x y) - f(y) has coefficients b_i = a_i (x^i - 1) and
T(h) = sum_{y=1}^{p-1} e(h(y)/p).  It follows from substituting y -> x y in
one factor and holds for every character, principal included.  The module
evaluates both sides exactly enough to use the identity as a cross-check, and
audits each completed sum against the square-root cancellation bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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

# Measured on a 2-core x86-64 host: 21-29 ns per (x, y) evaluation for a cubic
# f at p = 2203 .. 10007 (36 ns at degree 6), so 4e8 evaluations, p near
# 2e4, is about 10 s.
_DIFFERENCE_EVALUATIONS = 4 * 10**8


def _difference_block_sums(block: np.ndarray, p: int, ys: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """T(g_x) for the rows of a block of difference coefficients, by Horner
    over y = 1 .. p-1."""
    acc = np.empty((len(block), p - 1), dtype=np.int64)
    acc[:] = block[:, -1:]
    for i in range(block.shape[1] - 2, -1, -1):  # in place: acc = (acc y + b_i) mod p
        np.multiply(acc, ys, out=acc)
        np.add(acc, block[:, i:i + 1], out=acc)
        np.remainder(acc, p, out=acc)
    return np.take(roots, acc).sum(axis=1)


def _difference_table(p: int, f: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of g_x mod p (row x - 2) and T(g_x), for x = 2 .. p-1.

    A direct O(p^2) evaluation: g_x(y) mod p by Horner over blocks of x rows
    against one table of p-th roots of unity.  Degenerate rows (p divides
    every coefficient) are set to exactly p - 1, with no float summation.
    Refused before any work when the (p - 2) p evaluations exceed
    _DIFFERENCE_EVALUATIONS.
    """
    need = (p - 2) * p
    if need > _DIFFERENCE_EVALUATIONS:
        raise ValueError(
            f"the difference sums mod {p} need about {need:.1e} evaluations, "
            f"over their budget of {_DIFFERENCE_EVALUATIONS:.1e}"
        )
    xs = np.arange(2, p, dtype=np.int64)
    coeffs = np.empty((len(xs), len(f.coefficients)), dtype=np.int64)
    xi = np.ones_like(xs)
    for i, a in enumerate(f.coefficients):
        coeffs[:, i] = (a % p) * (xi - 1) % p
        xi = xi * xs % p
    roots = _roots(p)
    ys = np.arange(1, p, dtype=np.int64)
    sums = np.empty(len(xs), dtype=np.complex128)
    rows = max(1, _DIFFERENCE_BLOCK // (p - 1))
    for lo in range(0, len(xs), rows):
        sums[lo:lo + rows] = _difference_block_sums(coeffs[lo:lo + rows], p, ys, roots)
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


@dataclass(frozen=True)
class CompletedSumAudit:
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
    scale = p ** (1.0 - 1.0 / k)
    x_floor = p ** (1.0 / k)
    entries = []
    degenerate_x = []
    bounds_ok = True
    degenerate_values_ok = True
    coeffs, sums = _difference_table(p, f)
    for x, row, val in zip(range(2, p), coeffs.tolist(), sums.tolist()):
        abs_sum = abs(val)
        if not any(row):
            degenerate_x.append(x)
            if val != complex(p - 1):
                degenerate_values_ok = False
            entries.append(CompletedSumAudit(x, True, None, abs_sum, None, True, abs_sum / scale))
            continue
        eff_deg = max(i for i, b in enumerate(row) if b != 0)
        bound = eff_deg * math.sqrt(p) + 1.0
        ok = abs_sum <= bound
        bounds_ok = bounds_ok and ok
        entries.append(CompletedSumAudit(x, False, eff_deg, abs_sum, bound, ok, abs_sum / scale))
    return WeilAudit(
        p=p,
        degree=k,
        entries=tuple(entries),
        degenerate_x=tuple(degenerate_x),
        bounds_ok=bounds_ok,
        degenerate_values_ok=degenerate_values_ok,
        degenerate_count_ok=len(degenerate_x) <= k - 1,
        degenerate_x_bound_ok=all(x >= x_floor for x in degenerate_x),
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
