"""Real special functions and the exact rational shift parameter.

The two analytic workhorses are the digamma function psi(x) and the Hurwitz
zeta function zeta(s, alpha), both evaluated by shifting the argument into the
asymptotic regime and applying a fixed-order expansion with Bernoulli numbers
through B14.  Both take a float or a numpy array (elementwise, one
implementation for both) and are deterministic; accuracy is ~1e-13 absolute
for psi and ~1e-12 relative for zeta on the domains used here.  A float
argument gives a float result.

The digamma kernel is the shift-to-asymptotic method (J. M. Bernardo,
Algorithm AS 103, Appl. Statist. 25, 1976) over arrays: each entry's number
of unit steps n = ceil(10 - x) is computed once, the recurrence terms
1/(x + i) are subtracted in place, over the whole array for the steps every
entry needs and under a mask for the rest, and the series is a Horner
evaluation in place.  An entry's arithmetic never depends on the other
entries, so an array call equals the entry-by-entry calls bit for bit.  The
Hurwitz zeta evaluates its (at most ten) direct terms as one (n, alpha)
array and adds its rows in order, smallest terms first, before adding the
Euler-Maclaurin tail; it too works on a flat array whatever the argument's
shape, so it is elementwise bit for bit as well.

ShiftParam carries the series shift a as an exact reduced fraction so that
floor quantities like [a/d] never go through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_14 as exact ratios.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# Coefficients B_{2k} / (2k) of x^{-2k} in the digamma asymptotic series.
_PSI_COEFFS = tuple(b / (2.0 * (k + 1)) for k, b in enumerate(_B2K))

_SHIFT_CUTOFF = 10.0  # asymptotic series kicks in at x >= 10


def _positive_array(x, requirement: str) -> np.ndarray:
    """x as a float64 array; a non-finite or nonpositive entry raises ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise ValueError(f"{requirement}, got {arr[bad].flat[0]}")
    return arr


def _result(arr: np.ndarray):
    return float(arr) if arr.ndim == 0 else arr


def digamma(x):
    """psi(x) for real x > 0 (float or array), absolute error below 1e-13.

    Small arguments are shifted up with psi(x) = psi(x+1) - 1/x: an entry
    takes n = ceil(10 - x) unit steps (0 from 10 on), so psi(x) =
    psi(x + n) - sum_{i<n} 1/(x + i), and ln y - 1/(2y) - sum B_{2k}/(2k y^{2k})
    (k <= 7) applies at y = x + n >= 10; the first omitted term is below
    5e-17 there.  The steps all entries share run unmasked, the rest masked.
    """
    x = _positive_array(x, "digamma requires finite x > 0")
    shape = x.shape
    x = x.reshape(-1)  # 1-D, so the in-place steps below also run on a float
    steps = np.maximum(np.ceil(_SHIFT_CUTOFF - x), 0.0)
    shared, rounds = (int(steps.min()), int(steps.max())) if steps.size else (0, 0)
    shift = np.zeros_like(x)
    term = np.empty_like(x)
    for i in range(rounds):  # at most 10, since x > 0
        np.add(x, i, out=term)
        np.reciprocal(term, out=term)
        np.subtract(shift, term, out=shift, where=True if i < shared else steps > i)
    y = x + steps
    w = y * y
    np.reciprocal(w, out=w)
    series = np.full_like(x, _PSI_COEFFS[-1])
    for c in reversed(_PSI_COEFFS[:-1]):
        series *= w
        series += c
    series *= w
    out = np.log(y)
    out += shift
    np.reciprocal(y, out=y)
    y *= 0.5
    out -= y
    out -= series
    return _result(out.reshape(shape))


def hurwitz_zeta(s: float, alpha):
    """zeta(s, alpha) = sum_{n>=0} (n + alpha)^(-s) for s > 1, alpha > 0
    (alpha a float or array).

    Terms with n + alpha < 10 are summed directly, as one (n, alpha) array
    summed over n from the smallest terms; the remainder is the
    Euler-Maclaurin tail at c = M + alpha:

        c^(1-s)/(s-1) + c^(-s)/2
          + sum_{j=1..7} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * c^(1-s-2j).

    Relative error stays below 1e-12 for the s used here (s = 2; any fixed
    s in (1, ~30] is safe at this cutoff).
    """
    s = float(s)
    if not math.isfinite(s) or s <= 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got {s}")
    alpha = _positive_array(alpha, "hurwitz_zeta requires alpha > 0")
    shape = alpha.shape
    alpha = alpha.reshape(-1)  # 1-D, so a float takes the array arithmetic too
    m = np.maximum(0.0, np.ceil(_SHIFT_CUTOFF - alpha))
    # rows n = M-1 .. 0 (largest n, smallest terms, first) against every alpha,
    # added row by row: a reduction over the rows would sum a single column
    # pairwise and several columns in order
    n = np.arange(m.max(initial=0.0) - 1.0, -1.0, -1.0)[:, None]
    direct = np.zeros_like(alpha)
    for row in np.where(n < m, (n + alpha) ** (-s), 0.0):
        direct += row
    c = m + alpha
    tail = c ** (1.0 - s) / (s - 1.0) + 0.5 * c ** (-s)
    rising = s  # s (s+1) ... (s + 2j - 2), grown incrementally
    cpow = c ** (-1.0 - s)  # c^{1 - s - 2j}, grown by c^{-2} per step
    inv_c2 = 1.0 / (c * c)
    for j, b in enumerate(_B2K, start=1):
        tail += b / math.factorial(2 * j) * rising * cpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        cpow = cpow * inv_c2
    return _result((direct + tail).reshape(shape))


def elementwise_batch(fn, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """fn(x) for each array x of arrays, from one call of fn on all their
    entries: the concatenated entries are split back and reshaped to each
    array's shape, and a single array is passed as it is, with no copy.
    For digamma and hurwitz_zeta, which are elementwise bit for bit, each
    piece equals fn(x) exactly, while the call's fixed cost is paid once."""
    if len(arrays) <= 1:
        return [fn(x) for x in arrays]
    flat = fn(np.concatenate([x.ravel() for x in arrays]))
    pieces = np.split(flat, np.cumsum([x.size for x in arrays[:-1]]))
    return [piece.reshape(x.shape) for piece, x in zip(pieces, arrays)]


def harmonic(n: int) -> float:
    """H_n = sum_{l=1..n} 1/l, with H_0 = 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"harmonic expects an integer n >= 0, got {n!r}")
    return math.fsum(1.0 / l for l in range(1, n + 1))


@dataclass(frozen=True)
class ShiftParam:
    """Series shift a as an exact nonnegative rational numerator/denominator."""

    numerator: int
    denominator: int = 1

    def __post_init__(self) -> None:
        num, den = self.numerator, self.denominator
        if not isinstance(num, int) or not isinstance(den, int):
            raise ValueError("ShiftParam needs integer numerator and denominator")
        if den == 0:
            raise ValueError("ShiftParam denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise ValueError(f"shift must be >= 0, got {num}/{den}")
        g = math.gcd(num, den)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", den // g)

    @classmethod
    def of(cls, value) -> "ShiftParam":
        """Coerce an int, string ("7/2" or "3.5"), Fraction, or ShiftParam.

        Decimal strings are promoted exactly (3.5 -> 7/2); binary floats are
        rejected so that no silently-inexact shifts enter the exact layer.
        """
        if isinstance(value, ShiftParam):
            return value
        if isinstance(value, bool):
            raise ValueError(f"cannot interpret {value!r} as a shift")
        if isinstance(value, int):
            return cls(value, 1)
        if isinstance(value, Fraction):
            return cls(value.numerator, value.denominator)
        if isinstance(value, str):
            try:
                frac = Fraction(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse shift {value!r}") from exc
            return cls(frac.numerator, frac.denominator)
        raise ValueError(f"cannot interpret {value!r} as a shift (floats must be strings)")

    @property
    def real_value(self) -> float:
        return self.numerator / self.denominator

    @property
    def is_integer(self) -> bool:
        return self.denominator == 1

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def div_value(self, d: int) -> float:
        """a/d as a float with a single rounding."""
        return self.numerator / (self.denominator * d)

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


def floor_ratio(a: ShiftParam, d: int) -> int:
    """Exact integer floor of a/d for d >= 1."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"floor_ratio expects an integer d >= 1, got {d!r}")
    return a.numerator // (a.denominator * d)
