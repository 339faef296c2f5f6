"""Shifted Dirichlet L-series at s = 1 by three independent routes.

For a non-principal character chi mod q and a rational shift a >= 0 (a
specfun.ShiftParam, whose float(a) each function reads once per job), the
series L(1, chi, a) = sum_{n>=1} chi(n) / (n + a) converges conditionally
and has the closed form -(1/q) sum_r chi(r) psi((r + a)/q): splitting n
into residue classes turns the series into Hurwitz zetas whose pole
cancels against sum_r chi(r) = 0, leaving digamma values.

Routes:
  closed_direct  -- the digamma closed form at shift a;
  closed_lemma1  -- L(1, chi) minus a times the absolutely convergent tail
                    sum_n chi(n) / (n (n + a)), each piece in closed form;
  truncated      -- a partial sum to N terms with a rigorous tail bound
                    2 q / (N + 1) from Abel summation (period sums of chi
                    vanish, so partial character sums are bounded by q).

The truncated route folds the partial sum onto the q residues.  The first
24 periods (n <= 24 q) are summed term by term.  The later periods of each
residue class, 1/(q (k + beta)) for k = 24 .. N/q - 1 with beta = (c + a)/q,
are summed in closed form by two-point Euler-Maclaurin with B_2 .. B_10,
so the cost is O(24 q) for any N and the value is still the partial sum
to N.  The terms are completely monotone, so each weight's remainder is at
most the first omitted term |B_12|/(12q) (24 + beta)^-12 (DLMF 2.10(i)); the
route's bound is 2q/(N+1) plus q times that (at most 5.8e-19).

The closed routes share the digamma backend and compute the same
expression: closed_lemma1's -T(psi_0)/q - a T(psi_a - psi_0)/(a q) is
closed_direct's -T(psi_a)/q, with T the character transform and psi_a the
grid psi((u + a)/q) at the units u in grid order, so their gap measures
transform rounding only.  The truncated route shares nothing with them and
anchors the tolerance chain.  Caveat: digamma's asymptotic series is the
same Euler-Maclaurin expansion of sum 1/(k + x).  The routes stay apart
because this code is separate (its own Bernoulli constants, nothing
imported from specfun) and applies the expansion only at k + beta >= 24
after 24 q direct terms, while digamma shifts its argument to x >= 10, uses
B_2 .. B_14 and no direct terms.  closed_vectors_batch computes the closed
pieces of several (table, shift, lemma1) jobs, such as a sweep's batch of
moduli (meanval._batch_reports): L(1, chi, a) from the grid at a, and for a
lemma1 job also L(1, chi) and the shift tail (a > 0) from the grids at a and
0; the grids of all jobs come from one digamma call, and each table
transforms its rows in one batched call; a caller of one modulus passes one
job.  route_vectors_batch, tail_vector and meanval.cross_terms read it, so
the tail has one implementation and verify --target recombination reads one
batch.  digamma is elementwise bit for bit and a batched row is
bit-identical to a call of its own, so the sharing changes no number:
route_agreement still compares closed_direct's row of psi((u + a)/q) with
closed_lemma1's L(1, chi) - a * tail, whose pieces are rows of their own.

Each route is computed for all characters at once (l1a_vector,
truncated_vector, dispatched by route_vectors_batch), by one transform over
the unit group, O(q log q) per modulus.  The closed routes evaluate psi and
zeta(2, .) (which take arrays) only at the phi(q) units, in the grid order
the transform reads (CharacterTable.sums_over_units); the truncated route
folds its partial sum onto all q residues and gathers the units from it
(CharacterTable.sums_over_residues).  The per-character functions
(evaluate, l1_chi, shifted_tail_sum, l1_chi_a, l1_chi_a_truncated) validate
the index and read one entry of those vectors; they are views, not a second
implementation, so the three routes stay the only independent evaluations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chars import CharacterTable
from .specfun import ShiftParam, digamma, elementwise_batch, hurwitz_zeta

METHODS = ("closed_direct", "closed_lemma1", "truncated")

# Engineering audit of the closed routes: q digamma evaluations, each with
# absolute error < 1e-13, averaged with unit-modulus weights.  Not rigorous,
# unlike the truncated route's bound, but honest for q up to ~1e4.
_CLOSED_ERROR_BUDGET = 1e-11


@dataclass(frozen=True)
class ShiftedLValue:
    """One evaluation of L(1, chi_j, a) with its method and error estimate."""

    q: int
    char_index: int
    a: ShiftParam
    method: str
    value: complex
    error_bound: float


def require_nonprincipal(t: CharacterTable, j: int) -> None:
    """Reject an index outside 0..phi(q)-1 and the principal character."""
    if not 0 <= j < t.phi:
        raise ValueError(f"character index {j} out of range for modulus {t.q}")
    if j == t.principal_index:
        raise ValueError("L(1, chi) requires a non-principal character")


def l1_vector(t: CharacterTable) -> np.ndarray:
    """L(1, chi) for every character as a length-phi(q) array.

    This is the digamma closed form at shift 0.  The principal slot is set
    to 0 (the principal series diverges); callers iterate over
    j != principal_index.
    """
    return l1a_vector(t, ShiftParam(0), "closed_direct")


def tail_vector(t: CharacterTable, a: ShiftParam) -> np.ndarray:
    """sum_n chi(n) / (n (n + a)) for every character (principal slot kept:
    the tail series converges absolutely for every chi)."""
    q = t.q
    if a == 0:
        grid = np.zeros(t.phi)
        first = int(q == 1)  # the unit mod 1 is residue 0, whose weight is 0
        grid[first:] = hurwitz_zeta(2.0, t._units[first:] / q)
        return t.sums_over_units(grid) / (q * q)
    return closed_vectors_batch([(t, a, True)])[0]["tail"]


def l1a_vector(t: CharacterTable, a: ShiftParam, method: str = "closed_direct") -> np.ndarray:
    """L(1, chi, a) for every character by a closed route (principal slot 0)."""
    if method not in ("closed_direct", "closed_lemma1"):
        raise ValueError(f"unknown closed method {method!r}; expected closed_direct or closed_lemma1")
    return route_vectors_batch([(t, a)], (method,))[0][method][0]


# Terms folded per block of the truncated route: blocks of whole periods,
# about 2 MB of float64, keep its memory O(q) rather than O(N).
_FOLD_BLOCK_TERMS = 2**18

# Periods the truncated route sums term by term; later periods are summed in
# closed form.  At k + beta >= 24 the first omitted Euler-Maclaurin term is
# below 5.8e-19 per L-value.
_HEAD_PERIODS = 24

# B_2, B_4, ..., B_10 of the Euler-Maclaurin corrections, and |B_12|, whose
# term is the first one omitted.
_EM_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)
_EM_OMITTED_B12 = 691.0 / 2730.0


def _em_corrections(x: np.ndarray) -> np.ndarray:
    """sum_{j=1}^{5} B_2j/(2j) x^-2j, by Horner in x^-2."""
    inv2 = 1.0 / (x * x)
    acc = np.zeros_like(x)
    for j, b in reversed(tuple(enumerate(_EM_BERNOULLI, start=1))):
        acc += b / (2 * j)
        acc *= inv2
    return acc


def _far_periods(q: int, a: ShiftParam, periods: int) -> np.ndarray:
    """sum_{k=H}^{periods-1} 1/(kq + i + 1 + a) for each row i = 0..q-1, where
    H = _HEAD_PERIODS < periods.

    With beta = (i + 1 + a)/q the terms are f(k) = 1/(q (k + beta)); two-point
    Euler-Maclaurin from lo = H + beta to hi = periods - 1 + beta gives
    (1/q)[ln(hi/lo) + (1/lo + 1/hi)/2 - sum_{j<=5} B_2j/(2j) (hi^-2j - lo^-2j)],
    with ln(hi/lo) taken as log1p of the exact integer hi - lo over lo and
    each correction sum evaluated by Horner (_em_corrections).
    """
    span = periods - 1 - _HEAD_PERIODS
    lo = _HEAD_PERIODS + (np.arange(1, q + 1) + float(a)) / q
    hi = lo + span
    total = np.log1p(span / lo) + 0.5 * (1.0 / lo + 1.0 / hi)
    total -= _em_corrections(hi) - _em_corrections(lo)
    return total / q


def _far_remainder(q: int, a: ShiftParam, periods: int) -> float:
    """Bound on the Euler-Maclaurin remainder of the whole character sum.

    The even derivatives of f(k) = 1/(q (k + beta)) are all positive, so the
    remainder of each weight is at most the first omitted term,
    |B_12|/(12q) lo^-12 (DLMF 2.10(i)); q weights of modulus-one characters
    multiply that by q.  0 when every period is summed directly.
    """
    if periods <= _HEAD_PERIODS:
        return 0.0
    lo_min = _HEAD_PERIODS + (1 + float(a)) / q
    return _EM_OMITTED_B12 / 12.0 * lo_min ** -12


def _folded_weights(q: int, a: ShiftParam, n_terms: int) -> np.ndarray:
    """W[c] = sum over n <= N with n == c (mod q) of 1/(n + a), c = 0..q-1.

    N is a whole number of periods.  Period k covers n = kq+1 .. kq+q, whose
    residues are 1, ..., q-1, 0, so a block of periods laid out as rows of q
    terms sums column-wise onto the residues.  The first _HEAD_PERIODS
    periods are folded term by term, the rest added by _far_periods.
    """
    periods = n_terms // q
    head = min(periods, _HEAD_PERIODS)
    rows = max(1, _FOLD_BLOCK_TERMS // q)
    acc = np.zeros(q)
    s = float(a)
    for k in range(0, head, rows):
        # n < 2^53, so the float64 range holds each n exactly
        terms = np.arange(k * q + 1, min(k + rows, head) * q + 1, dtype=np.float64)
        terms += s
        np.reciprocal(terms, out=terms)
        acc += terms.reshape(-1, q).sum(axis=0)
    if periods > head:
        acc += _far_periods(q, a, periods)
    return np.roll(acc, 1)


def truncated_vector(t: CharacterTable, a: ShiftParam, n_terms: int) -> tuple[np.ndarray, float]:
    """Partial sums sum_{n<=N} chi(n)/(n+a) for every character, with the
    shared rigorous bound 2q/(N+1) on the series tail plus the
    Euler-Maclaurin remainder of the far periods."""
    q = t.q
    if n_terms % q != 0 or n_terms < 10 * q:
        raise ValueError(f"truncation length must be a multiple of q and >= 10q, got N={n_terms}, q={q}")
    bound = 2.0 * q / (n_terms + 1) + _far_remainder(q, a, n_terms // q)
    return t.sums_over_residues(_folded_weights(q, a, n_terms)), bound


def default_truncation(q: int) -> int:
    """Default N for the truncated route: 1e4 periods."""
    return 10**4 * q


def closed_vectors_batch(jobs: Sequence[tuple[CharacterTable, ShiftParam, bool]]) -> list[dict[str, np.ndarray]]:
    """The closed pieces for every character of each (table, shift, lemma1)
    job, {piece: new array}, principal slot as the transform leaves it:
    "l1a" = -T(psi_a)/q, L(1, chi, a) by closed_direct; with lemma1 also
    "l1" = -T(psi_0)/q, L(1, chi), and at a > 0 "tail" = T(psi_a - psi_0)/(a q),
    sum_n chi(n)/(n (n + a)); with T the character transform and psi_s the
    grid psi((u + s)/q) at the units u in grid order (t._units; at q = 1 the
    unit is residue 0 and its slot holds 0).

    A job evaluates psi_a and transforms one row, which at a = 0 serves
    "l1" too; a lemma1 job at a > 0 also evaluates psi_0 and transforms the
    three rows psi_a, psi_0 and psi_a - psi_0.  The grids of every job come
    from one digamma call on the concatenated arguments (a single job's are
    passed as they are), each entry bit-identical to a call of its own, and
    each table transforms its rows in one batched call."""
    floats = [float(a) for _, a, _ in jobs]
    shifts = [(s, 0.0) if lemma1 and s else (s,) for s, (_, _, lemma1) in zip(floats, jobs)]
    # the arguments are freed when the call returns; at q = 1 there are none
    values = elementwise_batch(digamma, [(t._units[int(t.q == 1):] + np.array(s)[:, None]) / t.q
                                         for (t, _, _), s in zip(jobs, shifts)])
    out = []
    for (t, _, lemma1), s, psi in zip(jobs, shifts, values):
        q = t.q
        psi = psi if q > 1 else np.zeros((len(s), 1))
        if len(s) == 2:
            l1a, l1, tail = t.sums_over_units(np.vstack([psi, psi[0] - psi[1]]))
            out.append({"l1a": -l1a / q, "l1": -l1 / q, "tail": tail / (s[0] * q)})
        else:
            l1a, = t.sums_over_units(psi)
            out.append({"l1a": -l1a / q, "l1": -l1a / q} if lemma1 else {"l1a": -l1a / q})
    return out


def route_vectors_batch(jobs: Sequence[tuple[CharacterTable, ShiftParam]], methods: Sequence[str],
                        n_terms: int | None = None) -> list[dict[str, tuple[np.ndarray, float]]]:
    """L(1, chi, a) for every character of each (table, shift) job by each
    named route, with the route's error bound: {method: (values,
    error_bound)}, principal slot 0.

    The closed routes requested read one closed_vectors_batch call for all
    jobs, so every job's psi grids come from one digamma call: closed_direct
    is "l1a", closed_lemma1 is "l1" - a * "tail".  The truncated route is
    the oracle and keeps its own transform per job.  n_terms is the
    truncated route's N (default_truncation(q) when None); the closed routes
    ignore it.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    pieces = (closed_vectors_batch([(t, a, "closed_lemma1" in methods) for t, a in jobs])
              if {"closed_direct", "closed_lemma1"} & set(methods) else [{}] * len(jobs))
    out = []
    for (t, a), piece in zip(jobs, pieces):
        vecs = {}
        for method in methods:
            bound = _CLOSED_ERROR_BUDGET
            if method == "closed_direct":
                vals = piece["l1a"]
            elif method == "closed_lemma1":  # the a * tail term is exactly 0 at a = 0
                vals = piece["l1"] - float(a) * piece["tail"] if "tail" in piece else piece["l1"]
            else:
                vals, bound = truncated_vector(t, a, default_truncation(t.q) if n_terms is None else n_terms)
            vals[t.principal_index] = 0.0
            vecs[method] = (vals, bound)
        out.append(vecs)
    return out


def l1_chi(t: CharacterTable, j: int) -> complex:
    """L(1, chi_j) = -(1/q) sum_{r=1}^{q-1} chi_j(r) psi(r/q): entry j of l1_vector."""
    require_nonprincipal(t, j)
    return complex(l1_vector(t)[j])


def shifted_tail_sum(t: CharacterTable, j: int, a) -> complex:
    """sum_{n>=1} chi_j(n) / (n (n + a)) in closed form: entry j of tail_vector.

    For a > 0 this is (1/(a q)) sum_r chi(r) [psi((r+a)/q) - psi(r/q)];
    at a = 0 it degenerates to (1/q^2) sum_r chi(r) zeta(2, r/q).
    """
    require_nonprincipal(t, j)
    return complex(tail_vector(t, ShiftParam.of(a))[j])


def l1_chi_a(t: CharacterTable, j: int, a, method: str = "closed_direct") -> ShiftedLValue:
    """L(1, chi_j, a) by one of the two closed routes: entry j of l1a_vector.

    a = 0 reduces to L(1, chi_j) on either route.
    """
    require_nonprincipal(t, j)
    a = ShiftParam.of(a)
    return ShiftedLValue(t.q, j, a, method, complex(l1a_vector(t, a, method)[j]), _CLOSED_ERROR_BUDGET)


def l1_chi_a_truncated(t: CharacterTable, j: int, a, n_terms: int | None = None) -> ShiftedLValue:
    """Partial sum sum_{n<=N} chi_j(n)/(n+a) with rigorous tail bound: entry
    j of truncated_vector.

    N must be a multiple of q (so the cut falls on a period boundary) and at
    least 10q.  The first 24 periods are summed term by term and the later
    ones per residue class by Euler-Maclaurin through B_10, so the work is
    O(24 q) for any N.  The bound 2q/(N+1) comes from Abel summation against
    the partial character sums, which are bounded by q since full periods
    cancel; the Euler-Maclaurin remainder, q |B_12|/(12q) (24 + (1 + a)/q)^-12,
    is added to it.
    """
    return evaluate(t, j, a, "truncated", n_terms)


def evaluate(t: CharacterTable, j: int, a, method: str, n_terms: int | None = None) -> ShiftedLValue:
    """L(1, chi_j, a) by the named route: entry j of its route_vectors_batch vector."""
    require_nonprincipal(t, j)
    a = ShiftParam.of(a)
    vals, bound = route_vectors_batch([(t, a)], (method,), n_terms)[0][method]
    return ShiftedLValue(t.q, j, a, method, complex(vals[j]), bound)
