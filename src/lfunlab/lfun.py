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
B_2 .. B_14 and no direct terms.  closed_vectors computes the closed pieces
L(1, chi, a), L(1, chi) and the shift tail (a > 0) from one digamma call
and one batched transform of each distinct grid.  route_vectors,
tail_vector and meanval.cross_terms read it, so the tail has one
implementation and verify --target recombination reads one batch.
closed_vectors_batch and route_vectors_batch take several (table, shift)
jobs, as a sweep's batch of moduli does (meanval._batch_reports): the grids
of all jobs come from one digamma call, and each table transforms its own
grids; closed_vectors and route_vectors are batches of one, passed to
digamma as they are.  digamma is elementwise bit for bit and a batched row
is bit-identical to a call of its own, so the sharing changes no number:
route_agreement still compares closed_direct's row of
psi((u + a)/q) with closed_lemma1's L(1, chi) - a * tail, whose pieces are
rows of their own.

Each route is computed for all characters at once (l1a_vector,
truncated_vector, dispatched by route_vectors), by one transform over the
unit group, O(q log q) per modulus.  The closed routes evaluate psi and
zeta(2, .) (which take arrays) only at the phi(q) units, in the grid order
the transform reads (CharacterTable.sums_over_units); the truncated route
folds its partial sum onto all q residues and gathers the units from it
(CharacterTable.sums_over_residues).  The per-character functions
(evaluate, l1_chi, shifted_tail_sum, l1_chi_a, l1_chi_a_truncated) validate
the index and read one entry of those vectors; they are views, not a second
implementation, so the three routes stay the only independent evaluations.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
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
    return closed_vectors(t, a, ("tail",))["tail"]


def l1a_vector(t: CharacterTable, a: ShiftParam, method: str = "closed_direct") -> np.ndarray:
    """L(1, chi, a) for every character by a closed route (principal slot 0)."""
    if method not in ("closed_direct", "closed_lemma1"):
        raise ValueError(f"unknown closed method {method!r}; expected closed_direct or closed_lemma1")
    return route_vectors(t, a, (method,))[method][0]


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


def closed_vectors(t: CharacterTable, a: ShiftParam, parts: Collection[str]) -> dict[str, np.ndarray]:
    """The closed pieces for every character, {part: new array}, principal
    slot as the transform leaves it: "l1a" = -T(psi_a)/q, L(1, chi, a) by
    closed_direct; "l1" = -T(psi_0)/q, L(1, chi); "tail" (a > 0 only) =
    T(psi_a - psi_0)/(a q), sum_n chi(n)/(n (n + a)); with T the character
    transform and psi_s the grid psi((u + s)/q) at the units u in grid order
    (t._units; at q = 1 the unit is residue 0 and its slot holds 0).  A
    batch of one closed_vectors_batch job."""
    return closed_vectors_batch([(t, a, parts)])[0]


def closed_vectors_batch(jobs: Sequence[tuple[CharacterTable, ShiftParam, Collection[str]]]
                         ) -> list[dict[str, np.ndarray]]:
    """closed_vectors for each (table, shift, parts) job.  The psi grids of
    every job come from one digamma call on the concatenated arguments (a
    single job's are passed as they are), each entry bit-identical to a call
    of its own; then each table transforms its distinct grids once, in one
    batched call, as a job of its own would."""
    plans = []
    for t, a, parts in jobs:
        s = float(a)
        if "tail" in parts and not s:
            raise ValueError("the digamma tail needs a > 0; tail_vector takes a = 0")
        grid_of = {"l1a": s, "l1": 0.0, "tail": "tail"}  # psi at a shift, keyed by the shift, or "tail"
        keys = list(dict.fromkeys(grid_of[p] for p in ("l1a", "l1", "tail") if p in parts))
        shifts = (s, 0.0) if "tail" in keys else tuple(keys)  # at a = 0 "l1a" and "l1" share one grid
        plans.append((s, grid_of, keys, shifts))
    # the arguments are freed when the call returns; at q = 1 there are none
    values = elementwise_batch(digamma, [(t._units[int(t.q == 1):] + np.array(shifts)[:, None]) / t.q
                                         for (t, _, _), (_, _, _, shifts) in zip(jobs, plans)])
    out = []
    for (t, _, parts), (s, grid_of, keys, shifts), value in zip(jobs, plans, values):
        q = t.q
        psi = dict(zip(shifts, value if q > 1 else np.zeros((len(shifts), 1))))
        grids = [psi[s] - psi[0.0] if key == "tail" else psi[key] for key in keys]
        sums = dict(zip(keys, t.sums_over_units(np.stack(grids))))
        out.append({p: sums["tail"] / (s * q) if p == "tail" else -sums[grid_of[p]] / q for p in parts})
    return out


def route_vectors(t: CharacterTable, a: ShiftParam, methods: Sequence[str],
                  n_terms: int | None = None) -> dict[str, tuple[np.ndarray, float]]:
    """L(1, chi, a) for every character by each named route, with the route's
    error bound: {method: (values, error_bound)}, principal slot 0.  A batch
    of one route_vectors_batch job."""
    return route_vectors_batch([(t, a)], methods, n_terms)[0]


def route_vectors_batch(jobs: Sequence[tuple[CharacterTable, ShiftParam]], methods: Sequence[str],
                        n_terms: int | None = None) -> list[dict[str, tuple[np.ndarray, float]]]:
    """route_vectors for each (table, shift) job.

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
    parts = {"l1a"} if "closed_direct" in methods else set()
    tail = set()
    if "closed_lemma1" in methods:
        parts, tail = parts | {"l1"}, {"tail"}  # the a * tail term is exactly 0 at a = 0
    shifts = [float(a) for _, a in jobs]
    pieces = (closed_vectors_batch([(t, a, parts | tail if s else parts) for (t, a), s in zip(jobs, shifts)])
              if parts else [{}] * len(jobs))
    out = []
    for (t, a), s, piece in zip(jobs, shifts, pieces):
        vecs = {}
        for method in methods:
            bound = _CLOSED_ERROR_BUDGET
            if method == "closed_direct":
                vals = piece["l1a"]
            elif method == "closed_lemma1":
                vals = piece["l1"] - s * piece["tail"] if s else piece["l1"]
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
    """L(1, chi_j, a) by the named route: entry j of its route_vectors vector."""
    require_nonprincipal(t, j)
    a = ShiftParam.of(a)
    vals, bound = route_vectors(t, a, (method,), n_terms)[method]
    return ShiftedLValue(t.q, j, a, method, complex(vals[j]), bound)
