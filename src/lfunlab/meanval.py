"""Second moments of shifted L-values over non-principal characters.

Four target statistics, each paired with a closed-form main term and, where
one exists, an independent diagonal-class prediction:

  lemma4  sum_{chi != chi0} chi(a) |L(1,chi)|^2
  eq1     sum_{chi != chi0} |L(1,chi,a)|^2
  thm1    sum_{chi != chi0} chi(k) |L(1,chi,a)|^2
  thm2    sum_{chi != chi0} |S(chi,f)|^2 |L(1,chi,a)|^2   (S over a prime p)

The exact layer (character sums, the thm2 decomposition through the
difference-polynomial identity, the cross-term recombination) is asserted in
tests; main-term agreement is reported, never asserted, because two of the
published main terms show constant-level tension with the direct computation
(see the flags carried on reports).  Residual sweeps fit log |residual|
against log q so the decay exponent lands in the output rather than in a
hand-waved tolerance.

A sweep takes the main terms of all its queries from one _main_terms call,
and the statistics from _batch_reports in batches of consecutive moduli that
only the psi grids bound; build_report takes both steps on one query.
thm1_lhs and thm2_lhs_direct return a report's lhs; cross_terms takes its
recombination sums and its lhs from one _statistics call.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import chars, lfun
from .arith import Factorization, euler_phi, factorize, is_prime
from .cache import LVEC_ROUTES, ReportCache
from .chars import CharacterTable
from .expsum import Polynomial, difference_sums, sample_polynomial, weighted_char_sum_all
from .specfun import ShiftParam, digamma, elementwise_batch, harmonic, hurwitz_zeta

log = logging.getLogger("lfunlab")

TARGETS = ("lemma4", "eq1", "thm1", "thm2")

_ZETA2 = math.pi * math.pi / 6.0

# Divisor-sum reading for the thm2 main term: the statement mixes the sweep
# modulus q into a theorem about a prime p, so d runs over {1, p}.  Recorded
# on every thm2 report.
THM2_DIVISOR_NOTE = "divisor_sum_over_d|p"

TENSION_FLAG = "main_term_tension"

# Largest shift of eq1, thm1 and thm2, whose main terms sum H_[a/d] term by
# term (specfun.harmonic) over the divisors d | q: at a = 10^5 the slowest
# (eq1 at q = 30030, thm1 at q = 15015, k = 2) take 36 ms on a 2-core x86-64
# host, and H_n grows linearly, 69 ms at n = 10^6 (about 70 s at 10^9).
_MAX_SHIFT = 10**5


def _check_parameters(target: str, a, k: int | None, f: Polynomial | None, method: str,
                      degree: int | None = None) -> ShiftParam:
    """The shift a, coerced, or ValueError unless the rules that do not read
    the modulus hold: a known target and method; lemma4's weight an integer
    >= 2, else 1 <= a <= _MAX_SHIFT; an integer thm1 k >= 2; a thm2 f or
    degree >= 1."""
    a = ShiftParam.of(a)
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    if method not in lfun.METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {lfun.METHODS}")
    if target == "lemma4":
        if a.denominator != 1 or a.numerator < 2:
            raise ValueError(f"lemma4 weight must be an integer >= 2, got a={a}")
    elif a.numerator < a.denominator:
        raise ValueError(f"shift must satisfy a >= 1, got a={a}")
    elif a > _MAX_SHIFT:
        raise ValueError(f"shift must satisfy a <= {_MAX_SHIFT}, got a={a}")
    if target == "thm1" and (not isinstance(k, int) or isinstance(k, bool) or k < 2):
        raise ValueError(f"thm1 weight k must be an integer >= 2, got {k!r}")
    if target == "thm2" and f is None and (degree is None or degree < 1):
        raise ValueError("thm2 requires a polynomial" if degree is None else f"degree must be >= 1, got {degree}")
    return a


def _check_modulus(target: str, q, a: ShiftParam, k: int | None, f: Polynomial | None) -> None:
    """ValueError unless q suits parameters _check_parameters accepted: q >= 3;
    gcd(a, q) = 1 for lemma4, gcd(k, q) = 1 for thm1; for thm2, q prime, f
    (None: sampled later) not vanishing mod q and an integer a coprime to q."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 3:
        raise ValueError(f"modulus must be an integer >= 3, got {q!r}")
    if target == "lemma4" and math.gcd(a.numerator, q) != 1:
        raise ValueError(f"lemma4 weight a={a} must be coprime to q={q}")
    if target == "thm1" and math.gcd(k, q) != 1:
        raise ValueError(f"thm1 weight k={k} must be coprime to q={q}")
    if target == "thm2":
        if not is_prime(q):
            raise ValueError(f"thm2 modulus must be prime, got {q}")
        if f is not None and not f.coprime_to(q):
            raise ValueError(f"p={q} divides every coefficient of {f}")
        if a.denominator == 1 and math.gcd(a.numerator, q) != 1:
            raise ValueError(f"integer shift a={a} must be coprime to p={q}")


@dataclass(frozen=True)
class MeanValueQuery:
    """One evaluation request: target statistic, modulus, shift, weights;
    construction coerces a and raises ValueError outside the target's range
    (_check_parameters, then _check_modulus)."""

    target: str
    q: int
    a: ShiftParam
    k: int | None = None
    f: Polynomial | None = None
    method: str = "closed_direct"

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_parameters(self.target, self.a, self.k, self.f, self.method))
        _check_modulus(self.target, self.q, self.a, self.k, self.f)


make_query = MeanValueQuery


# ---------------------------------------------------------------------------
# L-value vectors, optionally stored on disk

def _lvec_shift(query: MeanValueQuery) -> ShiftParam:
    """The shift of the L-vectors a query reads: lemma4 weights L(1, chi)."""
    return ShiftParam(0) if query.target == "lemma4" else query.a


def _lvalue_vectors(queries: Sequence[MeanValueQuery], stored: list[dict[str, np.ndarray] | None],
                    tables: dict[int, CharacterTable], cache: ReportCache | None) -> list[dict[str, np.ndarray]]:
    """L(1, chi, a) for all characters by every route each query compares
    (principal slot 0): both closed routes, and the truncated one for a
    truncated query.

    The closed routes come from the stored records; the misses are computed
    by one lfun.route_vectors_batch call, so their psi grids come from one
    digamma call, and stored when there is a cache.  The truncated route is
    the oracle and is never stored: it is recomputed, at the default
    truncation length.
    """
    vecs = [dict(v) if v is not None else {} for v in stored]
    misses = [i for i, v in enumerate(stored) if v is None]
    truncated = [i for i, query in enumerate(queries) if query.method == "truncated"]
    for indices, methods in ((misses, LVEC_ROUTES), (truncated, ("truncated",))):
        if not indices:
            continue
        jobs = [(tables[queries[i].q], _lvec_shift(queries[i])) for i in indices]
        for i, routes in zip(indices, lfun.route_vectors_batch(jobs, methods)):
            vecs[i].update({m: vec for m, (vec, _) in routes.items()})
    if cache is not None:
        for i in misses:
            a = _lvec_shift(queries[i])
            cache.put_lvec(queries[i].q, a.numerator, a.denominator, vecs[i])
    return vecs


def clear_memo() -> None:
    """Forget the in-process character tables (chars.get_table, the one
    in-process memo); nothing else outlives a report."""
    chars.get_table.cache_clear()


def _sieve_factor(fac: Factorization) -> float:
    """prod_{p | q} (1 - p^-2), the coprimality correction to zeta(2)."""
    return math.prod(1.0 - 1.0 / (p * p) for p in fac.primes())


DivisorTerms = tuple[tuple[int, int], ...]


def _mobius_harmonic(terms: DivisorTerms, a: ShiftParam, k: int = 1) -> float:
    """sum_{d|q} mu(d)/d H_[a/(kd)] over the divisor terms of q, summed from
    0 in ascending d."""
    return sum(mu / d * harmonic(a // (k * d)) for d, mu in terms)


def _mobius_divisor_terms(fac: Factorization) -> DivisorTerms:
    """(d, mu(d)) over the squarefree divisors d | q, ascending: the products
    of distinct primes of q, mu(d) = (-1)^(number of primes)."""
    terms = [(1, 1)]
    for p in fac.primes():
        terms += [(d * p, -mu) for d, mu in terms]
    return tuple(sorted(terms))


def _divisor_arguments(query: MeanValueQuery, fac: Factorization) -> tuple[DivisorTerms, np.ndarray]:
    """The divisor terms of q = fac.n and the special-function arguments of
    the query's main terms over them: a/d, for zeta(2, a/d), for eq1 and
    thm2; rows 1 + [a/d, a/(kd)], for psi, for the thm1 oracle; none for
    lemma4."""
    terms = _mobius_divisor_terms(fac)
    a = query.a
    if query.target == "lemma4":
        return terms, np.empty(0)
    if query.target == "thm1":
        return terms, 1.0 + np.array([[a.numerator / (a.denominator * m) for m in (d, query.k * d)]
                                      for d, _ in terms])
    return terms, np.array([a.numerator / (a.denominator * d) for d, _ in terms])


# ---------------------------------------------------------------------------
# lemma4: sum chi(a) |L(1, chi)|^2

def _lemma4_main(fac: Factorization, a: ShiftParam) -> float:
    """(phi(q)/a) zeta(2) prod_{p|q} (1 - p^-2)."""
    return euler_phi(fac) / a.numerator * _ZETA2 * _sieve_factor(fac)


# ---------------------------------------------------------------------------
# eq1: sum |L(1, chi, a)|^2

class Eq1Main(NamedTuple):
    full: float
    first_term_only: float


def _eq1_main(fac: Factorization, terms: DivisorTerms, a: ShiftParam, zetas: np.ndarray) -> Eq1Main:
    """Published main term and its first-term-only variant, from q's
    factorization, its divisor terms and their zetas = zeta(2, a/d).

    full  = phi(q) sum_{d|q} mu(d)/d^2 zeta(2, a/d)
            - (4 phi(q)/a) sum_{d|q} mu(d)/d H_[a/d]
    first = the zeta sum alone.  The harmonic correction drives the full
    value negative for small a, while the LHS is a sum of squares; the first
    term alone is exactly the diagonal prediction, since
    sum_{d|q} mu(d) = 0 cancels the n = 0 boundary of the Hurwitz zetas.
    """
    phi = euler_phi(fac)
    zeta_sum = float(sum(mu / (d * d) * z for (d, mu), z in zip(terms, zetas)))
    first = phi * zeta_sum
    full = first - 4.0 * phi / float(a) * _mobius_harmonic(terms, a)
    return Eq1Main(full, first)


# ---------------------------------------------------------------------------
# thm1: sum chi(k) |L(1, chi, a)|^2

def thm1_lhs(q: int, k: int, a, method: str = "closed_direct") -> complex:
    return build_report(MeanValueQuery("thm1", q, a, k, method=method)).lhs


def _thm1_main(fac: Factorization, terms: DivisorTerms, k: int, a: ShiftParam) -> float:
    """(phi(q)/(a (k-1))) sum_{d|q} mu(d)/d sum_{l=[a/(kd)]+1}^{[a/d]} 1/l.

    Inner blocks with an empty l-range contribute exactly 0.  The weight k
    enters as the written integer; only character evaluation reduces it mod q.
    """
    total = sum(mu / d * (harmonic(a // d) - harmonic(a // (k * d))) for d, mu in terms)
    return euler_phi(fac) / (float(a) * (k - 1)) * total


def _thm1_diagonal_oracle(fac: Factorization, terms: DivisorTerms, k: int, a: ShiftParam,
                          psi: np.ndarray) -> float:
    """phi(q) sum_{n >= 1, gcd(n,q)=1} 1/((n+a)(kn+a)), in closed form (a >= 1),
    from psi = digamma of the _divisor_arguments rows 1 + [a/d, a/(kd)].

    This is the m = kn exact-equality class of the orthogonality expansion of
    the thm1 statistic: an independent prediction of the dominant
    contribution.  The Mobius sieve turns each class into sums of
    1/((dm+a)(kdm+a)) whose partial fractions telescope to digamma
    differences:

        sum_m 1/((dm+a)(kdm+a)) = [psi(1 + a/d) - psi(1 + a/(kd))]/(a (k-1) d).
    """
    total = float(sum(mu / d * (hi - lo) for (d, mu), (hi, lo) in zip(terms, psi)))
    return euler_phi(fac) / (float(a) * (k - 1)) * total


# ---------------------------------------------------------------------------
# thm2: sum |S(chi, f)|^2 |L(1, chi, a)|^2 over a prime modulus

def thm2_lhs_direct(p: int, f: Polynomial, a) -> float:
    return build_report(MeanValueQuery("thm2", p, a, f=f)).lhs.real


def thm2_lhs_decomposed(p: int, f: Polynomial, a) -> complex:
    """(p-1) eq1-statistic + sum_{x=2}^{p-1} T(g_x) sum_chi chi(x) |L(1,chi,a)|^2.

    Splitting |S(chi,f)|^2 through the difference-polynomial identity turns
    the direct statistic into a diagonal part plus complete exponential sums
    against chi(x)-weighted moments; both sides are mathematically equal, so
    |direct - decomposed| is a floating-point-level end-to-end check of the
    whole exponential-sum layer.
    """
    return thm2_sides(p, f, a)[1]


def thm2_sides(p: int, f: Polynomial, a) -> tuple[float, complex]:
    """thm2_lhs_direct and thm2_lhs_decomposed by closed_direct, from one
    L-vector and one table.  Both sides read the same |L(1, chi, a)|^2 by
    design: their gap checks the exponential-sum layer."""
    query = MeanValueQuery("thm2", p, a, f=f)
    t = chars.get_table(p)
    w = np.abs(lfun.l1a_vector(t, query.a)) ** 2
    direct = _statistics(query, {"closed_direct": w}, t)["closed_direct"].real
    moments = t.sums_over_characters(w)[2:]  # chi(x)-weighted moment per x = 2..p-1
    return direct, complex((p - 1) * w.sum() + (difference_sums(p, f) * moments).sum())


def _thm2_main(p: int, a: ShiftParam, zetas: np.ndarray) -> float:
    """p^2 sum_{d|p} mu(d)/d^2 zeta(2, a/d) - (4 p^2/a) sum_{d|p} mu(d)/d H_[a/d],
    with d running over {1, p}, from zetas = zeta(2, [a, a/p]), the zetas
    of p's divisor terms."""
    p2 = float(p * p)
    zeta_a, zeta_ap = zetas
    zeta_part = float(p2 * (zeta_a - zeta_ap / (p * p)))
    harm_part = 4.0 * p2 / float(a) * (harmonic(a // 1) - harmonic(a // p) / p)
    return zeta_part - harm_part


# ---------------------------------------------------------------------------
# Cross terms of the shift decomposition

@dataclass(frozen=True)
class CrossTerms:
    """The three mixed sums appearing when |L(1,chi,a)|^2 is expanded through
    L(1,chi) - a sum_n chi(n)/(n(n+a)), with the predicted leading
    expressions attached for side-by-side comparison (never asserted)."""

    q: int
    k: int
    a: ShiftParam
    m1: complex  # sum chi(k) T(chi, a) L(1, conj chi)
    m2: complex  # sum chi(k) T(conj chi, a) L(1, chi)
    m3: complex  # sum chi(k) |T(chi, a)|^2
    m1_predicted: float
    m2_predicted: float
    m3_predicted: float
    unshifted_moment: complex  # sum chi(k) |L(1, chi)|^2
    recombined: complex        # unshifted - a(m1 + m2) + a^2 m3
    lhs: complex               # sum chi(k) |L(1, chi, a)|^2 by closed_direct, as thm1_lhs


def cross_terms(q: int, k: int, a) -> CrossTerms:
    """The cross terms and the thm1 statistic from one lfun.closed_vectors_batch
    job: L(1, chi), the tail T(chi, a) and L(1, chi, a) from one digamma
    call on psi(r/q) and psi((r + a)/q) and one 3-row transform.  The four
    recombination sums and the statistic are the reports' own (_statistics)
    thm1 sums of their five weights, against one chi(k) column."""
    query = MeanValueQuery("thm1", q, a, k)
    a = query.a
    fac = factorize(q)
    terms = _mobius_divisor_terms(fac)
    t = chars.get_table(q)
    vecs = lfun.closed_vectors_batch([(t, a, ("l1", "tail", "l1a"))])[0]
    for vec in vecs.values():
        vec[t.principal_index] = 0.0
    lvec, tvec = vecs["l1"], vecs["tail"]
    sums = _statistics(query, {
        "m1": tvec * lvec[t.conjugate_map],
        "m2": np.conj(tvec) * lvec,
        "m3": np.abs(tvec) ** 2,
        "unshifted": np.abs(lvec) ** 2,
        "lhs": np.abs(vecs["l1a"]) ** 2,
    }, t)
    m1, m2, m3, unshifted, lhs = sums.values()
    af = float(a)
    recombined = unshifted - af * (m1 + m2) + af * af * m3

    phi = euler_phi(fac)
    sieve = _ZETA2 * _sieve_factor(fac)
    h_d = _mobius_harmonic(terms, a)
    h_kd = _mobius_harmonic(terms, a, k)
    m1_pred = phi / (af * k) * sieve - phi / (af * af * k) * h_d
    m2_pred = phi / (af * k) * sieve + phi / (af * af) * h_kd
    m3_pred = (
        phi / (af * af * k) * sieve
        + phi / (af**3 * k * (k - 1)) * h_d
        - k * phi / (af**3 * (k - 1)) * h_kd
    )
    return CrossTerms(q, k, a, m1, m2, m3, m1_pred, m2_pred, m3_pred, unshifted, recombined, lhs)


# ---------------------------------------------------------------------------
# Reports and sweeps

@dataclass(frozen=True)
class MeanValueReport:
    """Flattened, serialization-ready result of one query."""

    target: str
    q: int
    a: ShiftParam
    k: int | None
    f: Polynomial | None
    method: str
    lhs: complex
    paper_main: float
    oracle_main: float | None
    residual: float
    normalized_residual: float
    route_agreement: float
    flags: tuple[str, ...]


def _normalization(target: str, fac: Factorization, k_deg: int | None) -> float:
    """The error-term scale each residual is measured against, for a valid
    query mod q = fac.n; k_deg is the thm2 polynomial's degree."""
    q = fac.n
    if target == "lemma4":
        return math.log(q) ** 2
    if target == "thm2":
        return float(q) ** (2.0 - 1.0 / k_deg)
    return euler_phi(fac) * math.log(q) / math.sqrt(q)  # eq1 and thm1


def _statistics(query: MeanValueQuery, weights: dict[str, np.ndarray],
                t: CharacterTable | None) -> dict[str, complex]:
    """The query's target statistic for each named weight vector over the
    characters (a route's |L(1, chi, a)|^2, or one of cross_terms' sums;
    the principal slot is already 0), t the table mod query.q.

    eq1 sums them and reads no character, so it takes t = None when its
    vectors are stored; lemma4 and thm1 read the chi(k) column, and thm2
    |S(chi, f)|^2, from t.  Each is numpy's pairwise sum of a product, not
    a BLAS dot, whose bytes would depend on the BLAS thread count.
    """
    if query.target == "eq1":
        return {m: complex(w.sum()) for m, w in weights.items()}
    if query.target == "thm2":
        sq_sums = np.abs(weighted_char_sum_all(t, query.f)) ** 2
        return {m: complex((sq_sums * w).sum()) for m, w in weights.items()}
    col = t.values_at(query.a.numerator if query.target == "lemma4" else query.k)
    return {m: complex((col * w).sum()) for m, w in weights.items()}


def build_report(query: MeanValueQuery, cache: ReportCache | None = None) -> MeanValueReport:
    """Evaluate the query, compare lfun routes, and assemble the report row:
    q factored once, then a sweep's two steps on one query, _main_terms and
    _batch_reports."""
    facs = {query.q: factorize(query.q)}
    return _batch_reports([query], facs, _main_terms([query], facs), cache)[0]


# Arguments of one elementwise special-function call (specfun.elementwise_batch)
# in both steps of a sweep: a run of _main_terms counts its divisor arguments,
# and a batch (_batches) its psi grids (one for lemma4, two otherwise) times q,
# a bound on phi(q).  An item over the cap is a run or batch of its own.
# hurwitz_zeta holds up to ten direct-term rows per argument, so one main-term
# call for an eq1 sweep over every q <= 10^5 (about 7e5 divisor zetas) would
# hold tens of MB.  Measured with perfbench/run.py on a 2-core x86-64 host,
# sweep-many at seeds 1-3 (moduli 300-2000): a batch per report peaks at
# 35.40-35.49 MB RSS in 32-35 ms per pass; batch caps 2^12, 2^13, 2^14 and
# 2^16 peak at 35.50-35.55, 35.51-35.66, 36.29-36.41 and 36.65-36.78 MB in
# 30.8-32.1, 28.8-29.2, 28.4-29.5 and 27.9-28.5 ms.  2^13 takes most of the
# gain within 1% of the memory.
_BATCH_ARGUMENTS = 2**13


def _main_terms(queries: Sequence[MeanValueQuery],
                facs: dict[int, Factorization]) -> list[tuple[float, float | None]]:
    """(paper_main, oracle_main) of each query, in order, with q's
    factorization in facs.

    Each query's divisor terms are built once, and its special values come
    from one hurwitz_zeta (eq1, thm2) or digamma (thm1 oracle) call per run
    of consecutive queries of at most _BATCH_ARGUMENTS arguments.  Both
    are elementwise bit for bit, so a main term does not depend on its run.
    """
    out: list[tuple[float, float | None]] = []
    prepared = ((query, *_divisor_arguments(query, facs[query.q])) for query in queries)
    for run in _runs(prepared, lambda item: item[2].size, _BATCH_ARGUMENTS):
        zetas = iter(elementwise_batch(lambda x: hurwitz_zeta(2.0, x),
                                       [args for query, _, args in run if query.target in ("eq1", "thm2")]))
        psis = iter(elementwise_batch(digamma, [args for query, _, args in run if query.target == "thm1"]))
        for query, terms, _ in run:
            fac, a = facs[query.q], query.a
            if query.target == "lemma4":
                out.append((_lemma4_main(fac, a), None))
            elif query.target == "eq1":
                out.append(_eq1_main(fac, terms, a, next(zetas)))
            elif query.target == "thm1":
                out.append((_thm1_main(fac, terms, query.k, a),
                            _thm1_diagonal_oracle(fac, terms, query.k, a, next(psis))))
            else:  # zeta(2, [a, a/p]) once, for the main term and its eq1 oracle
                zeta_pair = next(zetas)
                out.append((_thm2_main(query.q, a, zeta_pair),
                            (query.q - 1) * _eq1_main(fac, terms, a, zeta_pair).first_term_only))
    return out


def _batch_reports(queries: Sequence[MeanValueQuery], facs: dict[int, Factorization],
                   mains: Sequence[tuple[float, float | None]],
                   cache: ReportCache | None) -> list[MeanValueReport]:
    """The report rows of a batch of queries, with q's factorization in facs
    and each query's (paper_main, oracle_main) in mains.

    Each modulus's table is built once (not from the chars.get_table memo)
    when a route is computed or the statistic reads characters, so a warm
    eq1 batch builds none.  The cache records are read first (a record whose
    vectors are not phi(q) long is a miss), and the psi grids of the misses
    come from one digamma call.
    """
    stored = []
    for query in queries:
        vecs = None if cache is None else cache.get_lvec(query.q, *_lvec_shift(query).as_integer_ratio())
        stored.append(vecs if vecs and {len(v) for v in vecs.values()} == {euler_phi(facs[query.q])} else None)
    built = [query.q for query, vecs in zip(queries, stored)
             if vecs is None or query.method == "truncated" or query.target != "eq1"]
    tables = {q: chars.build_character_table(q) for q in dict.fromkeys(built)}
    lvecs = _lvalue_vectors(queries, stored, tables, cache)
    reports = []
    for query, vecs, (paper_main, oracle_main) in zip(queries, lvecs, mains):
        stats = _statistics(query, {m: np.abs(v) ** 2 for m, v in vecs.items()}, tables.get(query.q))
        methods = list(vecs)
        route_agreement = max(
            abs(stats[m1] - stats[m2]) for i, m1 in enumerate(methods) for m2 in methods[i + 1:]
        )
        reports.append(_report(query, facs[query.q], stats[query.method], route_agreement,
                               paper_main, oracle_main))
    return reports


def _report(query: MeanValueQuery, fac: Factorization, lhs: complex, route_agreement: float,
            paper_main: float, oracle_main: float | None) -> MeanValueReport:
    """The report row of a query from its statistic and main terms."""
    residual = lhs.real - paper_main
    k_deg = query.f.degree if query.target == "thm2" else None
    flags = []
    if abs(residual) > 0.5 * abs(paper_main):
        flags.append(TENSION_FLAG)
    if query.target == "thm2":
        flags.append(THM2_DIVISOR_NOTE)
    return MeanValueReport(
        target=query.target,
        q=query.q,
        a=query.a,
        k=query.k if query.target == "thm1" else (k_deg if query.target == "thm2" else None),
        f=query.f,
        method=query.method,
        lhs=complex(lhs),
        paper_main=float(paper_main),
        oracle_main=None if oracle_main is None else float(oracle_main),
        residual=float(residual),
        normalized_residual=float(residual / _normalization(query.target, fac, k_deg)),
        route_agreement=float(route_agreement),
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class ResidualSeries:
    """Sweep output: per-modulus reports plus the fitted residual growth law
    |residual| ~ C q^beta (least squares on the log-log cloud)."""

    target: str
    reports: tuple[MeanValueReport, ...]
    skipped: tuple[tuple[int, str], ...]
    beta: float
    constant: float

    @property
    def max_normalized_abs(self) -> float:
        return max((abs(r.normalized_residual) for r in self.reports), default=0.0)


def _fit_residuals(reports: Iterable[MeanValueReport]) -> tuple[float, float]:
    points = [(math.log(r.q), math.log(abs(r.residual))) for r in reports if r.residual != 0.0]
    if len(points) < 2:
        return float("nan"), float("nan")
    xs, ys = zip(*points)
    beta, log_c = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(beta), float(math.exp(log_c))


def _sweep_query(target: str, q: int, a: ShiftParam, k: int | None,
                 f: Polynomial | None, degree: int | None, seed: int | None,
                 method: str) -> MeanValueQuery:
    if target == "thm2" and f is None:  # sampled mod q once q is known to be prime
        _check_modulus(target, q, a, k, None)
        f = sample_polynomial(random.Random((seed or 0) * 1_000_003 + q), degree, q)
    return MeanValueQuery(target, q, a, k, f, method)


def _runs(items: Iterable, size, cap: int) -> Iterator[list]:
    """Consecutive runs of items whose size(item) sum to at most cap; an
    item over the cap is a run of its own."""
    run: list = []
    total = 0
    for item in items:
        n = size(item)
        if run and total + n > cap:
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def _batches(queries: list[MeanValueQuery]) -> list[list[MeanValueQuery]]:
    """Consecutive runs of queries whose psi arguments stay within _BATCH_ARGUMENTS."""
    grids = lambda query: (1 if query.target == "lemma4" else 2) * query.q  # noqa: E731
    return list(_runs(queries, grids, _BATCH_ARGUMENTS))


def residual_sweep(target: str, moduli: Iterable[int], a, k: int | None = None,
                   f: Polynomial | None = None, degree: int | None = None,
                   seed: int | None = None, method: str = "closed_direct",
                   jobs: int = 1, cache: ReportCache | None = None) -> ResidualSeries:
    """Evaluate the target over a modulus list, skipping the moduli that
    fail _check_modulus; a parameter that fails _check_parameters, a
    modulus listed twice or one above the table bound raises before any
    work.

    The main terms of all valid queries come from one _main_terms call; each
    batch (_batches) goes to _batch_reports with its slice of them, as one
    task of a pool of min(jobs, batches, usable CPUs) workers when that is
    more than one, else in process.  Reports come back ordered by modulus
    regardless of worker scheduling; the fit runs on |residual| > 0 rows
    only.
    """
    if target == "thm2" and f is None and degree is None:
        raise ValueError("thm2 sweep needs --f or a degree to sample")
    a = _check_parameters(target, a, k, f, method, degree)
    moduli = list(moduli)
    repeated = [q for q, n in Counter(moduli).items() if n > 1]
    if repeated:
        raise ValueError(f"modulus {repeated[0]} is listed more than once")
    for q in moduli:
        if isinstance(q, int):  # other entries are skipped by _check_modulus
            chars.check_table_bound(q)
    queries: list[MeanValueQuery] = []
    skipped: list[tuple[int, str]] = []
    for q in moduli:
        try:
            queries.append(_sweep_query(target, q, a, k, f, degree, seed, method))
        except ValueError as exc:
            log.warning("skipping q=%s: %s", q, exc)
            skipped.append((q, str(exc)))
    facs = {query.q: factorize(query.q) for query in queries}
    mains = iter(_main_terms(queries, facs))
    batches = [(batch, {query.q: facs[query.q] for query in batch}, [next(mains) for _ in batch])
               for batch in _batches(queries)]
    run_batch = functools.partial(_batch_reports, cache=cache)
    # A forking pool starts all its workers at once: no more than batches or usable CPUs.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(batches), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays this import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = [r for rs in pool.map(run_batch, *zip(*batches)) for r in rs]
    else:
        reports = [r for batch in batches for r in run_batch(*batch)]
    reports.sort(key=lambda r: r.q)
    beta, constant = _fit_residuals(reports)
    return ResidualSeries(target, tuple(reports), tuple(skipped), beta, constant)
