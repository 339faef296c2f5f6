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
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import lfun
from .arith import Factorization, euler_phi, factorize, is_prime
from .cache import LVEC_ROUTES, ReportCache
from .chars import get_table
from .expsum import Polynomial, difference_sums, sample_polynomial, weighted_char_sum_all
from .specfun import ShiftParam, digamma, floor_ratio, harmonic, hurwitz_zeta

log = logging.getLogger("lfunlab")

TARGETS = ("lemma4", "eq1", "thm1", "thm2")

_ZETA2 = math.pi * math.pi / 6.0

# Divisor-sum reading for the thm2 main term: the statement mixes the sweep
# modulus q into a theorem about a prime p, so d runs over {1, p}.  Recorded
# on every thm2 report.
THM2_DIVISOR_NOTE = "divisor_sum_over_d|p"

TENSION_FLAG = "main_term_tension"


@dataclass(frozen=True)
class MeanValueQuery:
    """One evaluation request: target statistic, modulus, shift, weights."""

    target: str
    q: int
    a: ShiftParam
    k: int | None = None
    f: Polynomial | None = None
    method: str = "closed_direct"


def make_query(target: str, q: int, a, k: int | None = None, f: Polynomial | None = None,
               method: str = "closed_direct") -> MeanValueQuery:
    query = MeanValueQuery(target, q, ShiftParam.of(a), k, f, method)
    validate_query(query)
    return query


def validate_query(query: MeanValueQuery) -> None:
    """Raise ValueError unless the query lies in its target's range."""
    if query.target not in TARGETS:
        raise ValueError(f"unknown target {query.target!r}; expected one of {TARGETS}")
    q, a = query.q, query.a
    if not isinstance(q, int) or isinstance(q, bool) or q < 3:
        raise ValueError(f"modulus must be an integer >= 3, got {q!r}")
    if query.method not in lfun.METHODS:
        raise ValueError(f"unknown method {query.method!r}; expected one of {lfun.METHODS}")
    if query.target == "lemma4":
        if not a.is_integer or a.numerator < 2:
            raise ValueError(f"lemma4 weight must be an integer >= 2, got a={a}")
        if math.gcd(a.numerator, q) != 1:
            raise ValueError(f"lemma4 weight a={a} must be coprime to q={q}")
        return
    if a.numerator < a.denominator:
        raise ValueError(f"shift must satisfy a >= 1, got a={a}")
    if query.target == "thm1":
        k = query.k
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ValueError(f"thm1 weight k must be an integer >= 2, got {k!r}")
        if math.gcd(k, q) != 1:
            raise ValueError(f"thm1 weight k={k} must be coprime to q={q}")
    elif query.target == "thm2":
        if not is_prime(q):
            raise ValueError(f"thm2 modulus must be prime, got {q}")
        if query.f is None:
            raise ValueError("thm2 requires a polynomial")
        if not query.f.coprime_to(q):
            raise ValueError(f"p={q} divides every coefficient of {query.f}")
        if a.is_integer and math.gcd(a.numerator, q) != 1:
            raise ValueError(f"integer shift a={a} must be coprime to p={q}")


# ---------------------------------------------------------------------------
# L-value vectors, optionally stored on disk

def _route_vectors(q: int, a: ShiftParam, methods: Sequence[str]) -> dict[str, np.ndarray]:
    return {m: vec for m, (vec, _) in lfun.route_vectors(get_table(q), a, methods).items()}


def _lvalue_vectors(fac: Factorization, a: ShiftParam, methods: Sequence[str],
                    cache: ReportCache | None = None) -> dict[str, np.ndarray]:
    """L(1, chi, a) for all characters mod q = fac.n by each requested route
    (principal slot 0); build_report's methods always hold both closed routes.

    With a cache, the closed routes come from the one record of (q, a).  When
    it is missing, or its vectors are not phi(q) long, one lfun.route_vectors
    call computes both and stores them.  The truncated route is the oracle
    and is never stored: it is recomputed, at the default truncation length.
    The character table comes from the in-process memo, and only when a
    route is computed, so a warm eq1 report builds no table.
    """
    q, vecs = fac.n, {}
    if cache is not None:
        key = (q, a.numerator, a.denominator)
        vecs = cache.get_lvec(*key)
        if vecs is None or {len(v) for v in vecs.values()} != {euler_phi(fac)}:
            vecs = _route_vectors(q, a, LVEC_ROUTES)
            cache.put_lvec(*key, vecs)
    missing = [m for m in methods if m not in vecs]
    if missing:
        vecs = {**vecs, **_route_vectors(q, a, missing)}
    return vecs


def clear_memo() -> None:
    """Forget the in-process character tables (chars.get_table, the one
    in-process memo); nothing else outlives a report."""
    get_table.cache_clear()


def _sieve_factor(fac: Factorization) -> float:
    """prod_{p | q} (1 - p^-2), the coprimality correction to zeta(2)."""
    out = 1.0
    for p in fac.primes():
        out *= 1.0 - 1.0 / (p * p)
    return out


def _mobius_harmonic(fac: Factorization, a: ShiftParam, k: int = 1) -> float:
    """sum_{d|q} mu(d)/d H_[a/(kd)], summed from 0 in ascending d."""
    return sum(mu / d * harmonic(floor_ratio(a, k * d)) for d, mu in _mobius_divisor_terms(fac))


def _mobius_divisor_terms(fac: Factorization) -> list[tuple[int, int]]:
    """(d, mu(d)) over the squarefree divisors d | q, ascending: the products
    of distinct primes of q, mu(d) = (-1)^(number of primes)."""
    terms = [(1, 1)]
    for p in fac.primes():
        terms += [(d * p, -mu) for d, mu in terms]
    return sorted(terms)


def _divisor_zetas(fac: Factorization, a: ShiftParam) -> np.ndarray:
    """zeta(2, a/d) over the d of _mobius_divisor_terms, in one call."""
    return hurwitz_zeta(2.0, np.array([a.div_value(d) for d, _ in _mobius_divisor_terms(fac)]))


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


def _eq1_main(fac: Factorization, a: ShiftParam, zetas: np.ndarray) -> Eq1Main:
    """Published main term and its first-term-only variant, from q's
    factorization and zetas = _divisor_zetas(fac, a).

    full  = phi(q) sum_{d|q} mu(d)/d^2 zeta(2, a/d)
            - (4 phi(q)/a) sum_{d|q} mu(d)/d H_[a/d]
    first = the zeta sum alone.  The harmonic correction drives the full
    value negative for small a, while the LHS is a sum of squares; the first
    term alone is exactly the diagonal prediction, since
    sum_{d|q} mu(d) = 0 cancels the n = 0 boundary of the Hurwitz zetas.
    """
    phi = euler_phi(fac)
    terms = _mobius_divisor_terms(fac)
    zeta_sum = float(sum(mu / (d * d) * z for (d, mu), z in zip(terms, zetas)))
    first = phi * zeta_sum
    full = first - 4.0 * phi / a.real_value * _mobius_harmonic(fac, a)
    return Eq1Main(full, first)


# ---------------------------------------------------------------------------
# thm1: sum chi(k) |L(1, chi, a)|^2

def thm1_lhs(q: int, k: int, a, method: str = "closed_direct") -> complex:
    return _lhs(make_query("thm1", q, a, k=k, method=method))


def _thm1_main(fac: Factorization, k: int, a: ShiftParam) -> float:
    """(phi(q)/(a (k-1))) sum_{d|q} mu(d)/d sum_{l=[a/(kd)]+1}^{[a/d]} 1/l.

    Inner blocks with an empty l-range contribute exactly 0.  The weight k
    enters as the written integer; only character evaluation reduces it mod q.
    """
    phi = euler_phi(fac)
    total = 0.0
    for d, mu in _mobius_divisor_terms(fac):
        lo = floor_ratio(a, k * d)
        hi = floor_ratio(a, d)
        total += mu / d * (harmonic(hi) - harmonic(lo))
    return phi / (a.real_value * (k - 1)) * total


def _thm1_diagonal_oracle(fac: Factorization, k: int, a: ShiftParam) -> float:
    """phi(q) sum_{n >= 1, gcd(n,q)=1} 1/((n+a)(kn+a)), in closed form (a >= 1).

    This is the m = kn exact-equality class of the orthogonality expansion of
    the thm1 statistic: an independent prediction of the dominant
    contribution.  The Mobius sieve turns each class into sums of
    1/((dm+a)(kdm+a)) whose partial fractions telescope to digamma
    differences:

        sum_m 1/((dm+a)(kdm+a)) = [psi(1 + a/d) - psi(1 + a/(kd))]/(a (k-1) d).
    """
    terms = _mobius_divisor_terms(fac)
    psi = digamma(np.array([[1.0 + a.div_value(d), 1.0 + a.div_value(k * d)] for d, _ in terms]))
    total = float(sum(mu / d * (hi - lo) for (d, mu), (hi, lo) in zip(terms, psi)))
    return euler_phi(fac) / (a.real_value * (k - 1)) * total


# ---------------------------------------------------------------------------
# thm2: sum |S(chi, f)|^2 |L(1, chi, a)|^2 over a prime modulus

def thm2_lhs_direct(p: int, f: Polynomial, a) -> float:
    return _lhs(make_query("thm2", p, a, f=f)).real


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
    query = make_query("thm2", p, a, f=f)
    w = np.abs(_route_vectors(p, query.a, ("closed_direct",))["closed_direct"]) ** 2
    direct = _statistics(query, {"closed_direct": w})["closed_direct"].real
    moments = get_table(p).sums_over_characters(w)[2:]  # chi(x)-weighted moment per x = 2..p-1
    return direct, complex((p - 1) * w.sum() + difference_sums(p, f) @ moments)


def _thm2_main(p: int, a: ShiftParam, zetas: np.ndarray) -> float:
    """p^2 sum_{d|p} mu(d)/d^2 zeta(2, a/d) - (4 p^2/a) sum_{d|p} mu(d)/d H_[a/d],
    with d running over {1, p}, from zetas = zeta(2, [a, a/p]), the
    _divisor_zetas of p."""
    p2 = float(p * p)
    zeta_a, zeta_ap = zetas
    zeta_part = float(p2 * (zeta_a - zeta_ap / (p * p)))
    harm_part = 4.0 * p2 / a.real_value * (harmonic(floor_ratio(a, 1)) - harmonic(floor_ratio(a, p)) / p)
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
    lhs: complex               # sum chi(k) |L(1, chi, a)|^2 by closed_direct, thm1_lhs


def cross_terms(q: int, k: int, a) -> CrossTerms:
    """The cross terms and the thm1 statistic from one lfun.closed_vectors
    call: L(1, chi), the tail T(chi, a) and L(1, chi, a) from one digamma
    call on psi(r/q) and psi((r + a)/q) and one 3-row transform."""
    query = make_query("thm1", q, a, k=k)
    a = query.a
    fac = factorize(q)
    t = get_table(q)
    vecs = lfun.closed_vectors(t, a, ("l1", "tail", "l1a"))
    for vec in vecs.values():
        vec[t.principal_index] = 0.0
    lvec, tvec = vecs["l1"], vecs["tail"]
    col = t.values_at(k)
    conj = t.conjugate_map
    m1 = complex(col @ (tvec * lvec[conj]))
    m2 = complex(col @ (np.conj(tvec) * lvec))
    m3 = complex(col @ (np.abs(tvec) ** 2))
    unshifted = complex(col @ (np.abs(lvec) ** 2))
    af = a.real_value
    recombined = unshifted - af * (m1 + m2) + af * af * m3
    lhs = complex(col @ (np.abs(vecs["l1a"]) ** 2))

    phi = euler_phi(fac)
    sieve = _ZETA2 * _sieve_factor(fac)
    h_d = _mobius_harmonic(fac, a)
    h_kd = _mobius_harmonic(fac, a, k)
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


def _route_statistics(query: MeanValueQuery, methods: Sequence[str], cache: ReportCache | None,
                      fac: Factorization) -> dict[str, complex]:
    """The query's target statistic from the L-vector of each named route;
    fac is the factorization of query.q."""
    lvec_shift = ShiftParam(0) if query.target == "lemma4" else query.a
    lvecs = _lvalue_vectors(fac, lvec_shift, methods, cache)
    return _statistics(query, {m: np.abs(lvecs[m]) ** 2 for m in methods})


def _statistics(query: MeanValueQuery, weights: dict[str, np.ndarray]) -> dict[str, complex]:
    """The query's target statistic for each route's weights |L(1, chi, a)|^2
    (the principal slot is already 0).

    eq1 sums them and reads no character, so it needs no table when its
    vectors are stored; lemma4 and thm1 read the chi(k) column, and thm2
    |S(chi, f)|^2, from the in-process table memo.
    """
    if query.target == "eq1":
        return {m: complex(w.sum()) for m, w in weights.items()}
    t = get_table(query.q)
    if query.target == "thm2":
        sq_sums = np.abs(weighted_char_sum_all(t, query.f)) ** 2
        return {m: complex((sq_sums * w).sum()) for m, w in weights.items()}
    col = t.values_at(query.a.numerator if query.target == "lemma4" else query.k)
    return {m: complex(col @ w) for m, w in weights.items()}


def _lhs(query: MeanValueQuery) -> complex:
    """The query's target statistic by its own route."""
    return _route_statistics(query, (query.method,), None, factorize(query.q))[query.method]


def build_report(query: MeanValueQuery, cache: ReportCache | None = None) -> MeanValueReport:
    """Evaluate the query, compare lfun routes, and assemble the report row."""
    validate_query(query)
    fac, a = factorize(query.q), query.a
    methods = ["closed_direct", "closed_lemma1"]
    if query.method == "truncated":
        methods.append("truncated")
    stats = _route_statistics(query, methods, cache, fac)
    lhs = stats[query.method]
    route_agreement = max(
        abs(stats[m1] - stats[m2]) for i, m1 in enumerate(methods) for m2 in methods[i + 1:]
    )

    if query.target == "lemma4":
        paper_main, oracle_main = _lemma4_main(fac, a), None
    elif query.target == "eq1":
        paper_main, oracle_main = _eq1_main(fac, a, _divisor_zetas(fac, a))
    elif query.target == "thm1":
        paper_main = _thm1_main(fac, query.k, a)
        oracle_main = _thm1_diagonal_oracle(fac, query.k, a)
    else:  # zeta(2, [a, a/p]) once, for the main term and its eq1 oracle
        zetas = _divisor_zetas(fac, a)
        paper_main = _thm2_main(query.q, a, zetas)
        oracle_main = (query.q - 1) * _eq1_main(fac, a, zetas).first_term_only

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
        if not self.reports:
            return 0.0
        return max(abs(r.normalized_residual) for r in self.reports)


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
    if target == "thm2" and f is None:  # residual_sweep has checked that degree is set
        rng = random.Random((seed if seed is not None else 0) * 1_000_003 + q)
        f = sample_polynomial(rng, degree, q)
    return make_query(target, q, a, k=k, f=f, method=method)


def _report_for(args: tuple) -> MeanValueReport:
    query, cache_dir = args
    cache = ReportCache(cache_dir) if cache_dir is not None else None
    return build_report(query, cache)


def residual_sweep(target: str, moduli: Iterable[int], a, k: int | None = None,
                   f: Polynomial | None = None, degree: int | None = None,
                   seed: int | None = None, method: str = "closed_direct",
                   jobs: int = 1, cache: ReportCache | None = None) -> ResidualSeries:
    """Evaluate the target over a modulus list, skipping invalid moduli.

    Reports come back ordered by modulus regardless of worker scheduling;
    the fit runs on |residual| > 0 rows only.
    """
    a = ShiftParam.of(a)
    if target == "thm2" and f is None and degree is None:
        raise ValueError("thm2 sweep needs --f or a degree to sample")
    queries: list[MeanValueQuery] = []
    skipped: list[tuple[int, str]] = []
    for q in moduli:
        try:
            queries.append(_sweep_query(target, q, a, k, f, degree, seed, method))
        except ValueError as exc:
            log.warning("skipping q=%s: %s", q, exc)
            skipped.append((q, str(exc)))
    cache_dir = cache.directory if cache is not None else None
    if jobs > 1 and len(queries) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays this import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_report_for, [(qu, cache_dir) for qu in queries]))
    else:
        reports = [build_report(qu, cache) for qu in queries]
    reports.sort(key=lambda r: r.q)
    beta, constant = _fit_residuals(reports)
    return ResidualSeries(target, tuple(reports), tuple(skipped), beta, constant)
