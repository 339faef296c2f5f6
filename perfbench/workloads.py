"""Seeded inputs, CLI command lines and output checks for the lfunlab benchmark.

Inputs come from the benchmark seed only; the program sees the generated
moduli, shifts, polynomials and polynomial seeds as CLI flags.  Moduli are
drawn by stratified sampling: the range is cut into equal bins and each bin
contributes one modulus, picked among its candidates whose phi(q) * q (the
size of the dense character table) is within 5% of the bin's median.  Different seeds then
give different moduli but almost the same amount of work, so run-to-run
spread measures the program, not the draw.

This module does its own integer arithmetic so that the inputs and the
validity rules used to check the output do not depend on the code under test.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep-many", "large-modulus", "verify-identities", "cache-reuse")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Polynomial seeds handed to `sweep --seed` for thm2.  A small fixed pool
# keeps the per-modulus reference finite while the benchmark seed still
# varies the polynomials.
POLY_SEEDS = (1, 2, 3, 4)

# Relative tolerance of the reference comparison; test_acceptance.py holds
# the two closed routes to 1e-9, and this is no looser.
RTOL = 1e-9

CSV_COLUMNS = (
    "target", "q", "a_num", "a_den", "k", "lhs_re", "lhs_im", "paper_main",
    "oracle_main", "residual", "normalized_residual", "route_agreement",
)


# ---------------------------------------------------------------------------
# Integer helpers (independent of lfunlab.arith)

def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def phi(n: int) -> int:
    out = 1
    for p, e in factor(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def crt_components(n: int) -> int:
    """Cyclic factors of (Z/nZ)^*: one per odd prime power, two for 2^e, e >= 3."""
    f = factor(n)
    two = f.get(2, 0)
    return sum(1 for p in f if p != 2) + (2 if two >= 3 else 1 if two == 2 else 0)


# Modulus classes.  In a mixed sweep each bin takes one class in turn,
# so every draw has the same number of each class.  Class "div3" moduli are
# skipped by thm1 at k = 3 (gcd(k, q) > 1) and kept by eq1.
CLASSES = {
    "prime": is_prime,
    "two_power": lambda q: q % 8 == 0 and q % 3 != 0 and q & (q - 1) != 0,
    "div3": lambda q: q % 3 == 0 and crt_components(q) >= 3,
    "composite": lambda q: not is_prime(q) and q % 8 != 0 and q % 3 != 0,
}


def _near_median_cost(candidates: list[int]) -> list[int]:
    """Candidates whose phi(q) * q is within 5% of the median candidate's."""
    costs = sorted((phi(q) * q, q) for q in candidates)
    target = costs[len(costs) // 2][0]
    return [q for c, q in costs if abs(c - target) <= 0.05 * target]


def slot_candidates(lo: int, hi: int, bins: int, classes: tuple[str, ...]) -> list[list[int]]:
    """For each bin of [lo, hi], the moduli one draw may pick."""
    width = (hi - lo + 1) / bins
    out = []
    for b in range(bins):
        start, stop = lo + round(b * width), lo + round((b + 1) * width)
        pred = CLASSES[classes[b % len(classes)]]
        cands = [q for q in range(start, stop) if pred(q)]
        if not cands:
            raise ValueError(f"no {classes[b % len(classes)]} modulus in {start}..{stop - 1}")
        out.append(_near_median_cost(cands))
    return out


def draw(rng: random.Random, slots: list[list[int]]) -> tuple[int, ...]:
    return tuple(rng.choice(c) for c in slots)


def random_cubic(rng: random.Random, p: int) -> str:
    while True:
        coeffs = [rng.randrange(p) for _ in range(4)]
        if coeffs[3] % p:
            return ",".join(map(str, coeffs))


# ---------------------------------------------------------------------------
# Commands

@dataclass(frozen=True)
class Sweep:
    """One `lfunlab sweep` over explicit moduli; one report row per valid modulus."""

    target: str
    moduli: tuple[int, ...]
    a: str
    reference: str  # stem of the reference CSV under reference/
    k: int | None = None
    poly_seed: int | None = None
    method: str = "closed_direct"
    cached: bool = False  # run cold then warm against one --cache-dir

    def argv(self, out: str, cache_dir: str | None = None) -> list[str]:
        argv = ["sweep", "--target", self.target, "--moduli", ",".join(map(str, self.moduli)),
                "--a", self.a, "--method", self.method, "--jobs", "1", "--out", out]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        if self.poly_seed is not None:
            argv += ["--degree", "3", "--seed", str(self.poly_seed)]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        return argv

    def valid(self, q: int) -> bool:
        """The CLI's own domain rules; other moduli are skipped, not failed."""
        if q < 3:
            return False
        if self.target == "lemma4":
            return math.gcd(int(self.a), q) == 1
        if self.target == "thm1":
            return math.gcd(self.k, q) == 1
        if self.target == "thm2":
            return is_prime(q)
        return True

    def expected(self) -> list[int]:
        return sorted({q for q in self.moduli if self.valid(q)})


@dataclass(frozen=True)
class Verify:
    """One `lfunlab verify`; the check passes when it exits 0."""

    target: str
    flags: tuple[str, ...]

    def argv(self) -> list[str]:
        return ["verify", "--target", self.target, *self.flags]


PRIME = ("prime",)
MIXED = ("prime", "two_power", "div3", "composite")

# Every sweep the workloads issue, keyed by the stem of its reference CSV.
# "slots" is the bin layout (lo, hi, bins, classes) the moduli are drawn
# from; make_reference.py runs each sweep over all moduli any draw can pick.
SWEEPS = {
    "sweep-many_lemma4": dict(target="lemma4", a="2", slots=(1000, 2000, 12, PRIME)),
    "sweep-many_eq1": dict(target="eq1", a="3/2", slots=(300, 1500, 16, MIXED)),
    "sweep-many_thm1": dict(target="thm1", a="2", k=3, slots=(300, 1500, 16, MIXED)),
    "sweep-many_thm2": dict(target="thm2", a="2", poly=True, slots=(300, 1500, 12, PRIME)),
    "large-modulus_eq1": dict(target="eq1", a="3/2", method="truncated", slots=(4975, 5025, 1, PRIME)),
    "large-modulus_thm2": dict(target="thm2", a="2", poly=True, slots=(6965, 7035, 1, PRIME)),
    "cache-reuse_eq1": dict(target="eq1", a="3/2", cached=True, slots=(500, 1300, 32, MIXED)),
}


def _sweep(stem: str, rng: random.Random, moduli: tuple[int, ...] | None = None) -> Sweep:
    spec = dict(SWEEPS[stem])
    slots = spec.pop("slots")
    poly = spec.pop("poly", False)
    if moduli is None:
        moduli = draw(rng, slot_candidates(*slots))
    return Sweep(moduli=moduli, reference=stem, poly_seed=rng.choice(POLY_SEEDS) if poly else None, **spec)


def reference_sweeps():
    """(CSV name, sweep) over the whole candidate pool of every workload sweep, uncached."""
    for stem, spec in SWEEPS.items():
        spec = dict(spec)
        pool = tuple(sorted({q for cands in slot_candidates(*spec.pop("slots")) for q in cands}))
        spec.pop("cached", None)
        seeds = POLY_SEEDS if spec.pop("poly", False) else (None,)
        for seed in seeds:
            name = stem if seed is None else f"{stem}_seed{seed}"
            yield name, Sweep(moduli=pool, reference=stem, poly_seed=seed, **spec)


def generate(workload: str, seed: int) -> list[Sweep | Verify]:
    """The commands of one pass of the workload; the same seed gives the same commands."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-many":
        eq1 = _sweep("sweep-many_eq1", rng)
        return [_sweep("sweep-many_lemma4", rng), eq1, _sweep("sweep-many_thm1", rng, eq1.moduli),
                _sweep("sweep-many_thm2", rng)]
    if workload == "large-modulus":
        return [_sweep("large-modulus_eq1", rng), _sweep("large-modulus_thm2", rng)]
    if workload == "verify-identities":
        def prime_near(centre: int) -> int:
            return rng.choice([p for p in range(centre - centre // 100, centre + centre // 100) if is_prime(p)])

        p2, p3, pt = prime_near(1800), prime_near(2000), prime_near(2200)
        k = rng.choice([k for k in range(13, 60) if math.gcd(k, 2310) == 1])
        return [
            Verify("lemma1", ("--q", "101", "--a", rng.choice(("1", "3/2", "2", "5/2", "3")))),
            Verify("lemma2", ("--p", str(p2), "--f", random_cubic(rng, p2))),
            Verify("lemma3", ("--p", str(p3), "--f", random_cubic(rng, p3))),
            Verify("thm2", ("--p", str(pt), "--f", random_cubic(rng, pt), "--a", rng.choice(("1", "2", "3")))),
            Verify("recombination", ("--q", "2310", "--k", str(k), "--a", rng.choice(("1", "3/2", "2")))),
            Verify("orthogonality", ("--q", str(prime_near(1000)),)),
        ]
    if workload == "cache-reuse":
        return [_sweep("cache-reuse_eq1", rng)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Output checks

def load_reference(stem: str, poly_seed: int | None = None) -> dict[int, dict[str, str]]:
    name = stem if poly_seed is None else f"{stem}_seed{poly_seed}"
    with open(REFERENCE_DIR / f"{name}.csv", newline="") as handle:
        return {int(row["q"]): row for row in csv.DictReader(handle)}


def _num(text: str) -> float:
    return float(text) if text else 0.0


def row_matches(row: dict[str, str], ref: dict[str, str]) -> bool:
    """Compare one report row with the reference row for the same input.

    Identity columns must match exactly.  Values are compared at RTOL
    relative to the size of the left-hand side, since the residuals are
    differences of lhs-sized numbers.  route_agreement is floating-point
    noise for closed routes, so it is held to a ceiling, not to a value; the
    lemma4 rows, where the two closed routes coincide and the agreement is
    identically 0, are validated by the lhs comparison alone.
    """
    try:
        return _values_match(row, ref)
    except ValueError:  # a cell that is not a number
        return False


def _values_match(row: dict[str, str], ref: dict[str, str]) -> bool:
    if any(row[c] != ref[c] for c in ("target", "q", "a_num", "a_den", "k")):
        return False
    if (row["oracle_main"] == "") != (ref["oracle_main"] == ""):
        return False
    scale = abs(_num(ref["lhs_re"]))
    residual, normalized = _num(ref["residual"]), _num(ref["normalized_residual"])
    norm_scale = scale * abs(normalized / residual) if residual else scale
    tolerances = {
        "lhs_re": scale,
        "lhs_im": scale,
        "paper_main": abs(_num(ref["paper_main"])),
        "oracle_main": abs(_num(ref["oracle_main"])),
        "residual": scale,
        "normalized_residual": norm_scale,
    }
    for col, size in tolerances.items():
        if not abs(_num(row[col]) - _num(ref[col])) <= RTOL * size:  # also rejects NaN
            return False
    ceiling = max(_num(ref["route_agreement"]) * (1 + 1e-6), RTOL * scale)
    return _num(row["route_agreement"]) <= ceiling


def check_sweep(cmd: Sweep, text: str, reference: dict[int, dict[str, str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one sweep CSV; one operation per expected row."""
    expected = cmd.expected()
    rows = list(csv.reader(text.splitlines()))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        return len(expected), len(expected), [f"{cmd.target}: header {rows[0] if rows else None}"]
    well_formed = [r for r in rows[1:] if len(r) == len(CSV_COLUMNS) and r[1].isdigit()]
    records = [dict(zip(CSV_COLUMNS, r)) for r in well_formed]
    qs = [int(r["q"]) for r in records]
    if qs != sorted(qs):
        return len(expected), len(expected), [f"{cmd.target}: rows not sorted by q"]
    by_q = {int(r["q"]): r for r in records}
    failed = 0
    problems: list[str] = []
    for q in expected:
        row, ref = by_q.get(q), reference.get(q)
        if row is None:
            problem = f"no row for q={q}"
        elif ref is None:
            problem = f"no reference row for q={q}"
        elif not row_matches(row, ref):
            problem = f"row q={q} differs from the reference"
        else:
            continue
        failed += 1
        problems.append(f"{cmd.target}: {problem}")
    extra = len(rows) - 1 - sum(1 for q in expected if q in by_q)
    if extra:
        failed += extra
        problems.append(f"{cmd.target}: {extra} malformed or unexpected rows")
    return len(expected), failed, problems
