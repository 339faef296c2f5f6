"""Elementary multiplicative arithmetic.

Integer factorization by deterministic trial division, the multiplicative
functions built on top of it (Euler phi, Moebius mu, divisor lists), smallest
primitive roots of prime powers, and discrete-logarithm tables for cyclic unit
groups.  Everything here is exact integer arithmetic; no floats.  The
power and log tables are int64 numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p_i^e_i with p_1 < p_2 < ... ."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division.

    Deterministic and exact for any n this package handles (moduli stay far
    below 2**32, so the sqrt(n) scan is cheap).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"factorize expects an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n > 2**32:
        raise ValueError(f"factorize supports n <= 2^32, got {n}")
    m, p, factors = n, 2, []
    while p * p <= m:  # 2, then the odd candidates; the prime factors come out ascending
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


def euler_phi(f: Factorization) -> int:
    """phi(n) from the factorization: prod p^(e-1) (p - 1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def moebius(f: Factorization) -> int:
    """mu(n): 0 if any square divides n, else (-1)^(number of prime factors)."""
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primitive_root(pk: int, fac: Factorization | None = None) -> int:
    """Smallest primitive root modulo pk.

    Only moduli with cyclic unit groups are accepted: 1, 2, 4, p^e, 2 p^e for
    odd primes p.  fac is the factorization of pk when the caller has it (a
    table build passes each prime power of q); otherwise pk is factored
    here.  The group order phi = p^(e-1) (p - 1) has the primes of p - 1,
    and p when e > 1, so only p - 1 is factored.  Candidates are scanned in
    increasing order: g is taken at the first unit with g^(phi/r) != 1 for
    every prime r | phi, smallest r first, so the result is deterministic.
    """
    if pk < 1:
        raise ValueError(f"primitive_root expects pk >= 1, got {pk}")
    if pk in (1, 2):
        return 1  # trivial unit group
    if pk == 4:
        return 3
    f = factorize(pk) if fac is None else fac
    odd = [(p, e) for p, e in f.factors if p != 2]
    two_exp = next((e for p, e in f.factors if p == 2), 0)
    cyclic = len(odd) == 1 and two_exp <= 1
    if not cyclic:
        raise ValueError(f"unit group mod {pk} is not cyclic; no primitive root exists")
    (p, e), = odd
    phi = p ** (e - 1) * (p - 1)
    exponents = [phi // r for r in factorize(p - 1).primes() + ((p,) if e > 1 else ())]  # r ascending
    for g in range(2, pk):
        if math.gcd(g, pk) == 1:
            for x in exponents:
                if pow(g, x, pk) == 1:
                    break
            else:
                return g
    raise ValueError(f"no primitive root found modulo {pk}")  # unreachable for valid pk


def powers_mod(g: int, m: int, count: int) -> np.ndarray:
    """g^t mod m for t = 0 .. count-1 as int64, by baby and giant steps: with
    b = ceil(sqrt(count)), g^(b j + i) = g^(b j) g^i, the b baby powers g^i
    and the giant powers g^(b j) taken in exact Python ints and combined by
    one int64 outer product mod m.  Products stay below m^2 < 2^63."""
    if (m - 1) ** 2 >= 2**63:
        raise ValueError(f"powers_mod needs (m - 1)^2 < 2^63, got m = {m}")
    b = math.isqrt(max(count - 1, 0)) + 1
    baby = [1 % m]
    for _ in range(b - 1):
        baby.append(baby[-1] * g % m)
    giant, g_b = [1 % m], baby[-1] * g % m
    for _ in range(-(-count // b) - 1):
        giant.append(giant[-1] * g_b % m)
    pows = np.multiply.outer(np.array(giant, dtype=np.int64), np.array(baby, dtype=np.int64))
    return np.remainder(pows, m, out=pows).ravel()[:count]


def discrete_log_array(pk: int, g: int) -> np.ndarray:
    """Length-pk int64 array: entry u is the exponent t with g^t = u (mod pk)
    for each unit u, and -1 on non-units.

    g must generate the full unit group: a repeated power, or g^phi(pk) != 1,
    raises ValueError.
    """
    if pk < 1:
        raise ValueError(f"discrete logs need pk >= 1, got {pk}")
    if pk > 1 and math.gcd(g, pk) != 1:
        raise ValueError(f"{g} is not a unit modulo {pk}")
    phi = euler_phi(factorize(pk))
    pows = powers_mod(g, pk, phi)
    logs = np.full(pk, -1, dtype=np.int64)
    logs[pows] = np.arange(phi)
    if np.count_nonzero(logs >= 0) != phi or int(pows[-1]) * g % pk != 1 % pk:
        raise ValueError(f"{g} does not generate the units modulo {pk}")
    return logs


def discrete_log_table(pk: int, g: int) -> dict[int, int]:
    """Map unit residue -> exponent t with g^t = residue (mod pk).

    g must generate the full unit group; the table has exactly phi(pk)
    entries, one per unit, with exponents 0 .. phi(pk)-1.  A dict view of
    discrete_log_array.
    """
    logs = discrete_log_array(pk, g)
    units = np.flatnonzero(logs >= 0)
    return dict(zip(units.tolist(), logs[units].tolist()))
