"""Integer layer: factorization, phi, mu, divisors, primitive roots.

Oracles here are independent brute-force loops, never the functions under
test.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lfunlab.arith import (
    Factorization,
    discrete_log_table,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    powers_mod,
    primitive_root,
)


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def brute_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def brute_mu(n: int) -> int:
    if n == 1:
        return 1
    m, sign = n, 1
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
    if m > 1:
        sign = -sign
    return sign


class TestFactorize:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, ()),
            (2, ((2, 1),)),
            (12, ((2, 2), (3, 1))),
            (360, ((2, 3), (3, 2), (5, 1))),
            (97, ((97, 1),)),
            (2**10, ((2, 10),)),
        ],
    )
    def test_known(self, n, expected):
        assert factorize(n).factors == expected

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        for p, e in f.factors:
            assert e >= 1
            assert brute_is_prime(p)
        # ascending prime order
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)

    def test_rejects_bad_input(self):
        for bad in (0, -5, 2**32 + 1):
            with pytest.raises(ValueError):
                factorize(bad)
        with pytest.raises(ValueError):
            factorize(3.0)


def test_is_prime_matches_sieve():
    assert [n for n in range(2, 200) if is_prime(n)] == [
        n for n in range(2, 200) if brute_is_prime(n)
    ]
    assert not is_prime(1)
    assert not is_prime(0)


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_brute(n):
    assert euler_phi(factorize(n)) == brute_phi(n)


@given(st.integers(min_value=1, max_value=2000))
def test_moebius_brute(n):
    assert moebius(factorize(n)) == brute_mu(n)


@given(st.integers(min_value=1, max_value=3000))
def test_divisors_brute(n):
    ds = divisors(factorize(n))
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_phi_mu_multiplicative_pairs():
    # over all coprime pairs with product <= 10^4
    for m in range(1, 101):
        fm = factorize(m)
        for n in range(1, 10**4 // m + 1):
            if math.gcd(m, n) != 1:
                continue
            fn, fmn = factorize(n), factorize(m * n)
            assert euler_phi(fmn) == euler_phi(fm) * euler_phi(fn)
            assert moebius(fmn) == moebius(fm) * moebius(fn)


def test_divisor_sum_identities():
    for q in range(1, 10**4 + 1):
        f = factorize(q)
        ds = divisors(f)
        mu_sum = sum(moebius(factorize(d)) for d in ds)
        assert mu_sum == (1 if q == 1 else 0)
        assert sum(euler_phi(factorize(d)) for d in ds) == q


class TestPrimitiveRoot:
    @pytest.mark.parametrize("pk", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 343])
    def test_generates_full_group(self, pk):
        g = primitive_root(pk)
        phi = brute_phi(pk)
        seen = set()
        x = 1
        for _ in range(phi):
            x = x * g % pk
            seen.add(x)
        assert len(seen) == phi

    @pytest.mark.parametrize("pk", [3, 5, 7, 9, 11, 25, 27])
    def test_smallest(self, pk):
        g = primitive_root(pk)
        phi = brute_phi(pk)
        for h in range(2, g):
            order = 1
            x = h % pk
            while x != 1:
                x = x * h % pk
                order += 1
            assert order < phi

    def test_matches_the_full_factorization_scan(self):
        # The scan factors only p - 1 (and takes pk's factorization from a
        # caller that has it); it must still return the root of the scan over
        # the factored group order, for every p^e and 2 p^e up to 10^4.
        def scan(pk):
            f = factorize(pk)
            phi = euler_phi(f)
            primes = factorize(phi).primes()
            return next(g for g in range(2, pk)
                        if math.gcd(g, pk) == 1 and all(pow(g, phi // r, pk) != 1 for r in primes))

        checked = 0
        for pk in range(3, 10**4 + 1):
            odd = [(p, e) for p, e in factorize(pk).factors if p != 2]
            if len(odd) != 1 or pk % 4 == 0:
                continue
            expected = scan(pk)
            assert primitive_root(pk) == expected, pk
            if pk % 2:
                assert primitive_root(pk, Factorization(pk, tuple(odd))) == expected, pk
            checked += 1
        assert checked > 1900

    def test_special_cases(self):
        assert primitive_root(1) == 1
        assert primitive_root(2) == 1
        assert primitive_root(4) == 3

    def test_rejects_noncyclic(self):
        for bad in (8, 12, 15, 16):
            with pytest.raises(ValueError):
                primitive_root(bad)


@pytest.mark.parametrize("pk", [3, 5, 9, 13, 25, 27, 49])
def test_discrete_log_roundtrip(pk):
    g = primitive_root(pk)
    table = discrete_log_table(pk, g)
    units = [n for n in range(1, pk) if math.gcd(n, pk) == 1]
    assert sorted(table) == units
    assert sorted(table.values()) == list(range(len(units)))
    for u, e in table.items():
        assert pow(g, e, pk) == u


def test_powers_mod_matches_pow_loop():
    rng = random.Random(2019)
    cases = [(3, 7, 0), (3, 7, 1), (5, 1, 6), (0, 11, 5), (22, 11, 4), (-3, 10, 9), (2, 3037000500, 40)]
    cases += [(rng.randrange(-10**6, 10**6), rng.randrange(1, 5000), rng.randrange(0, 3000)) for _ in range(200)]
    for g, m, count in cases:
        expected, x = [], 1 % m
        for _ in range(count):
            expected.append(x)
            x = x * g % m
        got = powers_mod(g, m, count)
        assert got.dtype == np.int64 and got.tolist() == expected, (g, m, count)


def test_discrete_log_rejects_non_generator():
    with pytest.raises(ValueError):
        discrete_log_table(7, 2)  # 2 has order 3 mod 7


def test_factorization_primes_view():
    f = factorize(60)
    assert isinstance(f, Factorization)
    assert f.primes() == (2, 3, 5)
