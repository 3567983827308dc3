"""Factorization and squarefree helpers."""

import math
import random

from indecomp.integers import factorize, icbrt, is_probable_prime, is_squarefree

RNG = random.Random(60601)


def test_factorize_roundtrip():
    for _ in range(300):
        n = RNG.randint(1, 10**7)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_is_squarefree_reference():
    def slow(n):
        n = abs(n)
        if n == 0:
            return False
        return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))

    for n in range(1, 2000):
        assert is_squarefree(n) == slow(n), n
    assert not is_squarefree(0)
    assert is_squarefree(-10) and not is_squarefree(-12)


def test_icbrt():
    for n in list(range(0, 200)) + [10**9, 10**12 + 7]:
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_icbrt_large():
    n = 10**400
    r = icbrt(n)
    assert r**3 <= n < (r + 1) ** 3
    for k in (10**40 + 7, 3**200, 2**333 - 1):
        assert icbrt(k**3 - 1) == k - 1
        assert icbrt(k**3) == k
        assert icbrt(k**3 + 1) == k


def test_miller_rabin_strong_pseudoprime_to_bases_up_to_37():
    # the smallest strong pseudoprime to every prime base 2..37
    p, q = 399165290221, 798330580441
    assert not is_probable_prime(p * q)
    assert is_probable_prime(p) and is_probable_prime(q)
    assert not is_squarefree(p * p * q)


def test_miller_rabin_small():
    primes = {p for p in range(2, 2000) if all(p % d for d in range(2, p))}
    for n in range(2, 2000):
        assert is_probable_prime(n) == (n in primes)
