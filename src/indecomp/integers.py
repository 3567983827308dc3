"""Integer factorization helpers: trial division, Pollard rho, squarefree tests."""

from __future__ import annotations

import math
from functools import lru_cache

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

TRIAL_DIVISION_BOUND = 10**6


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..41.

    Deterministic for n < 3317044064679887385961981 (Sorenson and Webster,
    Math. Comp. 2017); above that bound True means "probable prime".
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Floyd's cycle detection)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = y = 2
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_probable_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            f = _pollard_rho(m)
            stack.append(f)
            stack.append(m // f)
    return factors


@lru_cache(maxsize=None)
def is_squarefree(n: int) -> bool:
    """Whether |n| is squarefree (n = 0 is not; units are)."""
    n = abs(n)
    if n == 0:
        return False
    if n <= 3:
        return True
    for p in (2, 3, 5):
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += wheel[w]
        w = (w + 1) % 8
    if n == 1:
        return True
    if d * d > n:
        return True  # remaining cofactor is prime
    return all(e == 1 for e in factorize(n).values())


def icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0."""
    if n < 0:
        raise ValueError("icbrt expects n >= 0")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)  # a power of two >= the cube root
    while True:
        # integer Newton step; it decreases strictly until x = floor(cbrt(n))
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y
