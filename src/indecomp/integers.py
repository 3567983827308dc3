"""Integer factorization helpers: trial division, Pollard rho, squarefree tests."""

from __future__ import annotations

import itertools
import math

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

TRIAL_DIVISION_BOUND = 10**6
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # from 7, the gaps between the integers prime to 30


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
    """One nontrivial factor of a composite n free of primes up to
    TRIAL_DIVISION_BOUND: Brent's cycle finding on x -> x^2 + c with one gcd
    per batch of 128 steps (Brent, BIT 20, 1980).  A batch whose gcd is n
    starts over with the next c."""
    for c in itertools.count(2):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _rho_factors(n: int, factors: dict[int, int]) -> dict[int, int]:
    """factors, with the prime factors of n >= 1 added by Pollard rho."""
    if n > 1 and is_probable_prime(n):
        factors[n] = factors.get(n, 0) + 1
    elif n > 1:
        f = _pollard_rho(n)
        _rho_factors(f, factors)
        _rho_factors(n // f, factors)
    return factors


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
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        for gap in _WHEEL:
            while n % d == 0:
                factors[d] = factors.get(d, 0) + 1
                n //= d
            d += gap
    return _rho_factors(n, factors)


def is_squarefree(n: int) -> bool:
    """Whether |n| is squarefree (n = 0 is not; units are).

    Trial division stops once d^3 > n: every prime factor of the cofactor n
    is then >= d, so n is 1, p, p*q or p^2 and one math.isqrt decides.  A
    cofactor left at TRIAL_DIVISION_BOUND goes to Pollard rho directly.
    """
    n = abs(n)
    if n == 0:
        return False
    for d in (2, 3, 5):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
    d = 7
    while d * d * d <= n:
        if d > TRIAL_DIVISION_BOUND:
            return all(e == 1 for e in _rho_factors(n, {}).values())
        for gap in _WHEEL:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return False
            d += gap
    r = math.isqrt(n)
    return n == 1 or r * r != n


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
