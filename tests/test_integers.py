"""Factorization and squarefree helpers."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from indecomp.errors import IndecompError
from indecomp.integers import (
    TRIAL_DIVISION_BOUND,
    factorize,
    icbrt,
    is_probable_prime,
    is_squarefree,
)

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


def test_out_of_domain_arguments_raise_library_errors():
    with pytest.raises(IndecompError, match="factorize expects a positive integer"):
        factorize(0)
    with pytest.raises(IndecompError, match="icbrt expects n >= 0"):
        icbrt(-8)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.integers(1, 10**9),
        st.tuples(st.integers(2, 3000), st.integers(1, 10**5)).map(lambda t: t[0] ** 2 * t[1]),
    )
)
def test_squarefree_and_factorize_match_sympy_factorint(n):
    want = sympy.factorint(n)
    assert factorize(n) == want
    assert is_squarefree(n) == all(e == 1 for e in want.values())


@pytest.mark.parametrize("n", [1000003**2 * 7, 999983**2, 1000003 * 999983 * 7])
def test_squarefree_around_the_trial_division_bound(n):
    """999983 is the largest prime below the bound and 1000003 the smallest above it."""
    assert 999983 < TRIAL_DIVISION_BOUND < 1000003
    want = sympy.factorint(n)
    assert factorize(n) == want
    assert is_squarefree(n) == all(e == 1 for e in want.values())


def _sympy_squarefree(n):
    return all(e == 1 for e in sympy.factorint(n).values())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(3, 10**5),
    st.integers(1, 60),
    st.sampled_from(["p^2", "p*q near p^3", "p*q", "p^2*q near p^3", "cube"]),
)
def test_squarefree_around_the_cube_root_cut(k, j, shape):
    """Trial division stops once d^3 > n; the cofactor is then p, p*q or p^2."""
    p = sympy.nextprime(k)
    if shape == "p^2":
        n = p * p
    elif shape == "p*q near p^3":  # p just above n^(1/3)
        n = p * sympy.prevprime(p * p - j)
    elif shape == "p*q":
        n = p * sympy.nextprime(p + j)
    elif shape == "p^2*q near p^3":  # q just below n^(1/3) < p
        n = p * p * sympy.prevprime(max(p - j, 3))
    else:
        n = k**3
    assert is_squarefree(n) == _sympy_squarefree(n)
    assert is_squarefree(-n) == is_squarefree(n)


@pytest.mark.parametrize(
    "n",
    [
        999999937 * 1000000007,  # just below 10^18: the cube-root cut ends trial division
        1000003**3 - 1,
        1000003**3,  # the trial-division bound hands off to factorize
        1000000007**2,
        sympy.nextprime(1000005000) ** 2,
        999983**2 * 1000003,
        1000003**2 * 1000033,
        10**18 + 9,
    ],
)
def test_squarefree_near_ten_to_the_eighteen(n):
    assert is_squarefree(n) == _sympy_squarefree(n)
