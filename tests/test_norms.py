"""Norm counting: fast pairs, HNF ideals, brute force, squarefree table rows."""

import itertools
import math
import random

import pytest

from indecomp.errors import BoundTooLarge, GuardExceeded, ZeroElement
from indecomp.families import TrianglePoint, indecomposables_simplest
from indecomp.norms import (
    count_bruteforce,
    count_exact,
    count_fast,
    ideal_hnf,
    max_norm_indecomposable,
    sq_count,
    sum_norm,
)
from indecomp.order_kernel import (
    Family,
    conjugate,
    elem,
    make_field,
    mul,
    norm,
    one,
    unit_generators,
)

RNG = random.Random(77007)


def test_sum_norm_closed_form():
    for a in (3, 7, 50):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert sum_norm(a, 1, 0) == 1
        assert sum_norm(a, 1, 1) == 2 * a + 3
        for w in range(0, 12):
            assert sum_norm(a, 1, w) == -w**3 + a * w * w + (a + 3) * w + 1
        for _ in range(100):
            k, w = RNG.randint(1, 9), RNG.randint(0, 30)
            assert sum_norm(a, k, w) == norm(elem(f, 0, -w, k))


def test_count_fast_thresholds():
    a = 7
    assert count_fast(a, 2 * a + 2).count == 0
    res = count_fast(a, 2 * a + 3)
    assert [(p.k, p.w) for p in res.pairs] == [(1, 1)]
    assert count_fast(a, 1).count == 0
    assert count_fast(a, 1, include_unit=True).count == 1
    with pytest.raises(BoundTooLarge):
        count_fast(a, a * a + 1)


def test_count_fast_pairs_are_primitive_tp():
    from indecomp.order_kernel import is_totally_positive
    import math

    for a in (7, 50):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        for p in count_fast(a, a * a).pairs:
            assert math.gcd(p.k, p.w) == 1
            el = elem(f, 0, -p.w, p.k)
            assert is_totally_positive(el)
            assert 1 <= norm(el) <= a * a
            assert a * p.k * p.k * p.w < a * a and a * p.k * p.w * p.w < a * a


def test_ideal_hnf_basics():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert ideal_hnf(one(f)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    beta = elem(f, 0, -1, 1)
    for eps in unit_generators(f).totally_positive + unit_generators(f).fundamental:
        assert ideal_hnf(beta) == ideal_hnf(mul(beta, eps))
    assert ideal_hnf(beta) != ideal_hnf(conjugate(beta))
    assert ideal_hnf(beta).det == abs(norm(beta)) == 17
    with pytest.raises(ZeroElement):
        ideal_hnf(elem(f, 0, 0, 0))
    for _ in range(100):
        x = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9), RNG.randint(-9, 9))
        if x.is_zero():
            continue
        h = ideal_hnf(x)
        assert h.det == abs(norm(x))
        assert h.rows[0][1] == h.rows[0][2] == h.rows[1][2] == 0


def test_count_exact_spot_values():
    assert count_exact(7, 1) == 0
    assert count_exact(7, 1, include_unit=True) == 1
    assert count_exact(7, 17) == 3  # the norm-17 ideal and its two conjugates
    assert count_exact(7, 16) == 0


def test_count_bruteforce_guard_and_monotone():
    with pytest.raises(GuardExceeded):
        count_bruteforce(13, 10)
    with pytest.raises(BoundTooLarge):
        count_bruteforce(7, 50)
    a = 7
    assert count_bruteforce(a, 2 * a + 2) == 0
    prev = 0
    for X in range(1, a * a + 1):
        cur = count_bruteforce(a, X)
        assert cur >= prev
        prev = cur


def test_count_exact_bracketed_by_fast():
    """count_fast <= count_exact <= 3*count_fast + 1 (conjugate multiplicity)."""
    for a in (7, 8, 50, 100):
        for X in {2 * a + 3, a * a // 2, a * a}:
            cf = count_fast(a, X).count
            ce = count_exact(a, X)
            assert cf <= ce <= 3 * cf + 1, (a, X, cf, ce)


def test_sq_count_table_rows():
    for a, want in ((-1, 2), (0, 2), (1, 5), (2, 8), (7, 38), (25, 341), (50, 1166)):
        assert sq_count(a) == want, a


def test_sq_count_bounded_by_inventory():
    for a in (-1, 0, 1, 2, 4, 7, 11):
        total = len(indecomposables_simplest(a))
        assert sq_count(a) <= total
        if a in (-1, 1):
            assert sq_count(a) == total


def test_max_norm_examples():
    pt, mx = max_norm_indecomposable(4)
    assert (pt, mx) == (TrianglePoint(1, 1), 47)
    for a in range(10, 31):
        pt, mx = max_norm_indecomposable(a)
        assert abs(3 * pt.v - a) + abs(3 * pt.W - a) <= 6  # L1 distance <= 2
        # the argmax is the closest point to the center (ties broken toward it)
        best = min(
            (
                (abs(3 * v - a) + abs(3 * W - a), v, W)
                for v in range(a + 1)
                for W in range(a - v + 1)
            ),
        )
        assert (abs(3 * pt.v - a) + abs(3 * pt.W - a)) == best[0]


def test_max_norm_band():
    """27 * max / a^4 band over 20 <= a <= 30, frozen from measurement."""
    for a in range(20, 31):
        _, mx = max_norm_indecomposable(a)
        assert 12 * a**4 <= 10 * 27 * mx <= 14 * a**4  # ratio in [1.2, 1.4]
    # the ratio drifts down toward 1 as a grows
    _, mx = max_norm_indecomposable(200)
    assert 27 * mx < 1.04 * 200**4


@pytest.mark.parametrize("a", [3, 4, 5])
def test_bruteforce_simplex_hull_matches_full_parallelepiped_hull(a):
    """The brute-force scan covers the simplex {sum u_j <= X^(1/3)}; scanning the
    coordinate hull of the whole scaled parallelepiped finds the same ideals."""
    from indecomp.families import standard_parallelepipeds
    from indecomp.integers import icbrt
    from indecomp.norms import _bruteforce_ideals
    from indecomp.order_kernel import OrderElement, sym_funcs

    field = make_field(Family.SIMPLEST_CUBIC, a)
    X = a * a
    bound = icbrt(X) + 1
    found = {}
    for gens in standard_parallelepipeds(field):
        coords = [g.coords for g in gens]
        lo = [bound * sum(min(0, c[i]) for c in coords) for i in range(3)]
        hi = [bound * sum(max(0, c[i]) for c in coords) for i in range(3)]
        for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if x == (0, 0, 0) or math.gcd(*x) != 1:
                continue
            el = OrderElement(x, field)
            s = sym_funcs(el)  # totally positive with 1 < N(el) <= X
            if s.e1 <= 0 or s.e2 <= 0 or not 1 < s.e3 <= X:
                continue
            h = ideal_hnf(el)
            found[h.rows] = h.det
    assert tuple(sorted(zip(found.values(), found.keys()))) == _bruteforce_ideals(a)
