"""Rational interval arithmetic."""

from fractions import Fraction

import pytest

from indecomp.intervals import Interval, det2, det3


def test_construction_and_order():
    iv = Interval(1, 2)
    assert iv.lo == 1 and iv.hi == 2 and iv.width == 1
    assert Interval(3).lo == Interval(3).hi == 3
    with pytest.raises(ValueError):
        Interval(2, 1)


def test_fraction_endpoints_are_kept_and_values_unchanged():
    """A Fraction endpoint is stored as it is; anything else is wrapped by
    Fraction(), so equality and hash are those of the Fraction endpoints."""
    q, r = Fraction(-7, 3), Fraction(5, 2)
    assert Interval(q).lo is q and Interval(q).hi is q
    assert Interval(q, r).lo is q and Interval(q, r).hi is r
    for lo, hi in ((-2, 3), (q, r), (-3, r), (q, 3), (q, None), (4, None)):
        iv = Interval(lo, hi)
        want = (Fraction(lo), Fraction(lo if hi is None else hi))
        assert (iv.lo, iv.hi) == want and type(iv.lo) is type(iv.hi) is Fraction
        assert iv == Interval(*want) and hash(iv) == hash(want) == hash(Interval(*want))


def test_arithmetic_encloses_endpoints():
    a = Interval(Fraction(-1, 2), Fraction(3, 2))
    b = Interval(Fraction(1, 3), Fraction(2))
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            assert (a + b).lo <= x + y <= (a + b).hi
            assert (a - b).lo <= x - y <= (a - b).hi
            assert (a * b).lo <= x * y <= (a * b).hi


def test_square_is_tight():
    assert Interval(-2, 3).square() == Interval(0, 9)
    assert Interval(-3, -1).square() == Interval(1, 9)
    assert Interval(1, 2).square() == Interval(1, 4)


def test_determinants():
    ident2 = [[Interval(1), Interval(0)], [Interval(0), Interval(1)]]
    assert det2(ident2) == Interval(1)
    m3 = [[Interval(i == j) for j in range(3)] for i in range(3)]
    assert det3(m3) == Interval(1)
    wide = [[Interval(0, 1) for _ in range(3)] for _ in range(3)]
    d = det3(wide)
    assert d.lo <= 0 <= d.hi
