"""Rational interval arithmetic used for rigorous embedding bounds.

All endpoints are Fractions, all operations round outward (they are exact,
so "outward" just means the result interval encloses the true range).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Interval:
    """A closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        # a Fraction is immutable, so one is kept as it is
        lo = lo if lo.__class__ is Fraction else Fraction(lo)
        hi = lo if hi is None else hi if hi.__class__ is Fraction else Fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def square(self) -> "Interval":
        """Exact range of x^2 for x in the interval (tighter than self*self)."""
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(0, max(self.lo * self.lo, self.hi * self.hi))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(Fraction(x))


def det2(m: Sequence[Sequence[Interval]]) -> Interval:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m: Sequence[Sequence[Interval]]) -> Interval:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det(m: Sequence[Sequence[Interval]]) -> Interval:
    if len(m) == 2:
        return det2(m)
    if len(m) == 3:
        return det3(m)
    raise ValueError("only 2x2 and 3x3 interval determinants are supported")
