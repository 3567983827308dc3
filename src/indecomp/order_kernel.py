"""Exact arithmetic in monogenic orders Z[rho]: cubic and quadratic fields.

One element type serves both degrees; the coordinate count d is the degree
of the field's minimal polynomial, and the kernel keeps one closed form per
degree.  Root isolation serves both degrees; conjugation and units are for
the cubic families.  Nothing here refines root intervals until a sign is
decided (`oracle._context` is the one loop that does), and the Galois
conjugation is certified with exact signs, not intervals.

Everything here is exact: coordinates are Python integers, root intervals
have Fraction endpoints, and total positivity is decided from the signs of
elementary symmetric functions, never from floating point.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    NotAUnit,
    NotGalois,
    NotTotallyReal,
    Reducible,
    RefinementLimit,
    ZeroElement,
)
from .hnf import adjugate
from .intervals import Interval

REFINEMENT_CAP = 64  # hard cap on width-halving rounds


class Family(enum.Enum):
    SIMPLEST_CUBIC = "simplest"
    ENNOLA = "ennola"
    THOMAS = "thomas"
    CUSTOM_CUBIC = "custom"


@dataclass(frozen=True)
class FieldSpec:
    """A cubic order Z[rho], rho a root of x^3 + c2 x^2 + c1 x + c0."""

    family: Family
    a: int | None
    c2: int
    c1: int
    c0: int
    # (c2, c1, c0), stored: every element construction reads its length
    minpoly: tuple[int, int, int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "minpoly", (self.c2, self.c1, self.c0))

    @property
    def discriminant(self) -> int:
        b, c, d = self.c2, self.c1, self.c0
        return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d

    def __repr__(self):
        sign = lambda k: f"+{k}" if k >= 0 else str(k)
        return (
            f"FieldSpec({self.family.value}, a={self.a}, "
            f"x^3{sign(self.c2)}x^2{sign(self.c1)}x{sign(self.c0)})"
        )


_FAMILY_RANGES = {
    Family.SIMPLEST_CUBIC: -1,
    Family.ENNOLA: 3,
    Family.THOMAS: 2,
}


def _root_bound(minpoly: tuple[int, ...]) -> int:
    """B = 1 + max |c_k|: every root of x^d + c_(d-1) x^(d-1) + ... + c_0 lies in (-B, B)."""
    return 1 + max(map(abs, minpoly))


def _integer_root(c2: int, c1: int, c0: int) -> int | None:
    """An integer root of f = x^3 + c2 x^2 + c1 x + c0, or None.

    Roots lie in [-B, B], B = `_root_bound`.  The critical points
    (-c2 -+ sqrt(c2^2 - 3 c1)) / 3, bracketed between integers with isqrt,
    cut that range into at most three pieces on which f is monotone, plus at
    most six integers next to the critical points that are tested directly.
    Integer bisection finds the only candidate of each piece, so the cost is
    O(log B) evaluations of f.
    """

    def f(t: int) -> int:
        return ((t + c2) * t + c1) * t + c0

    bound = _root_bound((c2, c1, c0))
    d = c2 * c2 - 3 * c1  # f' = 3x^2 + 2 c2 x + c1 changes sign iff d > 0
    if d <= 0:
        pieces, candidates = [(-bound, bound, 1)], []
    else:
        s = math.isqrt(d)  # s <= sqrt(d) < s + 1
        lo1, hi1 = (-c2 - s - 1) // 3, -((c2 + s) // 3)  # lo1 <= t1 <= hi1
        lo2, hi2 = (s - c2) // 3, -((c2 - s - 1) // 3)  # lo2 <= t2 <= hi2
        pieces = [(-bound, lo1, 1), (hi1, lo2, -1), (hi2, bound, 1)]
        candidates = [*range(lo1, hi1 + 1), *range(lo2, hi2 + 1)]
    for lo, hi, sign in pieces:
        # least t in [lo, hi] with sign * f(t) >= 0: the root if the piece holds one
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        candidates.append(lo)
    return next((t for t in candidates if f(t) == 0), None)


def _check_cubic(field: FieldSpec) -> None:
    # a rational root of a monic integer cubic is an integer
    if field.c0 == 0:
        raise Reducible("constant coefficient 0: x divides the cubic")
    r = _integer_root(*field.minpoly)
    if r is not None:
        raise Reducible(f"rational root {r}")
    if field.discriminant <= 0:
        raise NotTotallyReal(f"discriminant {field.discriminant} <= 0")


@lru_cache(maxsize=None)
def make_field(family: Family, a: int) -> FieldSpec:
    """Build the order for one of the parametrized families."""
    if family not in _FAMILY_RANGES:
        raise IllegalParameter("use make_custom_field for custom cubics")
    if a < _FAMILY_RANGES[family]:
        raise IllegalParameter(f"{family.value} family needs a >= {_FAMILY_RANGES[family]}, got {a}")
    if family is Family.SIMPLEST_CUBIC:
        c2, c1, c0 = -a, -(a + 3), -1
    elif family is Family.ENNOLA:
        c2, c1, c0 = a - 1, -a, -1
    else:
        c2, c1, c0 = -(2 * a + 2), a * (a + 2), -1
    field = FieldSpec(family, a, c2, c1, c0)
    _check_cubic(field)
    return field


def make_custom_field(c2: int, c1: int, c0: int) -> FieldSpec:
    """Any monic, irreducible, totally real integer cubic."""
    field = FieldSpec(Family.CUSTOM_CUBIC, None, c2, c1, c0)
    _check_cubic(field)
    return field


@dataclass(frozen=True)
class OrderElement:
    """Immutable sum_j coords[j] * rho^j with exact integer coordinates.

    field is a cubic FieldSpec or a quadratic.QuadField: the order is
    Z[rho] for a root rho of the monic field.minpoly, and there is one
    coordinate per power 1, rho, ..., rho^(d-1), d = len(field.minpoly).
    """

    coords: tuple[int, ...]
    field: FieldSpec

    def __post_init__(self):
        if len(self.coords) != len(self.field.minpoly):
            raise ValueError(f"coords must have {len(self.field.minpoly)} entries")

    def _co(self, other):
        if isinstance(other, OrderElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return OrderElement((other,) + (0,) * (len(self.coords) - 1), self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        return OrderElement(tuple(map(operator.add, self.coords, other.coords)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        return OrderElement(tuple(map(operator.sub, self.coords, other.coords)), self.field)

    def __rsub__(self, other):
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return OrderElement(tuple([-v for v in self.coords]), self.field)

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(tuple([other * v for v in self.coords]), self.field)
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return unit_inverse(self) ** (-n)
        result = one(self.field)
        base = self
        while n:
            if n & 1:
                result = mul(result, base)
            base = mul(base, base)
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.coords)

    def norm(self) -> int:
        return norm(self)

    def __repr__(self):
        return f"OrderElement{self.coords}"


def elem(field: FieldSpec, *coords: int) -> OrderElement:
    return OrderElement(coords, field)


def one(field: FieldSpec) -> OrderElement:
    return OrderElement((1,) + (0,) * (len(field.minpoly) - 1), field)


def rho(field: FieldSpec) -> OrderElement:
    return OrderElement((0, 1) + (0,) * (len(field.minpoly) - 2), field)


def mul(x: OrderElement, y: OrderElement) -> OrderElement:
    """Exact product, reduced to the (1, rho, ...) basis."""
    f = x.field
    if y.field is not f and y.field != f:
        raise FieldMismatch(f"{f} vs {y.field}")
    if len(x.coords) == 2:
        a1, a2 = x.coords
        b1, b2 = y.coords
        c1, c0 = f.minpoly  # rho^2 = -c1 rho - c0
        r2 = a2 * b2
        return OrderElement((a1 * b1 - c0 * r2, a1 * b2 + a2 * b1 - c1 * r2), f)
    a1, a2, a3 = x.coords
    b1, b2, b3 = y.coords
    # rho^4 = -c2 rho^3 - c1 rho^2 - c0 rho, then rho^3 = -c2 rho^2 - c1 rho - c0
    r4 = a3 * b3
    r3 = a2 * b3 + a3 * b2 - f.c2 * r4
    r0 = a1 * b1 - f.c0 * r3
    r1 = a1 * b2 + a2 * b1 - f.c0 * r4 - f.c1 * r3
    r2 = a1 * b3 + a2 * b2 + a3 * b1 - f.c1 * r4 - f.c2 * r3
    return OrderElement((r0, r1, r2), f)


def _rho_columns(v1: int, v2: int, v3: int, c2: int, c1: int, c0: int):
    """Coordinates of x*rho and x*rho^2 for x = v1 + v2*rho + v3*rho^2.

    Each step multiplies by rho and reduces with rho^3 = -c2 rho^2 - c1 rho - c0.
    """
    p1, p2, p3 = -c0 * v3, v1 - c1 * v3, v2 - c2 * v3
    return (p1, p2, p3), (-c0 * p3, p1 - c1 * p3, p2 - c2 * p3)


def multiplication_matrix(x: OrderElement) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by x on the basis (1, rho, ...), columns are images."""
    f = x.field
    if len(x.coords) == 2:
        v1, v2 = x.coords
        c1, c0 = f.minpoly  # x*rho = -c0 v2 + (v1 - c1 v2) rho
        return ((v1, -c0 * v2), (v2, v1 - c1 * v2))
    v1, v2, v3 = x.coords
    (p1, p2, p3), (q1, q2, q3) = _rho_columns(v1, v2, v3, f.c2, f.c1, f.c0)
    return ((v1, p1, q1), (v2, p2, q2), (v3, p3, q3))


def sym_funcs(x: OrderElement) -> tuple[int, ...]:
    """Elementary symmetric functions (e1, ..., e_d) of the conjugates of x.

    They are the characteristic-polynomial coefficients of the multiplication
    matrix: e1 = Tr(x) is its trace, e_d = N(x) its determinant, and for
    d = 3, e2 is the sum of its principal 2x2 minors.
    """
    f = x.field
    if len(x.coords) == 2:
        v1, v2 = x.coords
        c1, c0 = f.minpoly
        p2 = v1 - c1 * v2
        return (v1 + p2, v1 * p2 + c0 * v2 * v2)
    v1, v2, v3 = x.coords
    (p1, p2, p3), (q1, q2, q3) = _rho_columns(v1, v2, v3, f.c2, f.c1, f.c0)
    minor = p2 * q3 - q2 * p3
    return (
        v1 + p2 + q3,
        v1 * p2 - p1 * v2 + v1 * q3 - q1 * v3 + minor,
        v1 * minor - p1 * (v2 * q3 - q2 * v3) + q1 * (v2 * p3 - p2 * v3),
    )


def trace(x: OrderElement) -> int:
    return sym_funcs(x)[0]


def norm(x: OrderElement) -> int:
    return sym_funcs(x)[-1]


def is_totally_positive(x: OrderElement) -> bool:
    """All conjugates positive, decided symbolically from the signs of (e1, ..., e_d).

    Every field here is totally real, so the conjugates are all positive
    exactly when every e_k > 0.
    """
    if x.is_zero():
        raise ZeroElement("total positivity is undefined for 0")
    return min(sym_funcs(x)) > 0


def unit_inverse(x: OrderElement) -> OrderElement:
    """Exact inverse of a unit (norm +-1)."""
    n = norm(x)
    if n not in (1, -1):
        raise NotAUnit(f"norm {n}")
    adj, _ = adjugate(multiplication_matrix(x))
    # x^{-1} = adj / n applied to the coordinates of 1, and 1/n = n
    return OrderElement(tuple(n * row[0] for row in adj), x.field)


# ---------------------------------------------------------------------------
# Real root isolation (critical-point root counts, exact-sign bisection)
#
# field is a cubic FieldSpec or a quadratic.QuadField: only field.minpoly,
# and for the simplest family field.family and field.a, are read.


@dataclass(frozen=True)
class RootIntervals:
    """Isolating intervals with rational endpoints, one per real root.

    Ordering: SimplestCubic uses (largest, the root in (-2,-1), the root in
    (-1,0)); every other field is ordered descending by value.  Neighbours
    are disjoint or share one endpoint, which is not a root.
    """

    field: FieldSpec
    intervals: tuple[Interval, ...]
    width: Fraction


def poly_eval(field, t: Fraction) -> Fraction:
    """f(t) for the monic f = field.minpoly, by Horner's rule."""
    acc = t + field.minpoly[0]
    for c in field.minpoly[1:]:
        acc = acc * t + c
    return acc


def _critical_below(field, t: Fraction) -> int:
    """How many critical points of f (roots of f') lie below t.

    A quadratic's one critical point is -c1/2.  A cubic's are
    (-c2 -+ sqrt(d))/3 with d = c2^2 - 3 c1 > 0 (three real roots), the d
    that `_integer_root` brackets with isqrt; with u = 3t + c2, the tests
    -sqrt(d) < u and sqrt(d) < u are exact by squaring.
    """
    if len(field.minpoly) == 2:
        return int(2 * t + field.minpoly[0] > 0)
    c2, c1, _ = field.minpoly
    u, d = 3 * t + c2, c2 * c2 - 3 * c1
    return (u >= 0 or u * u < d) + (u > 0 and u * u > d)


def _root_count(field, lo: Fraction, hi: Fraction) -> int:
    """The number of roots of f in (lo, hi); neither endpoint may be a root.

    f has simple real roots, so it is monotone between neighbouring critical
    points, and its values there alternate in sign, negative at the largest.
    Each root is then one sign change along f(lo), the critical values in
    [lo, hi) and f(hi).
    """
    d = len(field.minpoly)
    signs = [poly_eval(field, lo) > 0]
    for k in range(_critical_below(field, lo), _critical_below(field, hi)):
        signs.append((d - 1 - k) % 2 == 0)
    signs.append(poly_eval(field, hi) > 0)
    return sum(map(operator.ne, signs, signs[1:]))


def _bracket_roots(field) -> list[tuple[Fraction, Fraction]]:
    """One isolating bracket per root, by bisection of [-B, B], B = `_root_bound`.

    Two roots in one piece lie closer than its width.  Mahler's bound
    (Mathematika 11, 1964) with |disc| >= 1 and M(f) <= ||f||_2 keeps every
    two roots at least sep = d^(-(d+2)/2) * ||f||_2^(-(d-1)) apart.  So a
    count outside [0, d], or a count >= 2 on a piece narrower than sep, is a
    fault of the count and raises instead of bisecting forever.
    """
    d = len(field.minpoly)
    bound = _root_bound(field.minpoly)
    # width < sep  <=>  width^2 * scale < 1, exact in rationals
    scale = d ** (d + 2) * (1 + sum(c * c for c in field.minpoly)) ** (d - 1)
    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, _root_count(field, lo, hi))]
    isolated: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi, count = stack.pop()
        if not 0 <= count <= d:
            raise ConsistencyError(f"root count {count} on ({lo}, {hi}) is outside [0, {d}]")
        if count == 0:
            continue
        if count == 1:
            isolated.append((lo, hi))
            continue
        if (hi - lo) ** 2 * scale < 1:
            raise ConsistencyError(
                f"{count} roots counted on ({lo}, {hi}), narrower than the root separation"
            )
        # the roots are irrational, so mid is not one of them
        mid = (lo + hi) / 2
        left = _root_count(field, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    if len(isolated) != len(field.minpoly):
        raise ConsistencyError(f"root isolation found {len(isolated)} roots")
    return isolated


def _bisect_to_width(field, lo: Fraction, hi: Fraction, width: Fraction) -> Interval:
    flo = poly_eval(field, lo)
    if flo == 0 or poly_eval(field, hi) == 0:
        raise ConsistencyError(f"isolating interval [{lo}, {hi}] has a root endpoint")
    neg_at_lo = flo < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = poly_eval(field, mid)
        # roots are irrational, so fm != 0
        if (fm < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def _seed_intervals(field) -> list[tuple[Fraction, Fraction]] | None:
    """Known bracketing intervals for the SimplestCubic roots, valid for a >= 7.

    Kept because it pays: isolating the roots of the simplest fields
    a = 50, 52, ..., 400 to the default width takes about 0.07 s from these
    seeds and 0.25-0.3 s from `_bracket_roots` (Python 3.11, one Xeon core),
    and every field a workload touches pays that once when it is set up.
    The seeds also fix the root intervals that field-info prints for a >= 7.
    Each seed is re-checked for a sign change; None falls back to the search.
    """
    if getattr(field, "family", None) is not Family.SIMPLEST_CUBIC or field.a < 7:
        return None
    a = field.a
    seeds = [
        (Fraction(a + 1), Fraction(a + 1) + Fraction(2, a)),
        (Fraction(-1) - Fraction(1, a), Fraction(-1) - Fraction(1, 2 * a)),
        (Fraction(-1, a + 2), Fraction(-1, a + 3)),
    ]
    out = []
    for lo, hi in seeds:
        if lo > hi:
            lo, hi = hi, lo
        if poly_eval(field, lo) * poly_eval(field, hi) >= 0:
            return None
        out.append((lo, hi))
    return out


def _default_width(field, rounds: int) -> Fraction:
    """The width of round `rounds`: B / 2^(20 + rounds), B = `_root_bound`."""
    return Fraction(_root_bound(field.minpoly), 2 ** (20 + rounds))


@lru_cache(maxsize=None)
def isolate_roots(field, width: Fraction | None = None) -> RootIntervals:
    """Isolating intervals of width <= width, one per root of field.minpoly."""
    width = _default_width(field, 0) if width is None else Fraction(width)
    if width <= 0:
        raise IllegalParameter("width must be positive")
    brackets = _seed_intervals(field) or _bracket_roots(field)
    refined = [_bisect_to_width(field, lo, hi, width) for lo, hi in brackets]
    return _root_intervals(field, refined, width)


def _root_intervals(field, refined: list[Interval], width: Fraction) -> RootIntervals:
    """The intervals in the embedding order, after the disjointness check.

    Neighbours may share an endpoint: two brackets that are already narrower
    than the width are never split.  A shared endpoint must not be a root.
    """
    refined = sorted(refined, key=lambda iv: iv.lo)
    for left, right in zip(refined, refined[1:]):
        if left.hi > right.lo or (left.hi == right.lo and poly_eval(field, left.hi) == 0):
            raise ConsistencyError(f"root intervals of {field} overlap")
    if getattr(field, "family", None) is Family.SIMPLEST_CUBIC:
        # (rho, rho', rho'') = (largest, in (-2,-1), in (-1,0))
        return RootIntervals(field, (refined[2], refined[0], refined[1]), width)
    return RootIntervals(field, tuple(reversed(refined)), width)


@lru_cache(maxsize=None)
def refine_roots(field, rounds: int) -> RootIntervals:
    """Isolating intervals after halving the default width `rounds` times.

    Round 0 is `isolate_roots(field)`; round r bisects on from round r - 1.
    Bisection is deterministic, so the intervals equal those that
    `isolate_roots` finds from the brackets for the same width.
    """
    if rounds > REFINEMENT_CAP:
        raise RefinementLimit(f"refinement cap {REFINEMENT_CAP} exceeded")
    if rounds < 0:
        raise IllegalParameter("rounds must be non-negative")
    if rounds == 0:
        return isolate_roots(field)
    width = _default_width(field, rounds)
    previous = refine_roots(field, rounds - 1).intervals
    refined = [_bisect_to_width(field, iv.lo, iv.hi, width) for iv in previous]
    return _root_intervals(field, refined, width)


def embed(x: OrderElement, r: RootIntervals) -> tuple[Interval, ...]:
    """Interval enclosures of the real embeddings of x."""
    if r.field is not x.field and r.field != x.field:
        raise FieldMismatch("element and root intervals from different fields")
    v0, *vs = x.coords
    return tuple(sum(map(operator.mul, vs, (iv, iv.square())), Interval(v0)) for iv in r.intervals)


# ---------------------------------------------------------------------------
# Galois conjugation (SimplestCubic is cyclic)


@lru_cache(maxsize=None)
def galois_conjugation_matrix(field: FieldSpec) -> tuple[tuple[int, int, int], ...]:
    """Integer matrix M with M . coords(x) = coords(x') for rho -> rho'.

    rho' = -1 - 1/rho = (a+2) + a*rho - rho^2; validated exactly, with no
    root interval.  f(rho') = 0 makes x -> x(rho') a ring map, so M^3 = I
    once M^3 fixes rho.  With rho*rho' + rho + 1 = 0, sigma_1(rho') lies in
    (-2, -1) exactly when sigma_1(rho) > 1: f(1) = -2a - 3 < 0 puts the
    largest root above 1, and `_root_intervals` lists it first.
    """
    if field.family is not Family.SIMPLEST_CUBIC:
        raise NotGalois(f"{field.family.value} family is not handled as Galois")
    a = field.a
    rp = OrderElement((a + 2, a, -1), field)
    # f(rho') = 0, exactly
    val = (rp ** 3) + field.c2 * (rp * rp) + field.c1 * rp + field.c0 * one(field)
    if not val.is_zero():
        raise NotGalois("conjugate candidate is not a root")
    cols = [one(field).coords, rp.coords, (rp * rp).coords]
    m = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    if apply_matrix(m, apply_matrix(m, rp)) != rho(field):
        raise NotGalois("conjugation matrix does not have order 3")
    if not (rho(field) * rp + rho(field) + one(field)).is_zero():
        raise NotGalois("conjugate candidate is not -1 - 1/rho")
    if poly_eval(field, 1) >= 0:
        raise NotGalois("conjugate candidate outside (-2,-1)")
    return m


def apply_matrix(m, x: OrderElement) -> OrderElement:
    v = x.coords
    return OrderElement(tuple([sum(map(operator.mul, row, v)) for row in m]), x.field)


def conjugate(x: OrderElement, times: int = 1) -> OrderElement:
    """Galois conjugate (rho -> rho'), iterated `times` (SimplestCubic only)."""
    m = galois_conjugation_matrix(x.field)
    for _ in range(times % 3):
        x = apply_matrix(m, x)
    return x


# ---------------------------------------------------------------------------
# Unit systems


@dataclass(frozen=True)
class UnitSystem:
    """Fundamental unit pair and generators of the totally positive units."""

    fundamental: tuple[OrderElement, OrderElement]
    totally_positive: tuple[OrderElement, OrderElement]


@lru_cache(maxsize=None)
def unit_generators(field: FieldSpec) -> UnitSystem:
    f = field
    a = f.a
    if f.family is Family.SIMPLEST_CUBIC:
        u1 = rho(f)
        u2 = conjugate(u1)
        e1 = u1 * u1
        e2 = OrderElement((1, 2, 1), f)  # (1+rho)^2 = (rho'')^{-2}
        # (1+rho) * rho'' = -1 pins the inverse-square identity
        rpp = conjugate(u1, 2)
        if mul(OrderElement((1, 1, 0), f), rpp).coords != (-1, 0, 0):
            raise ConsistencyError("(1+rho) * rho'' != -1")
    elif f.family is Family.ENNOLA:
        u1 = rho(f)
        u2 = OrderElement((-1, 1, 0), f)  # rho - 1
        e1 = u1 * u1
        e2 = u1 * u2  # rho(rho-1)
    elif f.family is Family.THOMAS:
        u1 = rho(f)
        u2 = OrderElement((-a, 1, 0), f)  # rho - a
        e1 = u1  # rho is totally positive in this family
        e2 = u2 * u2
    else:
        from .errors import UnsupportedFamily

        raise UnsupportedFamily("no unit system for custom cubics")
    for u in (u1, u2):
        if norm(u) not in (1, -1):
            raise ConsistencyError(f"fundamental unit {u} has norm {norm(u)}")
    for e in (e1, e2):
        if norm(e) != 1 or not is_totally_positive(e):
            raise ConsistencyError(f"{e} is not a totally positive unit")
    return UnitSystem((u1, u2), (e1, e2))
