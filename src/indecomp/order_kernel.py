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
    UnsupportedFamily,
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
    QUADRATIC = "quadratic"  # Q(sqrt(D)), a = D: quadratic.make_quad_field


@dataclass(frozen=True)
class FieldSpec:
    """The order Z[rho], rho a root of the monic x^d + c_(d-1) x^(d-1) + ... + c_0,
    minpoly = (c_(d-1), ..., c_0): a cubic (d = 3) or Z[omega_D] (d = 2)."""

    family: Family
    a: int | None
    minpoly: tuple[int, ...]
    # the dataclass hash, computed once: every lru_cache lookup and element hash reads it
    _hash: int = dc_field(init=False, repr=False, compare=False)
    # the coordinates of f'(rho), computed once: each gamma/f' >> 0 test reads them
    fprime_coords: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.family, self.a, self.minpoly)))
        c = (*reversed(self.minpoly), 1)  # f = sum_k c_k x^k
        object.__setattr__(self, "fprime_coords", tuple(k * c[k] for k in range(1, len(c))))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored: a Family hash differs between processes
        return FieldSpec, (self.family, self.a, self.minpoly)

    @property
    def discriminant(self) -> int:
        if len(self.minpoly) == 2:
            c1, c0 = self.minpoly
            return c1 * c1 - 4 * c0
        b, c, d = self.minpoly
        return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d

    def __repr__(self):
        d = len(self.minpoly)
        terms = "".join(f"{c:+d}{x}" for c, x in zip(self.minpoly, ("x^2", "x", "")[3 - d:]))
        return f"FieldSpec({self.family.value}, a={self.a}, x^{d}{terms})"


_FAMILY_RANGES = {
    Family.SIMPLEST_CUBIC: -1,
    Family.ENNOLA: 3,
    Family.THOMAS: 2,
}


def _root_bound(minpoly: tuple[int, ...]) -> int:
    """B with every root of x^d + c_(d-1) x^(d-1) + ... + c_0 in (-B, B).

    Cauchy's 1 + max |c_k| for cubics.  For d = 2 the roots have
    |x| <= (|c_1| + sqrt(c_1^2 + 4 |c_0|)) / 2 <= |c_1| + sqrt(|c_0|), and
    sqrt(|c_0|) < isqrt(|c_0|) + 1, so B = 1 + |c_1| + isqrt(|c_0|), near
    sqrt(D) for Q(sqrt(D)) where Cauchy gives about D/4 or D.
    """
    if len(minpoly) == 2:
        return 1 + abs(minpoly[0]) + math.isqrt(abs(minpoly[1]))
    return 1 + max(map(abs, minpoly))


def _integer_root(c2: int, c1: int, c0: int) -> int | None:
    """An integer root of f = x^3 + c2 x^2 + c1 x + c0, or None.

    An integer root divides c0, so it lies in [-B, B], B = |c0| (the root 0
    when c0 = 0), inside Cauchy's bound 1 + max |c_k|.  The critical points
    (-c2 -+ sqrt(c2^2 - 3 c1)) / 3, bracketed between integers with isqrt,
    cut that range into at most three pieces on which f is monotone, plus at
    most six integers next to the critical points that are tested directly.
    Integer bisection finds the only candidate of each piece, so the cost is
    O(log B) evaluations of f.
    """

    minpoly = (c2, c1, c0)
    bound = abs(c0)
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
        lo, hi = max(lo, -bound), min(hi, bound)
        # least t in [lo, hi] with sign * f(t) >= 0: the root if the piece holds one
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * _sign_at(minpoly, mid, 1) >= 0:
                hi = mid
            else:
                lo = mid + 1
        candidates.append(lo)
    return next((t for t in candidates if _sign_at(minpoly, t, 1) == 0), None)


def _check_cubic(field: FieldSpec) -> None:
    # a rational root of a monic integer cubic is an integer
    if field.minpoly[2] == 0:
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
        maker = "make_quad_field" if family is Family.QUADRATIC else "make_custom_field"
        raise IllegalParameter(f"use {maker} for {family.value} fields")
    if a < _FAMILY_RANGES[family]:
        raise IllegalParameter(f"{family.value} family needs a >= {_FAMILY_RANGES[family]}, got {a}")
    if family is Family.SIMPLEST_CUBIC:
        c2, c1, c0 = -a, -(a + 3), -1
    elif family is Family.ENNOLA:
        c2, c1, c0 = a - 1, -a, -1
    else:
        c2, c1, c0 = -(2 * a + 2), a * (a + 2), -1
    field = FieldSpec(family, a, (c2, c1, c0))
    _check_cubic(field)
    return field


def make_custom_field(c2: int, c1: int, c0: int) -> FieldSpec:
    """Any monic, irreducible, totally real integer cubic."""
    field = FieldSpec(Family.CUSTOM_CUBIC, None, (c2, c1, c0))
    _check_cubic(field)
    return field


@dataclass(frozen=True, init=False, slots=True)
class OrderElement:
    """Immutable sum_j coords[j] * rho^j with exact integer coordinates.

    The order is Z[rho] for a root rho of the monic field.minpoly, cubic or
    quadratic, and there is one coordinate per power 1, rho, ..., rho^(d-1),
    d = len(field.minpoly).
    """

    coords: tuple[int, ...]
    field: FieldSpec

    def __init__(self, coords: tuple[int, ...], field: FieldSpec):
        if len(coords) != len(field.minpoly):
            raise IllegalParameter(f"coords must have {len(field.minpoly)} entries")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "field", field)

    def __hash__(self):
        return hash((self.coords, self.field))

    def _co(self, other):
        if isinstance(other, OrderElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return OrderElement((other,) + (0,) * (len(self.coords) - 1), self.field)
        return NotImplemented

    def __add__(self, other):
        # same field object: _co would only return other
        if other.__class__ is not OrderElement or other.field is not self.field:
            other = self._co(other)
            if other is NotImplemented:
                return NotImplemented
        return OrderElement(tuple(map(operator.add, self.coords, other.coords)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not OrderElement or other.field is not self.field:
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
    return OrderElement(mul_coords(x.coords, y.coords, f.minpoly), f)


def mul_coords(u: tuple[int, ...], v: tuple[int, ...], minpoly: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of the product of the elements with coordinates u and v,
    reduced with the monic minpoly: `mul` on tuples, for searches that keep
    their intermediate values as coordinates."""
    if len(u) == 2:
        a1, a2 = u
        b1, b2 = v
        c1, c0 = minpoly  # rho^2 = -c1 rho - c0
        r2 = a2 * b2
        return (a1 * b1 - c0 * r2, a1 * b2 + a2 * b1 - c1 * r2)
    a1, a2, a3 = u
    b1, b2, b3 = v
    c2, c1, c0 = minpoly
    # rho^4 = -c2 rho^3 - c1 rho^2 - c0 rho, then rho^3 = -c2 rho^2 - c1 rho - c0
    r4 = a3 * b3
    r3 = a2 * b3 + a3 * b2 - c2 * r4
    return (
        a1 * b1 - c0 * r3,
        a1 * b2 + a2 * b1 - c0 * r4 - c1 * r3,
        a1 * b3 + a2 * b2 + a3 * b1 - c1 * r4 - c2 * r3,
    )


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
    (p1, p2, p3), (q1, q2, q3) = _rho_columns(v1, v2, v3, *f.minpoly)
    return ((v1, p1, q1), (v2, p2, q2), (v3, p3, q3))


def quad_sym_funcs(v1: int, v2: int, minpoly: tuple[int, int]) -> tuple[int, int]:
    """(e1, e2) = (Tr, N) of v1 + v2*rho, rho a root of x^2 + c1 x + c0, on integers."""
    c1, c0 = minpoly
    p2 = v1 - c1 * v2  # the rho coordinate of x*rho
    return v1 + p2, v1 * p2 + c0 * v2 * v2


def cubic_sym_funcs(v1: int, v2: int, v3: int, minpoly: tuple[int, int, int]) -> tuple[int, ...]:
    """(e1, e2, e3) of v1 + v2*rho + v3*rho^2, rho a root of x^3 + c2 x^2 + c1 x + c0.

    They are the characteristic-polynomial coefficients of the multiplication
    matrix: e1 = Tr is its trace, e2 the sum of its principal 2x2 minors and
    e3 = N its determinant.
    """
    c2, c1, c0 = minpoly
    # the columns x*rho and x*rho^2 of `_rho_columns`, inline: this is the hot call
    p1, p2, p3 = -c0 * v3, v1 - c1 * v3, v2 - c2 * v3
    q1, q2, q3 = -c0 * p3, p1 - c1 * p3, p2 - c2 * p3
    minor = p2 * q3 - q2 * p3
    return (
        v1 + p2 + q3,
        v1 * p2 - p1 * v2 + v1 * q3 - q1 * v3 + minor,
        v1 * minor - p1 * (v2 * q3 - q2 * v3) + q1 * (v2 * p3 - p2 * v3),
    )


def sym_funcs(x: OrderElement) -> tuple[int, ...]:
    """Elementary symmetric functions (e1, ..., e_d) of the conjugates of x:
    `quad_sym_funcs` or `cubic_sym_funcs` on its coordinates."""
    coords = x.coords
    if len(coords) == 2:
        return quad_sym_funcs(*coords, x.field.minpoly)
    v1, v2, v3 = coords
    return cubic_sym_funcs(v1, v2, v3, x.field.minpoly)


def trace(x: OrderElement) -> int:
    return sym_funcs(x)[0]


def norm(x: OrderElement) -> int:
    return sym_funcs(x)[-1]


def coords_totally_positive(coords: tuple[int, ...], minpoly: tuple[int, ...]) -> bool:
    """All conjugates of the element with these coordinates positive, decided
    symbolically from the signs of (e1, ..., e_d): the one positivity rule.

    Every field here is totally real, so the conjugates are all positive
    exactly when every e_k > 0, the e_k being those of `sym_funcs`.  The
    zero element has every e_k = 0 and reads False.
    """
    if len(coords) == 2:
        return min(quad_sym_funcs(*coords, minpoly)) > 0
    v1, v2, v3 = coords
    e1, e2, e3 = cubic_sym_funcs(v1, v2, v3, minpoly)
    return e1 > 0 and e2 > 0 and e3 > 0


def is_totally_positive(x: OrderElement) -> bool:
    """`coords_totally_positive` of x; ZeroElement for 0."""
    if x.is_zero():
        raise ZeroElement("total positivity is undefined for 0")
    return coords_totally_positive(x.coords, x.field.minpoly)


def unit_inverse(x: OrderElement) -> OrderElement:
    """Exact inverse of a unit (norm +-1)."""
    n = norm(x)
    if n not in (1, -1):
        raise NotAUnit(f"norm {n}")
    adj, _ = adjugate(multiplication_matrix(x))
    # x^{-1} = adj / n applied to the coordinates of 1, and 1/n = n
    return OrderElement(tuple(n * row[0] for row in adj), x.field)


# ---------------------------------------------------------------------------
# Real root isolation (critical-point root counts, bisection on integer signs)
#
# Only field.minpoly, and for the simplest family field.family and field.a,
# are read: cubic and quadratic fields take the same path.


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


def _sign_at(minpoly: tuple[int, ...], n: int, d: int) -> int:
    """The sign (-1, 0 or 1) of f(n/d) for d > 0, f the monic minpoly.

    It is the sign of the homogenised value d^k f(n/d) = n^k + c_(k-1)
    n^(k-1) d + ... + c_0 d^k, evaluated by Horner's rule in integers.  This
    is the module's one evaluator of f: every sign decision of root
    isolation, the Galois placement and `_integer_root` go through here.
    """
    acc, power = n + minpoly[0] * d, d
    for c in minpoly[1:]:
        power *= d
        acc = acc * n + c * power
    return (acc > 0) - (acc < 0)


def _critical_below(minpoly: tuple[int, ...], n: int, m: int) -> int:
    """How many critical points of f (roots of f') lie below n/m, m > 0.

    A quadratic's one critical point is -c1/2.  A cubic's are
    (-c2 -+ sqrt(d))/3 with d = c2^2 - 3 c1 > 0 (three real roots), the d
    that `_integer_root` brackets with isqrt; with u = 3n + c2 m, the tests
    -sqrt(d) m < u and sqrt(d) m < u are exact by squaring.
    """
    if len(minpoly) == 2:
        return int(2 * n + minpoly[0] * m > 0)
    c2, c1, _ = minpoly
    u, dm2 = 3 * n + c2 * m, (c2 * c2 - 3 * c1) * m * m
    return (u >= 0 or u * u < dm2) + (u > 0 and u * u > dm2)


def _root_count(minpoly: tuple[int, ...], lo: int, hi: int, den: int) -> int:
    """The number of roots of f in (lo/den, hi/den); neither endpoint may be a root.

    f has simple real roots, so it is monotone between neighbouring critical
    points, and its values there alternate in sign, negative at the largest.
    Each root is then one sign change along f(lo), the critical values in
    [lo, hi) and f(hi).
    """
    d = len(minpoly)
    at_lo, at_hi = _sign_at(minpoly, lo, den), _sign_at(minpoly, hi, den)
    if at_lo == 0 or at_hi == 0:
        raise ConsistencyError(f"root count on {_span(lo, hi - lo, den)} has a root endpoint")
    signs = [at_lo > 0]
    for k in range(_critical_below(minpoly, lo, den), _critical_below(minpoly, hi, den)):
        signs.append((d - 1 - k) % 2 == 0)
    signs.append(at_hi > 0)
    return sum(map(operator.ne, signs, signs[1:]))


def _span(n: int, gap: int, den: int) -> str:
    return f"[{Fraction(n, den)}, {Fraction(n + gap, den)}]"


def _bisect(field, pieces: list[tuple[int, int, int, int]], width: Fraction) -> list[tuple]:
    """One isolating interval (n, gap, den) no wider than width per root in the pieces.

    A piece (n, gap, den, count) is the interval [n/den, (n + gap)/den] with
    count roots inside.  Halving it doubles n and den and keeps gap, so the
    midpoint is (2n + gap)/(2 den) and every test stays in integers.  A piece
    with two or more roots is split at its midpoint by `_root_count`; a piece
    with one root is halved by sign until it is no wider than width.

    Two roots in one piece lie closer than its width.  Mahler's bound
    (Mathematika 11, 1964) with |disc| >= 1 and M(f) <= ||f||_2 keeps every
    two roots at least sep = d^(-(d+2)/2) * ||f||_2^(-(d-1)) apart.  So a
    count outside [0, d], or a count >= 2 on a piece narrower than sep, is a
    fault of the count and raises instead of bisecting forever.
    """
    minpoly = field.minpoly
    d = len(minpoly)
    # gap/den < sep  <=>  gap^2 * scale < den^2
    scale = d ** (d + 2) * (1 + sum(c * c for c in minpoly)) ** (d - 1)
    isolated: list[tuple[int, int, int]] = []
    while pieces:
        n, gap, den, count = pieces.pop()
        if not 0 <= count <= d:
            raise ConsistencyError(f"root count {count} on {_span(n, gap, den)} is outside [0, {d}]")
        if count == 0:
            continue
        if count >= 2:
            if gap * gap * scale < den * den:
                raise ConsistencyError(
                    f"{count} roots counted on {_span(n, gap, den)}, narrower than the root separation"
                )
            # the roots are irrational, so the midpoint is not one of them; `_root_count` checks
            n, den = 2 * n, 2 * den
            left = _root_count(minpoly, n, n + gap, den)
            pieces += [(n, gap, den, left), (n + gap, gap, den, count - left)]
            continue
        at_lo = _sign_at(minpoly, n, den)
        if at_lo == 0 or _sign_at(minpoly, n + gap, den) == 0:
            raise ConsistencyError(f"isolating interval {_span(n, gap, den)} has a root endpoint")
        # gap/den > width  <=>  gap * width.den > width.num * den
        limit = gap * width.denominator
        while limit > width.numerator * den:
            n, den = 2 * n, 2 * den
            at_mid = _sign_at(minpoly, n + gap, den)
            if at_mid == 0:
                raise ConsistencyError(f"midpoint {Fraction(n + gap, den)} of a bisection is a root")
            if at_mid == at_lo:
                n += gap
        isolated.append((n, gap, den))
    if len(isolated) != d:
        raise ConsistencyError(f"root isolation found {len(isolated)} roots")
    return isolated


def _seed_intervals(field) -> list[tuple[int, int, int, int]] | None:
    """Known bracketing pieces of `_bisect` for the SimplestCubic roots, valid for a >= 7.

    Kept because it pays: isolating the roots of the simplest fields
    a = 7, 50, 100, 200, 300, 400 to the default width takes about 25-44 us
    from these seeds and 67-99 us from the bisection of [-B, B] (Python
    3.11.7 on a 2-vCPU Xeon host, `timeit`, best of 5 x 20 runs), and every
    field a workload touches pays that once when it is set up and once per
    refinement round it reaches.  The seeds also fix the root intervals that
    field-info prints for a >= 7.  Each seed is re-checked for a sign change;
    None falls back to the bisection of [-B, B].
    """
    if field.family is not Family.SIMPLEST_CUBIC or field.a < 7:
        return None
    a = field.a
    # [a+1, a+1 + 2/a],  [-1 - 1/a, -1 - 1/(2a)]  and  [-1/(a+2), -1/(a+3)]
    seeds = [(a * (a + 1), 2, a, 1), (-2 * a - 2, 1, 2 * a, 1), (-(a + 3), 1, (a + 2) * (a + 3), 1)]
    for n, gap, den, _ in seeds:
        if _sign_at(field.minpoly, n, den) * _sign_at(field.minpoly, n + gap, den) >= 0:
            return None
    return seeds


def _default_width(field, rounds: int) -> Fraction:
    """The width of round `rounds`: B / 2^(20 + rounds), B = `_root_bound`."""
    return Fraction(_root_bound(field.minpoly), 2 ** (20 + rounds))


@lru_cache(maxsize=None)
def isolate_roots(field) -> RootIntervals:
    """Isolating intervals of the default width, one per root of field.minpoly: round 0."""
    return refine_roots(field, 0)


def _root_intervals(field, pieces: list, width: Fraction) -> RootIntervals:
    """The pieces bisected to width, in the embedding order, after the disjointness check.

    Neighbours may share an endpoint: two pieces that are already narrower
    than the width are never split.  A shared endpoint must not be a root.
    """
    refined = _bisect(field, pieces, width)
    common = math.lcm(*(den for _, _, den in refined))  # order on integers, not Fractions
    refined.sort(key=lambda piece: piece[0] * (common // piece[2]))
    for (n, gap, den), (m, _, den2) in zip(refined, refined[1:]):
        end, start = (n + gap) * den2, m * den  # (n + gap)/den and m/den2 over den * den2
        if end > start or end == start and not _sign_at(field.minpoly, n + gap, den):
            raise ConsistencyError(f"root intervals of {field} overlap")
    refined = [Interval(Fraction(n, den), Fraction(n + gap, den)) for n, gap, den in refined]
    if field.family is Family.SIMPLEST_CUBIC:
        # (rho, rho', rho'') = (largest, in (-2,-1), in (-1,0))
        return RootIntervals(field, (refined[2], refined[0], refined[1]), width)
    return RootIntervals(field, tuple(reversed(refined)), width)


@lru_cache(maxsize=None)
def refine_roots(field, rounds: int) -> RootIntervals:
    """Isolating intervals after halving the default width `rounds` times.

    Every round is bisected cold, from the seeds where `_seed_intervals` has
    them and otherwise from [-B, B], B = `_root_bound`.  Bisection is
    deterministic, so each round's intervals lie on the halving path of the
    round before and nest inside them.
    """
    if rounds > REFINEMENT_CAP:
        raise RefinementLimit(f"refinement cap {REFINEMENT_CAP} exceeded")
    if rounds < 0:
        raise IllegalParameter("rounds must be non-negative")
    pieces = _seed_intervals(field)
    if pieces is None:
        bound = _root_bound(field.minpoly)
        pieces = [(-bound, 2 * bound, 1, _root_count(field.minpoly, -bound, bound, 1))]
    return _root_intervals(field, pieces, _default_width(field, rounds))


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

    rho' = -1 - 1/rho = (a+2) + a*rho - rho^2; validated exactly on coordinate
    tuples from one product rho'^2 and the multiplication matrix of rho',
    which maps rho'^2 to rho'^3 and whose rho column is rho * rho', with no
    root interval.  f(rho') = 0 makes x -> x(rho') a ring map, so M^3 = I once
    M^3 fixes rho.  With rho*rho' + rho + 1 = 0, sigma_1(rho') lies in
    (-2, -1) exactly when sigma_1(rho) > 1: f(1) = -2a - 3 < 0 puts the
    largest root above 1, and `_root_intervals` lists it first.
    """
    if field.family is not Family.SIMPLEST_CUBIC:
        raise NotGalois(f"{field.family.value} family is not handled as Galois")
    a, (c2, c1, c0) = field.a, field.minpoly
    rp = OrderElement((a + 2, a, -1), field)
    rp2 = mul(rp, rp).coords
    mm = multiplication_matrix(rp)
    # f(rho') = 0, exactly
    rp3 = [sum(map(operator.mul, row, rp2)) for row in mm]
    if [u + c2 * v + c1 * w for u, v, w in zip(rp3, rp2, rp.coords)] != [-c0, 0, 0]:
        raise NotGalois("conjugate candidate is not a root")
    m = tuple(zip((1, 0, 0), rp.coords, rp2))
    if _apply(m, _apply(m, rp.coords)) != (0, 1, 0):
        raise NotGalois("conjugation matrix does not have order 3")
    if [row[1] for row in mm] != [-1, -1, 0]:
        raise NotGalois("conjugate candidate is not -1 - 1/rho")
    if _sign_at(field.minpoly, 1, 1) >= 0:
        raise NotGalois("conjugate candidate outside (-2,-1)")
    return m


def _apply(m, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([sum(map(operator.mul, row, v)) for row in m])


def apply_matrix(m, x: OrderElement) -> OrderElement:
    return OrderElement(_apply(m, x.coords), x.field)


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
        m = galois_conjugation_matrix(f)
        u1 = rho(f)
        u2 = OrderElement(tuple([row[1] for row in m]), f)  # the rho column: rho'
        e1 = OrderElement((0, 0, 1), f)  # rho^2
        e2 = OrderElement((1, 2, 1), f)  # (1+rho)^2 = (rho'')^{-2}
        # (1+rho) * rho'' = -1 pins the inverse-square identity; rho'' = M rho'
        rpp = _apply(m, u2.coords)
        if tuple(map(operator.add, rpp, _rho_columns(*rpp, *f.minpoly)[0])) != (-1, 0, 0):
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
        raise UnsupportedFamily(f"no unit system for {f.family.value}")
    for u in (u1, u2):
        if norm(u) not in (1, -1):
            raise ConsistencyError(f"fundamental unit {u} has norm {norm(u)}")
    for e in (e1, e2):
        if norm(e) != 1 or not is_totally_positive(e):
            raise ConsistencyError(f"{e} is not a totally positive unit")
    return UnitSystem((u1, u2), (e1, e2))
