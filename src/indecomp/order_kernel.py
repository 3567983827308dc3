"""Exact arithmetic in monogenic orders Z[rho]: cubic and quadratic fields.

One element type serves both degrees; the coordinate count d is the degree
of the field's minimal polynomial, and the kernel keeps one closed form per
degree.  Root isolation, conjugation and units are for the cubic families.

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

    def poly_eval(self, t: Fraction) -> Fraction:
        return ((t + self.c2) * t + self.c1) * t + self.c0

    @property
    def discriminant(self) -> int:
        b, c, d = self.c2, self.c1, self.c0
        return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d

    def embedding_rows(self, rounds: int) -> list[list[Interval]]:
        """Interval embedding matrix [1, rho_i, rho_i^2] after `rounds` refinements."""
        return [[Interval(1), iv, iv.square()] for iv in refine_roots(self, rounds).intervals]

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


def _integer_root(c2: int, c1: int, c0: int) -> int | None:
    """An integer root of f = x^3 + c2 x^2 + c1 x + c0, or None.

    Roots lie in [-B, B], B = 1 + max |ci|.  The critical points
    (-c2 -+ sqrt(c2^2 - 3 c1)) / 3, bracketed between integers with isqrt,
    cut that range into at most three pieces on which f is monotone, plus at
    most six integers next to the critical points that are tested directly.
    Integer bisection finds the only candidate of each piece, so the cost is
    O(log B) evaluations of f.
    """

    def f(t: int) -> int:
        return ((t + c2) * t + c1) * t + c0

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
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


def _check_cubic(c2: int, c1: int, c0: int) -> None:
    # a rational root of a monic integer cubic is an integer
    if c0 == 0:
        raise Reducible("constant coefficient 0: x divides the cubic")
    r = _integer_root(c2, c1, c0)
    if r is not None:
        raise Reducible(f"rational root {r}")
    disc = 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2 * c2 * c1 * c1 - 4 * c1**3 - 27 * c0 * c0
    if disc <= 0:
        raise NotTotallyReal(f"discriminant {disc} <= 0")


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
    _check_cubic(c2, c1, c0)
    return FieldSpec(family, a, c2, c1, c0)


def make_custom_field(c2: int, c1: int, c0: int) -> FieldSpec:
    """Any monic, irreducible, totally real integer cubic."""
    _check_cubic(c2, c1, c0)
    return FieldSpec(Family.CUSTOM_CUBIC, None, c2, c1, c0)


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
# Real root isolation (exact-sign bisection, Sturm separation)


@dataclass(frozen=True)
class RootIntervals:
    """Disjoint rational isolating intervals for the three real roots.

    Ordering: SimplestCubic uses (largest, the root in (-2,-1), the root in
    (-1,0)); other families are ordered descending by value.
    """

    field: FieldSpec
    intervals: tuple[Interval, Interval, Interval]
    width: Fraction


def _sturm_chain(field: FieldSpec):
    # polynomials as coefficient tuples, low degree first, Fraction coefficients
    p0 = (Fraction(field.c0), Fraction(field.c1), Fraction(field.c2), Fraction(1))
    p1 = (Fraction(field.c1), Fraction(2 * field.c2), Fraction(3))

    def rem(num, den):
        num = list(num)
        while len(num) >= len(den) and any(num):
            if num[-1] == 0:
                num.pop()
                continue
            k = len(num) - len(den)
            c = num[-1] / den[-1]
            for i, d in enumerate(den):
                num[i + k] -= c * d
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return tuple(num)

    chain = [p0, p1]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return chain


def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _variations(chain, t: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, t)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def _bisect_to_width(field: FieldSpec, lo: Fraction, hi: Fraction, width: Fraction) -> Interval:
    flo = field.poly_eval(lo)
    if flo == 0 or field.poly_eval(hi) == 0:
        raise ConsistencyError(f"isolating interval [{lo}, {hi}] has a root endpoint")
    neg_at_lo = flo < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = field.poly_eval(mid)
        # roots are irrational, so fm != 0
        if (fm < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def _seed_intervals(field: FieldSpec) -> list[tuple[Fraction, Fraction]] | None:
    """Known bracketing intervals for the SimplestCubic roots, valid for a >= 7.

    Kept because it pays: isolating the roots of the simplest fields
    a = 50, 52, ..., 400 to the default width takes about 0.06 s from these
    seeds and 0.5-0.6 s from `_sturm_intervals` (Python 3.11, one Xeon core),
    and every field a workload touches pays that once when it is set up.
    Each seed is re-checked for a sign change; None falls back to Sturm.
    """
    if field.family is not Family.SIMPLEST_CUBIC or field.a is None or field.a < 7:
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
        if field.poly_eval(lo) * field.poly_eval(hi) >= 0:
            return None
        out.append((lo, hi))
    return out


def _sturm_intervals(field: FieldSpec) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the three roots by Sturm-sequence bisection."""
    chain = _sturm_chain(field)
    bound = 1 + max(abs(field.c2), abs(field.c1), abs(field.c0))
    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, _variations(chain, lo) - _variations(chain, hi))]
    isolated: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vm = _variations(chain, mid)
        vl = _variations(chain, lo)
        vh = _variations(chain, hi)
        stack.append((lo, mid, vl - vm))
        stack.append((mid, hi, vm - vh))
    if len(isolated) != 3:
        raise ConsistencyError(f"Sturm isolation found {len(isolated)} roots")
    return isolated


@lru_cache(maxsize=None)
def isolate_roots(field: FieldSpec, width: Fraction | None = None) -> RootIntervals:
    """Three disjoint isolating intervals of width <= width."""
    bound = 1 + max(abs(field.c2), abs(field.c1), abs(field.c0))
    if width is None:
        width = Fraction(bound, 2**20)
    width = Fraction(width)
    if width <= 0:
        raise IllegalParameter("width must be positive")
    brackets = _seed_intervals(field) or _sturm_intervals(field)
    refined = [_bisect_to_width(field, lo, hi, width) for lo, hi in brackets]
    return _root_intervals(field, refined, width)


def _root_intervals(field: FieldSpec, refined: list[Interval], width: Fraction) -> RootIntervals:
    """The intervals in the embedding order, after the disjointness check."""
    refined = sorted(refined, key=lambda iv: iv.lo)
    if field.family is Family.SIMPLEST_CUBIC:
        # (rho, rho', rho'') = (largest, in (-2,-1), in (-1,0))
        ordered = (refined[2], refined[0], refined[1])
    else:
        ordered = (refined[2], refined[1], refined[0])
    # disjointness (intervals were separated before refining, keep the check)
    if not (refined[0].hi < refined[1].lo and refined[1].hi < refined[2].lo):
        raise ConsistencyError(f"root intervals of {field} overlap")
    return RootIntervals(field, ordered, width)


@lru_cache(maxsize=None)
def refine_roots(field: FieldSpec, rounds: int) -> RootIntervals:
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
    bound = 1 + max(abs(field.c2), abs(field.c1), abs(field.c0))
    width = Fraction(bound, 2 ** (20 + rounds))
    previous = refine_roots(field, rounds - 1).intervals
    refined = [_bisect_to_width(field, iv.lo, iv.hi, width) for iv in previous]
    return _root_intervals(field, refined, width)


def embed(x: OrderElement, r: RootIntervals) -> tuple[Interval, Interval, Interval]:
    """Interval enclosures of the three real embeddings of x."""
    if r.field is not x.field and r.field != x.field:
        raise FieldMismatch("element and root intervals from different fields")
    v1, v2, v3 = x.coords
    out = []
    for iv in r.intervals:
        out.append(Interval(v1) + v2 * iv + v3 * iv.square())
    return tuple(out)


def embed_sign_definite(x: OrderElement) -> tuple[tuple[Interval, Interval, Interval], RootIntervals]:
    """Embeddings refined until every interval has a definite sign (x != 0)."""
    if x.is_zero():
        raise ZeroElement("cannot sign-refine the zero element")
    for rounds in range(REFINEMENT_CAP + 1):
        r = refine_roots(x.field, rounds)
        ivs = embed(x, r)
        if all(iv.sign_definite() for iv in ivs):
            return ivs, r
    raise RefinementLimit("embeddings did not become sign-definite")


# ---------------------------------------------------------------------------
# Galois conjugation (SimplestCubic is cyclic)


@lru_cache(maxsize=None)
def galois_conjugation_matrix(field: FieldSpec) -> tuple[tuple[int, int, int], ...]:
    """Integer matrix M with M . coords(x) = coords(x') for rho -> rho'.

    rho' = -1 - 1/rho = (a+2) + a*rho - rho^2; validated by f(rho') = 0,
    M^3 = I and sigma_1(rho') in (-2, -1), which holds exactly when
    sigma_1(rho) > 1 once rho*rho' + rho + 1 = 0 is checked in the order.
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
    # M^3 = I
    m2 = _mat_mul(m, m)
    if _mat_mul(m2, m) != ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raise NotGalois("conjugation matrix does not have order 3")
    if not (rho(field) * rp + rho(field) + one(field)).is_zero():
        raise NotGalois("conjugate candidate is not -1 - 1/rho")
    # sigma_1(rho) > 1: the default interval decides it for a >= -1; refine only if it cannot
    r, rounds = isolate_roots(field), 0
    while r.intervals[0].lo <= 1:
        if r.intervals[0].hi < 1:
            raise NotGalois("conjugate candidate outside (-2,-1)")
        rounds += 1
        r = refine_roots(field, rounds)
    return m


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def apply_matrix(m, x: OrderElement) -> OrderElement:
    v = x.coords
    return OrderElement(tuple([sum(map(operator.mul, row, v)) for row in m]), x.field)


def conjugate(x: OrderElement, times: int = 1) -> OrderElement:
    """Galois conjugate (rho -> rho'), iterated `times` (SimplestCubic only)."""
    m = galois_conjugation_matrix(x.field)
    v = x.coords
    for _ in range(times % 3):
        # the 3x3 product written out: conjugation is on the hot path of count_exact
        v = tuple([r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in m])
    return OrderElement(v, x.field)


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
