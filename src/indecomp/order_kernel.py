"""Exact arithmetic in cubic orders Z[rho] for a monic integer cubic.

Everything here is exact: coordinates are Python integers, root intervals
have Fraction endpoints, and total positivity is decided from the signs of
elementary symmetric functions, never from floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
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

    @property
    def minpoly(self) -> tuple[int, int, int]:
        return (self.c2, self.c1, self.c0)

    def poly_eval(self, t: Fraction) -> Fraction:
        return ((t + self.c2) * t + self.c1) * t + self.c0

    def dpoly_eval(self, t: Fraction) -> Fraction:
        return (3 * t + 2 * self.c2) * t + self.c1

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


def _check_cubic(c2: int, c1: int, c0: int) -> None:
    # rational root test suffices for a monic cubic
    n = abs(c0)
    if n == 0:
        raise Reducible("constant coefficient 0: x divides the cubic")
    d = 1
    while d * d <= n:
        if n % d == 0:
            for r in (d, -d, n // d, -(n // d)):
                if ((r + c2) * r + c1) * r + c0 == 0:
                    raise Reducible(f"rational root {r}")
        d += 1
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
    """Immutable v1 + v2*rho + v3*rho^2 with exact integer coordinates."""

    coords: tuple[int, int, int]
    field: FieldSpec

    def __post_init__(self):
        if len(self.coords) != 3:
            raise ValueError("coords must be a triple")

    def _check(self, other: "OrderElement") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _co(self, other):
        if isinstance(other, OrderElement):
            self._check(other)
            return other
        if isinstance(other, int):
            return OrderElement((other, 0, 0), self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coords, other.coords
        return OrderElement((a[0] + b[0], a[1] + b[1], a[2] + b[2]), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coords, other.coords
        return OrderElement((a[0] - b[0], a[1] - b[1], a[2] - b[2]), self.field)

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        a = self.coords
        return OrderElement((-a[0], -a[1], -a[2]), self.field)

    def __mul__(self, other):
        if isinstance(other, int):
            a = self.coords
            return OrderElement((other * a[0], other * a[1], other * a[2]), self.field)
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
        return self.coords == (0, 0, 0)

    def __repr__(self):
        return f"OrderElement{self.coords}"


def elem(field: FieldSpec, v1: int, v2: int, v3: int) -> OrderElement:
    return OrderElement((v1, v2, v3), field)


def one(field: FieldSpec) -> OrderElement:
    return OrderElement((1, 0, 0), field)


def rho(field: FieldSpec) -> OrderElement:
    return OrderElement((0, 1, 0), field)


def mul(x: OrderElement, y: OrderElement) -> OrderElement:
    """Exact product, reduced to the (1, rho, rho^2) basis."""
    x._check(y)
    c2, c1, c0 = x.field.minpoly
    a1, a2, a3 = x.coords
    b1, b2, b3 = y.coords
    r0 = a1 * b1
    r1 = a1 * b2 + a2 * b1
    r2 = a1 * b3 + a2 * b2 + a3 * b1
    r3 = a2 * b3 + a3 * b2
    r4 = a3 * b3
    # rho^4 = -c2 rho^3 - c1 rho^2 - c0 rho, then rho^3 = -c2 rho^2 - c1 rho - c0
    r3 += -c2 * r4
    r2 += -c1 * r4
    r1 += -c0 * r4
    r2 += -c2 * r3
    r1 += -c1 * r3
    r0 += -c0 * r3
    return OrderElement((r0, r1, r2), x.field)


def multiplication_matrix(x: OrderElement) -> tuple[tuple[int, int, int], ...]:
    """Matrix of multiplication by x on the basis (1, rho, rho^2), columns are images."""
    f = x.field
    cols = [x.coords, mul(x, rho(f)).coords, mul(x, rho(f) * rho(f)).coords]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


@dataclass(frozen=True)
class SymFuncs:
    """Elementary symmetric functions of the conjugates: e1 = Tr, e3 = N."""

    e1: int
    e2: int
    e3: int


def _mat3_det(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def sym_funcs(x: OrderElement) -> SymFuncs:
    """Characteristic-polynomial coefficients of the multiplication matrix."""
    m = multiplication_matrix(x)
    e1 = m[0][0] + m[1][1] + m[2][2]
    e2 = (
        m[0][0] * m[1][1]
        - m[0][1] * m[1][0]
        + m[0][0] * m[2][2]
        - m[0][2] * m[2][0]
        + m[1][1] * m[2][2]
        - m[1][2] * m[2][1]
    )
    e3 = _mat3_det(m)
    return SymFuncs(e1, e2, e3)


def trace(x: OrderElement) -> int:
    c2, c1, _ = x.field.minpoly
    v1, v2, v3 = x.coords
    return 3 * v1 - c2 * v2 + (c2 * c2 - 2 * c1) * v3


def norm(x: OrderElement) -> int:
    return sym_funcs(x).e3


def is_totally_positive(x: OrderElement) -> bool:
    """All conjugates positive, decided symbolically from (e1, e2, e3) signs."""
    if x.is_zero():
        raise ZeroElement("total positivity is undefined for 0")
    s = sym_funcs(x)
    return s.e1 > 0 and s.e2 > 0 and s.e3 > 0


def unit_inverse(x: OrderElement) -> OrderElement:
    """Exact inverse of a unit (norm +-1)."""
    n = norm(x)
    if n not in (1, -1):
        raise NotAUnit(f"norm {n}")
    adj, _ = adjugate(multiplication_matrix(x))
    # x^{-1} = adj / n applied to the coordinates of 1, and 1/n = n
    return OrderElement((n * adj[0][0], n * adj[1][0], n * adj[2][0]), x.field)


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
    assert flo != 0 and field.poly_eval(hi) != 0
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
    """Known bracketing intervals for the SimplestCubic roots, valid for a >= 7."""
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


@lru_cache(maxsize=None)
def isolate_roots(field: FieldSpec, width: Fraction | None = None) -> RootIntervals:
    """Three disjoint isolating intervals of width <= width."""
    bound = 1 + max(abs(field.c2), abs(field.c1), abs(field.c0))
    if width is None:
        width = Fraction(bound, 2**20)
    width = Fraction(width)
    if width <= 0:
        raise IllegalParameter("width must be positive")

    seeds = _seed_intervals(field)
    if seeds is None:
        chain = _sturm_chain(field)
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
        assert len(isolated) == 3, isolated
        seeds = isolated

    refined = [_bisect_to_width(field, lo, hi, width) for lo, hi in seeds]
    refined.sort(key=lambda iv: iv.lo)
    if field.family is Family.SIMPLEST_CUBIC:
        # (rho, rho', rho'') = (largest, in (-2,-1), in (-1,0))
        ordered = (refined[2], refined[0], refined[1])
    else:
        ordered = (refined[2], refined[1], refined[0])
    # disjointness (intervals were separated before refining, keep the check)
    pairs = sorted(ordered, key=lambda iv: iv.lo)
    assert pairs[0].hi < pairs[1].lo and pairs[1].hi < pairs[2].lo
    return RootIntervals(field, ordered, width)


def refine_roots(field: FieldSpec, rounds: int) -> RootIntervals:
    """Isolating intervals after halving the default width `rounds` times."""
    if rounds > REFINEMENT_CAP:
        raise RefinementLimit(f"refinement cap {REFINEMENT_CAP} exceeded")
    bound = 1 + max(abs(field.c2), abs(field.c1), abs(field.c0))
    return isolate_roots(field, Fraction(bound, 2 ** (20 + rounds)))


def embed(x: OrderElement, r: RootIntervals) -> tuple[Interval, Interval, Interval]:
    """Interval enclosures of the three real embeddings of x."""
    if x.field != r.field:
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
    M^3 = I and the interval position rho' in (-2, -1).
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
    # sigma_1(rho') must land in (-2, -1)
    for rounds in range(REFINEMENT_CAP + 1):
        iv = embed(rp, refine_roots(field, rounds))[0]
        if iv.lo > -2 and iv.hi < -1:
            break
        if iv.hi < -2 or iv.lo > -1:
            raise NotGalois("conjugate candidate outside (-2,-1)")
    return m


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def apply_matrix(m, x: OrderElement) -> OrderElement:
    v = x.coords
    return OrderElement(
        (
            m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
        ),
        x.field,
    )


def conjugate(x: OrderElement, times: int = 1) -> OrderElement:
    """Galois conjugate (rho -> rho'), iterated `times` (SimplestCubic only)."""
    m = galois_conjugation_matrix(x.field)
    out = x
    for _ in range(times % 3):
        out = apply_matrix(m, out)
    return out


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
        assert mul(OrderElement((1, 1, 0), f), rpp).coords == (-1, 0, 0)
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
        assert norm(u) in (1, -1), u
    for e in (e1, e2):
        assert norm(e) == 1 and is_totally_positive(e), e
    return UnitSystem((u1, u2), (e1, e2))
