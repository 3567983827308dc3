"""Real quadratic fields Q(sqrt(D)): continued fractions, semiconvergents,
indecomposables, trace-one certificates, and the period-based counts.

Elements are integer pairs over the basis (1, omega_D); the codifferent is
(1/sqrt(Delta)) Z[omega_D] and trace pairings are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import (
    CertificateFailure,
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    IndexOutOfRange,
    NotSquarefree,
    RefinementLimit,
    ZeroElement,
)
from .codifferent import euler_pairing
from .hnf import parallelepiped_points, row_hnf_lower
from .integers import is_squarefree
from .intervals import Interval
from .oracle import first_split

__all__ = [
    "QuadField",
    "QuadElement",
    "CFExpansion",
    "make_quad_field",
    "cf_expand",
    "semiconvergent",
    "indecomposables_quadratic",
    "QuadCodifferentElement",
    "quad_trace_pairing",
    "is_totally_positive_quad_codiff",
    "trace_one_delta",
    "trace_one_delta_scalings",
    "quad_counts",
    "decompose_quadratic",
    "search_indecomposables",
    "quad_ideal_hnf",
]


@dataclass(frozen=True)
class QuadField:
    """Z[omega_D] for squarefree D > 1; omega = sqrt(D) or (1+sqrt(D))/2."""

    D: int

    @property
    def one_mod_four(self) -> bool:
        return self.D % 4 == 1

    @property
    def omega_trace(self) -> int:
        return 1 if self.one_mod_four else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.D) // 4 if self.one_mod_four else -self.D

    @property
    def discriminant(self) -> int:
        return self.D if self.one_mod_four else 4 * self.D

    @property
    def minpoly(self) -> tuple[int, int]:
        """omega is a root of x^2 - Tr(omega) x + N(omega)."""
        return (-self.omega_trace, self.omega_norm)

    def embedding_rows(self, rounds: int) -> list[list[Interval]]:
        """Interval embedding matrix of (1, omega) after `rounds` refinements."""
        s = _sqrt_interval(self.D, rounds)
        if self.one_mod_four:
            w, wc = (s + 1) * Fraction(1, 2), (Interval(1) - s) * Fraction(1, 2)
        else:
            w, wc = s, -s
        return [[Interval(1), w], [Interval(1), wc]]


@lru_cache(maxsize=None)
def make_quad_field(D: int) -> QuadField:
    if D <= 1:
        raise IllegalParameter("D must exceed 1")
    if not is_squarefree(D):
        raise NotSquarefree(f"D = {D} is not squarefree")
    return QuadField(D)


@dataclass(frozen=True)
class QuadElement:
    """x + y*omega_D with exact integer coordinates."""

    coords: tuple[int, int]
    field: QuadField

    def _co(self, other):
        if isinstance(other, QuadElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("quadratic elements from different fields")
            return other
        if isinstance(other, int):
            return QuadElement((other, 0), self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        return QuadElement(
            (self.coords[0] + other.coords[0], self.coords[1] + other.coords[1]), self.field
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        return QuadElement(
            (self.coords[0] - other.coords[0], self.coords[1] - other.coords[1]), self.field
        )

    def __neg__(self):
        return QuadElement((-self.coords[0], -self.coords[1]), self.field)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadElement((other * self.coords[0], other * self.coords[1]), self.field)
        other = self._co(other)
        x1, y1 = self.coords
        x2, y2 = other.coords
        f = self.field
        # omega^2 = omega*Tr(omega) - N(omega)
        cross = x1 * y2 + x2 * y1
        sq = y1 * y2
        return QuadElement(
            (x1 * x2 - f.omega_norm * sq, cross + f.omega_trace * sq), f
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadElement":
        x, y = self.coords
        if self.field.one_mod_four:
            return QuadElement((x + y, -y), self.field)
        return QuadElement((x, -y), self.field)

    def trace(self) -> int:
        return 2 * self.coords[0] + self.field.omega_trace * self.coords[1]

    def norm(self) -> int:
        x, y = self.coords
        return x * x + self.field.omega_trace * x * y + self.field.omega_norm * y * y

    def is_zero(self) -> bool:
        return self.coords == (0, 0)

    def is_totally_positive(self) -> bool:
        if self.is_zero():
            raise ZeroElement("total positivity undefined for 0")
        return self.trace() > 0 and self.norm() > 0

    def __repr__(self):
        return f"QuadElement{self.coords}@D={self.field.D}"


def quad_elem(field: QuadField, x: int, y: int) -> QuadElement:
    return QuadElement((x, y), field)


# ---------------------------------------------------------------------------
# Periodic continued fractions of xi_D


class CFExpansion:
    """Periodic continued fraction of xi_D = -omega'_D, with convergent tables.

    xi_D = [u0; period] is purely periodic after u0; convergents alpha_i =
    p_i + q_i * omega_D start at i = -1 with (p, q) = (1, 0).
    """

    def __init__(self, field: QuadField, u0: int, period: tuple[int, ...]):
        self.field = field
        self.u0 = u0
        self.period = period
        self._p = [1, u0]
        self._q = [0, 1]

    @property
    def period_length(self) -> int:
        return len(self.period)

    def u(self, i: int) -> int:
        if i < 0:
            raise IndexOutOfRange("partial quotients start at index 0")
        if i == 0:
            return self.u0
        return self.period[(i - 1) % len(self.period)]

    def _ensure(self, i: int) -> None:
        while len(self._p) < i + 2:
            k = len(self._p) - 1  # next index to fill
            self._p.append(self.u(k) * self._p[-1] + self._p[-2])
            self._q.append(self.u(k) * self._q[-1] + self._q[-2])

    def convergent_pair(self, i: int) -> tuple[int, int]:
        if i < -1:
            raise IndexOutOfRange("convergents start at i = -1")
        self._ensure(i)
        return self._p[i + 1], self._q[i + 1]

    def convergent(self, i: int) -> QuadElement:
        p, q = self.convergent_pair(i)
        return QuadElement((p, q), self.field)

    def __repr__(self):
        return f"CF(xi_{self.field.D} = [{self.u0}; {list(self.period)} repeating])"


@lru_cache(maxsize=None)
def cf_expand(D: int) -> CFExpansion:
    """Exact periodic expansion via the integer quadratic-surd recurrence."""
    field = make_quad_field(D)
    s = math.isqrt(D)
    if field.one_mod_four:
        p, q = -1, 2  # xi = (sqrt(D) - 1)/2
    else:
        p, q = 0, 1  # xi = sqrt(D)
    terms = []
    i = 0
    first_state = None
    while True:
        if q <= 0 or (D - p * p) % q:
            raise ConsistencyError(f"surd recurrence left its invariant at D={D}")
        u = (p + s) // q
        terms.append(u)
        p = u * q - p
        q = (D - p * p) // q
        i += 1
        state = (p, q)
        if i == 1:
            first_state = state
        elif state == first_state:
            break
        if i > 4 * D + 10:
            raise RefinementLimit("continued fraction failed to close")
    u0 = terms[0]
    period = tuple(terms[1:])
    return CFExpansion(field, u0, period)


def semiconvergent(D: int, i: int, r: int) -> QuadElement:
    """alpha_{i,r} = alpha_i + r*alpha_{i+1}; r may equal u_{i+2}."""
    cf = cf_expand(D)
    if i < -1:
        raise IndexOutOfRange("semiconvergents start at i = -1")
    if not 0 <= r <= cf.u(i + 2):
        raise IndexOutOfRange(f"r = {r} outside [0, u_{i+2} = {cf.u(i + 2)}]")
    p_i, q_i = cf.convergent_pair(i)
    p_n, q_n = cf.convergent_pair(i + 1)
    return QuadElement((p_i + r * p_n, q_i + r * q_n), cf.field)


@dataclass(frozen=True)
class QuadIndecRecord:
    element: QuadElement
    i: int
    r: int
    conjugate: bool


def indecomposables_quadratic(D: int, norm_bound: int) -> list[QuadIndecRecord]:
    """Totally positive semiconvergents (i odd) and conjugates, norm <= bound.

    Semiconvergent indices run over two full periods (odd i from -1), which
    covers every orbit under totally positive units at least once.
    """
    if norm_bound < 1:
        raise IllegalParameter("norm_bound must be >= 1")
    cf = cf_expand(D)
    out = []
    i_max = 4 * cf.period_length
    for i in range(-1, i_max + 1, 2):
        for r in range(0, cf.u(i + 2)):
            el = semiconvergent(D, i, r)
            if el.is_zero() or not el.is_totally_positive():
                continue
            if el.norm() > norm_bound:
                continue
            out.append(QuadIndecRecord(el, i, r, False))
            cj = el.conj()
            if cj != el:
                out.append(QuadIndecRecord(cj, i, r, True))
    return out


# ---------------------------------------------------------------------------
# Codifferent and trace-one certificates


def sqrt_disc_element(field: QuadField) -> QuadElement:
    """sqrt(Delta) = f'(omega) as an element: 2*omega (D = 2,3 mod 4) or 2*omega - 1."""
    if field.one_mod_four:
        return QuadElement((-1, 2), field)
    return QuadElement((0, 2), field)


@dataclass(frozen=True)
class QuadCodifferentElement:
    """delta = numerator / sqrt(Delta)."""

    numerator: QuadElement

    @property
    def field(self) -> QuadField:
        return self.numerator.field


def quad_trace_pairing(delta: QuadCodifferentElement, x: QuadElement) -> int:
    if x.field is not delta.field and x.field != delta.field:
        raise FieldMismatch("pairing operands from different fields")
    b = euler_pairing(delta.field.minpoly)  # sqrt(Delta) = f'(omega)
    g = delta.numerator.coords
    v = x.coords
    return sum(g[i] * b[i][j] * v[j] for i in range(2) for j in range(2))


def is_totally_positive_quad_codiff(delta: QuadCodifferentElement) -> bool:
    """gamma/sqrt(Delta) is totally positive iff gamma * sqrt(Delta) is."""
    g = delta.numerator
    if g.is_zero():
        raise ZeroElement("zero codifferent element")
    return (g * sqrt_disc_element(delta.field)).is_totally_positive()


def _delta_checks(delta: QuadCodifferentElement, i: int) -> bool:
    """Tr(alpha_{i,r} * delta) = 1 for all 0 <= r <= u_{i+2}, and delta >> 0."""
    cf = cf_expand(delta.field.D)
    for r in range(0, cf.u(i + 2) + 1):
        if quad_trace_pairing(delta, semiconvergent(delta.field.D, i, r)) != 1:
            return False
    return is_totally_positive_quad_codiff(delta)


def trace_one_delta(D: int, i: int) -> QuadCodifferentElement:
    """The certificate delta_i for the odd-index semiconvergent family.

    For D = 2,3 mod 4: delta = (-p_{i+1} + q_{i+1}*sqrt(D)) / (2*sqrt(D)).
    For D = 1 mod 4 the right scaling of the analogous element is fixed by
    requiring both certificate checks; see trace_one_delta_scalings.
    """
    if i < -1 or i % 2 == 0:
        raise IndexOutOfRange("certificates exist for odd i >= -1")
    cf = cf_expand(D)
    field = cf.field
    p, q = cf.convergent_pair(i + 1)
    if field.one_mod_four:
        gamma = QuadElement((-p - q, q), field)
    else:
        gamma = QuadElement((-p, q), field)
    delta = QuadCodifferentElement(gamma)
    if not _delta_checks(delta, i):
        raise CertificateFailure(f"certificate checks failed for D={D}, i={i}")
    return delta


def trace_one_delta_scalings(D: int, i: int) -> dict[str, object]:
    """Resolution record for the D = 1 mod 4 certificate scaling.

    Interpreted literally, -sqrt(D)*(p_{i+1} + q_{i+1}*(1-sqrt(D))/2) is D
    times the working certificate: it stays in the codifferent and totally
    positive but pairs to D, not 1.  The record reports both candidates.
    """
    field = make_quad_field(D)
    if not field.one_mod_four:
        delta = trace_one_delta(D, i)
        return {"passing": "direct", "delta": delta, "literal_trace": 1}
    cf = cf_expand(D)
    p, q = cf.convergent_pair(i + 1)
    # literal display times sqrt(D)/sqrt(D): numerator over sqrt(Delta)=sqrt(D)
    literal_num = QuadElement((-p - q, q), field) * D
    literal = QuadCodifferentElement(literal_num)
    literal_trace = quad_trace_pairing(literal, semiconvergent(D, i, 0))
    corrected = trace_one_delta(D, i)
    return {
        "passing": "literal/D",
        "delta": corrected,
        "literal_trace": literal_trace,
        "literal_totally_positive": is_totally_positive_quad_codiff(literal),
    }


# ---------------------------------------------------------------------------
# Period-based counts


def quad_counts(D: int) -> tuple[int, int]:
    """(n, #S) from the continued fraction period."""
    cf = cf_expand(D)
    s = cf.period_length
    if s % 2 == 0:
        n = max(cf.u(i) for i in range(1, s) if i % 2 == 1) + 1
    else:
        n = 2 * cf.u(s - 1) + 1
    s_count = sum(cf.u(2 * j - 1) for j in range(1, s + 1))
    return n, s_count


# ---------------------------------------------------------------------------
# Rank-2 oracle (the shared search path of oracle, with a 2x2 embedding matrix)


@lru_cache(maxsize=None)
def _sqrt_interval(D: int, rounds: int) -> Interval:
    lo = Fraction(math.isqrt(D))
    hi = lo + 1
    target = Fraction(1, 2 ** (10 + rounds))
    while hi - lo > target:
        mid = (lo + hi) / 2
        if mid * mid <= D:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def decompose_quadratic(alpha: QuadElement) -> Optional[tuple[QuadElement, QuadElement]]:
    """Rank-2 analogue of oracle.decompose."""
    return first_split(alpha, QuadElement.is_totally_positive)


@lru_cache(maxsize=None)
def fundamental_tp_unit(D: int) -> QuadElement:
    """Generator of the totally positive unit group (above the roots of unity)."""
    cf = cf_expand(D)
    s = cf.period_length
    eps = cf.convergent(s - 1)
    if eps.norm() not in (1, -1):
        raise ConsistencyError(f"period convergent of D={D} is not a unit")
    if eps.norm() == -1:
        eps = eps * eps
    if eps.norm() != 1 or not eps.is_totally_positive():
        raise ConsistencyError(f"unit of D={D} is not totally positive")
    return eps


def quad_ideal_hnf(beta: QuadElement):
    """Canonical HNF of the ideal beta * Z[omega]."""
    if beta.is_zero():
        raise ZeroElement("zero generates the zero ideal")
    omega = QuadElement((0, 1), beta.field)
    h = row_hnf_lower([list(beta.coords), list((beta * omega).coords)])
    return h


def search_indecomposables(D: int, norm_bound: int) -> list[QuadElement]:
    """Ground-truth inventory: decompose-tested lattice points of D(1, eps0).

    Unit lattice points are omitted (norm 1); each returned element is a
    totally positive non-unit with no totally positive splitting.
    """
    field = make_quad_field(D)
    points, _ = parallelepiped_points(((1, 0), fundamental_tp_unit(D).coords))
    out = []
    for coords in points:
        el = QuadElement(coords, field)
        if el.is_zero() or not el.is_totally_positive():
            continue
        if abs(el.norm()) == 1 or el.norm() > norm_bound:
            continue
        if decompose_quadratic(el) is None:
            out.append(el)
    return out
