"""The codifferent (1/f'(rho)) Z[rho] of a monogenic cubic order.

A codifferent element is stored as an order element gamma with the fixed
denominator f'(rho); the integral trace pairing Tr(gamma * x / f'(rho)) is
evaluated through an integer Gram matrix computed once per field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralTrace, UnsupportedFamily, ZeroElement
from .hnf import adjugate
from .integers import is_squarefree
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    elem,
    make_field,
    mul,
    multiplication_matrix,
    norm,
    one,
    rho,
)


def fprime_element(field: FieldSpec) -> OrderElement:
    """f'(rho) as an order element."""
    return OrderElement((field.c1, 2 * field.c2, 3), field)


@lru_cache(maxsize=None)
def _fprime_inverse_parts(field: FieldSpec):
    """(adjugate, det) of the multiplication matrix of f'(rho)."""
    m = multiplication_matrix(fprime_element(field))
    adj, det = adjugate(m)
    assert det == norm(fprime_element(field)) and det != 0
    return adj, det


@lru_cache(maxsize=None)
def pairing_matrix(field: FieldSpec) -> tuple[tuple[int, int, int], ...]:
    """Integer matrix B with Tr(gamma * x / f'(rho)) = coords(gamma)^T B coords(x).

    B[i][j] = Tr(rho^(i+j) / f'(rho)); computed by the power-sum recurrence
    and cross-checked against the rational multiplication-matrix route.
    """
    c2, c1, c0 = field.minpoly
    t = [0, 0, 1]  # Tr(rho^m / f') for m = 0, 1, 2
    for _ in range(3, 5):
        t.append(-c2 * t[-1] - c1 * t[-2] - c0 * t[-3])
    b = tuple(tuple(t[i + j] for j in range(3)) for i in range(3))

    # independent check: Tr(rho^m * f'(rho)^{-1}) via exact rational algebra
    adj, det = _fprime_inverse_parts(field)
    power = one(field)
    for m in range(5):
        coords = power.coords
        inv_coords = tuple(
            Fraction(sum(adj[i][k] * coords[k] for k in range(3)), det) for i in range(3)
        )
        tr = (
            3 * inv_coords[0]
            - c2 * inv_coords[1]
            + (c2 * c2 - 2 * c1) * inv_coords[2]
        )
        if tr != t[m]:
            raise NonIntegralTrace(f"pairing base Tr(rho^{m}/f') = {tr} != {t[m]}")
        power = mul(power, rho(field))
    return b


@dataclass(frozen=True)
class CodifferentElement:
    """delta = numerator / f'(rho)."""

    numerator: OrderElement

    @property
    def field(self) -> FieldSpec:
        return self.numerator.field

    def __repr__(self):
        return f"CodifferentElement({self.numerator.coords}/f'(rho))"


def trace_pairing(delta: CodifferentElement, x: OrderElement) -> int:
    """Exact integer Tr(delta * x)."""
    if delta.field != x.field:
        from .errors import FieldMismatch

        raise FieldMismatch("codifferent element and order element fields differ")
    b = pairing_matrix(delta.field)
    g = delta.numerator.coords
    v = x.coords
    return sum(g[i] * b[i][j] * v[j] for i in range(3) for j in range(3))


def pairing_vector(delta: CodifferentElement) -> tuple[int, int, int]:
    """Integer c with Tr(delta * x) = c . coords(x)."""
    b = pairing_matrix(delta.field)
    g = delta.numerator.coords
    return tuple(sum(g[i] * b[i][j] for i in range(3)) for j in range(3))


def dual_pairing_vector(field: FieldSpec, x: OrderElement) -> tuple[int, int, int]:
    """Integer c with Tr((gamma/f') * x) = c . coords(gamma)."""
    b = pairing_matrix(field)
    v = x.coords
    return tuple(sum(b[i][j] * v[j] for j in range(3)) for i in range(3))


def is_totally_positive_codiff(delta: CodifferentElement) -> bool:
    """Exact sign test on the characteristic polynomial of multiplication by delta."""
    g = delta.numerator
    if g.is_zero():
        raise ZeroElement("zero codifferent element")
    adj, q = _fprime_inverse_parts(delta.field)
    mg = multiplication_matrix(g)
    # A/q is the multiplication matrix of delta
    a = tuple(
        tuple(sum(mg[i][k] * adj[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
    e1_num = a[0][0] + a[1][1] + a[2][2]
    e2_num = (
        a[0][0] * a[1][1]
        - a[0][1] * a[1][0]
        + a[0][0] * a[2][2]
        - a[0][2] * a[2][0]
        + a[1][1] * a[2][2]
        - a[1][2] * a[2][1]
    )
    e3_sign = norm(g) * q  # sign of N(gamma)/N(f')
    return e1_num * q > 0 and e2_num > 0 and e3_sign > 0


@lru_cache(maxsize=None)
def certificate_delta(field: FieldSpec) -> CodifferentElement:
    """The canonical totally positive delta with Tr(delta*(v1+v2 rho+v3 rho^2)) = v1+v3.

    For the SimplestCubic family the numerator is -(a+2) - a*rho + rho^2;
    the alternative rationalized display of the same element is reconciled
    by an exact identity check at construction.
    """
    if field.family is Family.SIMPLEST_CUBIC:
        a = field.a
        scale = a * a + 3 * a + 9
        first = elem(field, -4 - a, -1 - 2 * a, 2)
        second = elem(field, -(a + 2), -a, 1)
        # first * f'(rho) = a^2+3a+9, so second/f' = first*second/(a^2+3a+9)
        if mul(first, fprime_element(field)).coords != (scale, 0, 0):
            raise NonIntegralTrace("codifferent display identity failed")
        delta = CodifferentElement(second)
    elif field.family is Family.ENNOLA:
        a = field.a
        delta = CodifferentElement(elem(field, -(a - 1), a - 1, 1))
    else:
        raise UnsupportedFamily(f"no certificate delta for {field.family.value}")
    for i, expected in enumerate((1, 0, 1)):
        x = elem(field, *[1 if j == i else 0 for j in range(3)])
        got = trace_pairing(delta, x)
        if got != expected:
            raise NonIntegralTrace(f"Tr(delta*rho^{i}) = {got}, expected {expected}")
    assert is_totally_positive_codiff(delta)
    return delta


class MonogenicityStatus(enum.Enum):
    CERTIFIED_MONOGENIC = "certified"
    UNVERIFIED = "unverified"


def monogenicity_certificate(field: FieldSpec) -> MonogenicityStatus:
    """Certify Z[rho] = O_K for the SimplestCubic family.

    n = a^2+3a+9 is the square root of the discriminant.  The order is the
    maximal order exactly when n has the shape of a cyclic-cubic conductor:
    n squarefree, or n = 9m with m squarefree and coprime to 3.  (For 3 | a
    one has n = 9((a/3)^2 + a/3 + 1), so e.g. a = 0 and a = 6 certify while
    a = 3 does not.)
    """
    if field.family is not Family.SIMPLEST_CUBIC:
        raise UnsupportedFamily("monogenicity certificate only covers SimplestCubic")
    a = field.a
    n = a * a + 3 * a + 9
    if is_squarefree(n):
        return MonogenicityStatus.CERTIFIED_MONOGENIC
    if n % 9 == 0:
        m = n // 9
        if m % 3 != 0 and is_squarefree(m):
            return MonogenicityStatus.CERTIFIED_MONOGENIC
    return MonogenicityStatus.UNVERIFIED


def certified_simplest(a: int) -> bool:
    return (
        monogenicity_certificate(make_field(Family.SIMPLEST_CUBIC, a))
        is MonogenicityStatus.CERTIFIED_MONOGENIC
    )
