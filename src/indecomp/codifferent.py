"""The codifferent (1/f'(rho)) Z[rho] of a monogenic order, cubic or quadratic.

A codifferent element is stored as an order element gamma with the fixed
denominator f'(rho); the integral trace pairing Tr(gamma * x / f'(rho)) is
evaluated through an integer Gram matrix computed once per field.  In a
quadratic field f'(omega) = sqrt(Delta), the square root of the discriminant.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConsistencyError,
    FieldMismatch,
    NonIntegralTrace,
    UnsupportedFamily,
    ZeroElement,
)
from .hnf import adjugate
from .integers import is_squarefree
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    coords_totally_positive,
    elem,
    make_field,
    mul,
    mul_coords,
    multiplication_matrix,
    norm,
)


@lru_cache(maxsize=None)
def fprime_element(field: FieldSpec) -> OrderElement:
    """f'(rho) as an order element, from the coefficients of f = field.minpoly.

    Cached: every codifferent positivity test multiplies by it.
    """
    c = (*reversed(field.minpoly), 1)  # f = sum_k c_k x^k
    return OrderElement(tuple(k * c[k] for k in range(1, len(c))), field)


@lru_cache(maxsize=None)
def fprime_matrix(field: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """The multiplication matrix of f'(rho): its rows applied to coords(gamma) give gamma * f'."""
    return multiplication_matrix(fprime_element(field))


@lru_cache(maxsize=None)
def _fprime_inverse_parts(field: FieldSpec):
    """(adjugate, det) of the multiplication matrix of f'(rho)."""
    adj, det = adjugate(fprime_matrix(field))
    if det == 0 or det != norm(fprime_element(field)):
        raise ConsistencyError(f"det {det} of f'(rho) is not its nonzero norm")
    return adj, det


@lru_cache(maxsize=None)
def euler_pairing(minpoly: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Hankel matrix (t_(i+j)) with t_m = Tr(rho^m / f'(rho)), rho a root of f.

    minpoly lists the coefficients of the monic f below its leading 1, highest
    first.  By Euler's lemma t_m = 0 for m < d-1 and t_(d-1) = 1, and
    rho^d = -sum_k c_k rho^k gives t_m = -sum_k c_k t_(m-d+k) for m >= d.
    """
    d = len(minpoly)
    t = [0] * (d - 1) + [1]
    for _ in range(d, 2 * d - 1):
        t.append(-sum(c * tm for c, tm in zip(minpoly, reversed(t[-d:]))))
    return tuple(tuple(t[i : i + d]) for i in range(d))


@lru_cache(maxsize=None)
def pairing_matrix(field: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Integer matrix B with Tr(gamma * x / f'(rho)) = coords(gamma)^T B coords(x).

    B = euler_pairing(field.minpoly), cross-checked against the
    multiplication-matrix route: Tr(adj * rho^m) = t_m * det in integers.
    adj = M_g for g = det/f'(rho), so Tr(g rho^m) = sum_k g_k p_(k+m) with
    the power sums p_j = Tr(rho^j) of Newton's identities.
    """
    b = euler_pairing(field.minpoly)
    t = b[0] + b[-1][1:]  # Tr(rho^m / f') for m = 0..2d-2

    # independent check: f'^-1 = adj(M_f') / N(f'), so Tr(rho^m / f') = Tr(adj rho^m) / det
    adj, det = _fprime_inverse_parts(field)
    c, d = field.minpoly, len(field.minpoly)
    p = [d]  # p_j = -sum_(i<=min(j,d)) c_(d-i) p_(j-i), with j in place of p_0 at i = j
    for j in range(1, 3 * d - 2):
        p.append(-sum(c[i - 1] * (p[j - i] if i < j else j) for i in range(1, min(j, d) + 1)))
    g = [row[0] for row in adj]
    for m in range(len(t)):
        tr = sum(map(operator.mul, g, p[m:]))
        if tr != t[m] * det:
            raise NonIntegralTrace(
                f"pairing base Tr(rho^{m}/f') = {Fraction(tr, det)} != {t[m]}"
            )
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
    field = delta.field
    if x.field is not field and x.field != field:
        raise FieldMismatch("codifferent element and order element fields differ")
    return sum(map(operator.mul, delta.numerator.coords, dual_pairing_vector(field, x)))


def pairing_vector(delta: CodifferentElement) -> tuple[int, ...]:
    """Integer c with Tr(delta * x) = c . coords(x); the pairing matrix is symmetric."""
    return dual_pairing_vector(delta.field, delta.numerator)


def dual_pairing_vector(field: FieldSpec, x: OrderElement) -> tuple[int, ...]:
    """Integer c with Tr((gamma/f') * x) = c . coords(gamma)."""
    return tuple([sum(map(operator.mul, row, x.coords)) for row in pairing_matrix(field)])


def numerator_totally_positive(coords: tuple[int, ...], field: FieldSpec) -> bool:
    """gamma/f' >> 0 for the numerator gamma on coordinates: iff gamma * f' =
    (gamma/f') * f'^2 is.  The one such rule of the searches; 0 reads False."""
    minpoly = field.minpoly
    return coords_totally_positive(mul_coords(coords, fprime_element(field).coords, minpoly), minpoly)


def is_totally_positive_codiff(delta: CodifferentElement) -> bool:
    """`numerator_totally_positive` of delta's numerator; ZeroElement for 0."""
    if delta.numerator.is_zero():
        raise ZeroElement("zero codifferent element")
    return numerator_totally_positive(delta.numerator.coords, delta.field)


def checked_delta(numerator: OrderElement, expected: tuple[int, ...]) -> CodifferentElement:
    """numerator/f'(rho), checked to pair to Tr(delta*rho^i) = expected[i] and
    to be totally positive: the one check of every closed-form certificate."""
    delta = CodifferentElement(numerator)
    for i, (got, want) in enumerate(zip(pairing_vector(delta), expected, strict=True)):
        if got != want:
            raise NonIntegralTrace(f"Tr(delta*rho^{i}) = {got}, expected {want}")
    if not is_totally_positive_codiff(delta):
        raise ConsistencyError(f"certificate delta {delta} is not totally positive")
    return delta


@lru_cache(maxsize=None)
def certificate_delta(field: FieldSpec) -> CodifferentElement:
    """The canonical totally positive delta with Tr(delta*(v1+v2 rho+v3 rho^2)) = v1+v3.

    For the SimplestCubic family the numerator is -(a+2) - a*rho + rho^2;
    the alternative rationalized display of the same element is reconciled
    by an exact identity check at construction.
    """
    a = field.a
    if field.family is Family.SIMPLEST_CUBIC:
        scale = a * a + 3 * a + 9
        first = elem(field, -4 - a, -1 - 2 * a, 2)
        numerator = elem(field, -(a + 2), -a, 1)
        # first * f'(rho) = a^2+3a+9, so numerator/f' = first*numerator/(a^2+3a+9)
        if mul(first, fprime_element(field)).coords != (scale, 0, 0):
            raise NonIntegralTrace("codifferent display identity failed")
    elif field.family is Family.ENNOLA:
        numerator = elem(field, -(a - 1), a - 1, 1)
    else:
        raise UnsupportedFamily(f"no certificate delta for {field.family.value}")
    return checked_delta(numerator, (1, 0, 1))


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
