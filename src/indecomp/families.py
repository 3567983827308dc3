"""Closed-form indecomposable inventories for the three cubic families, and
the record type that the quadratic inventory shares.

The triangle of a SimplestCubic field is indexed internally by (v, W) with
w = v(a+2) + 1 + W; the order-3 rotation (conjugation combined with a fixed
totally positive unit) is affine in these coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .codifferent import CodifferentElement, certificate_delta, checked_delta, pairing_vector
from .errors import (
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    OutOfDomain,
    OutOfRange,
    OutOfTriangle,
    UnsupportedFamily,
)
from .hnf import parallelepiped_points
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    elem,
    is_totally_positive,
    make_field,
    mul,
    one,
    unit_generators,
    unit_inverse,
)

KIND_UNIT = "unit"
KIND_EXCEPTIONAL = "exceptional"
KIND_TRIANGLE = "triangle"
KIND_ENNOLA_ROW = "ennola_row"
KIND_THOMAS_ROW1 = "thomas_row1"
KIND_THOMAS_ROW2 = "thomas_row2"
KIND_SEMICONVERGENT = "semiconvergent"  # quadratic: alpha_{i,r}, index (i, r)
KIND_CONJUGATE = "conjugate"  # quadratic: the conjugate of alpha_{i,r}


@dataclass(frozen=True)
class TrianglePoint:
    v: int
    W: int

    def w(self, a: int) -> int:
        return self.v * (a + 2) + 1 + self.W


def in_triangle(a: int, p: TrianglePoint) -> bool:
    return 0 <= p.v <= a and 0 <= p.W <= a - p.v


def unit_corners(a: int) -> tuple[TrianglePoint, TrianglePoint, TrianglePoint]:
    """The three unit points rho^2, 1, (rho')^{-2} in (v, W) indexing."""
    return (TrianglePoint(0, -1), TrianglePoint(-1, a + 1), TrianglePoint(a + 1, 0))


def triangle_element(field: FieldSpec, p: TrianglePoint) -> OrderElement:
    a = field.a
    w = p.w(a)
    return elem(field, -p.v, -w, p.v + 1)


def rotate(p: TrianglePoint, a: int, turns: int = 1) -> TrianglePoint:
    """Order-3 rotation of the triangle (and of its three unit corners).

    One turn sends alpha(v, W) to the first conjugate times (rho')^{-2},
    which is alpha(W, a-v-W); two turns use the second conjugate and rho^2.
    """
    if turns not in (1, 2):
        raise IllegalParameter("turns must be 1 or 2")
    if not (in_triangle(a, p) or p in unit_corners(a)):
        raise OutOfDomain(f"{p} outside triangle and unit corners for a={a}")
    q = TrianglePoint(p.W, a - p.v - p.W)
    if turns == 2:
        q = TrianglePoint(q.W, a - q.v - q.W)
    return q


def triangle_norm(a: int, v: int, W: int) -> int:
    """Closed-form norm of alpha(v, W) inside the triangle."""
    if not in_triangle(a, TrianglePoint(v, W)):
        raise OutOfTriangle(f"(v, W) = ({v}, {W}) outside triangle for a={a}")
    return (
        a * a * v * W
        - a * v * v * W
        - a * v * W * W
        + a * a * v
        - 2 * a * v * v
        + a * v * W
        + a * W * W
        + v**3
        - 3 * v * W * W
        - W**3
        + 3 * a * v
        + 3 * a * W
        - 3 * v * v
        - 3 * v * W
        - 3 * W * W
        + 2 * a
        + 3
    )


def fundamental_triangle(a: int) -> list[TrianglePoint]:
    """A fundamental third of the triangle under the order-3 rotation."""
    if a < 0:
        raise IllegalParameter("fundamental triangle needs a >= 0")
    return list(_fundamental_points(a))


def _fundamental_points(a: int) -> Iterator[TrianglePoint]:
    """The points of `fundamental_triangle(a)`, a >= 0, one at a time."""
    bigA, a0 = divmod(a, 3)
    top = bigA - 1 if a0 == 0 else bigA
    for v in range(0, top + 1):
        for W in range(v, 3 * bigA + a0 - 2 * v - 1 + 1):
            yield TrianglePoint(v, W)
    if a0 == 0:
        yield TrianglePoint(bigA, bigA)


@dataclass(frozen=True)
class IndecomposableRecord:
    element: OrderElement
    kind: str
    index: tuple[int, ...]
    certificate: Optional[tuple[CodifferentElement, int]]


def _record(element, kind, index, certifier=None):
    """certifier = (delta, c) with c = pairing_vector(delta), built once per inventory."""
    cert = None
    if certifier is not None:
        delta, c = certifier
        cert = (delta, sum(map(operator.mul, c, element.coords)))  # Tr(delta * element)
    return IndecomposableRecord(element, kind, index, cert)


@lru_cache(maxsize=None)
def indecomposables_simplest(a: int) -> tuple[IndecomposableRecord, ...]:
    """1, 1+rho+rho^2, and the triangle; (a^2+3a+6)/2 records in total."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    delta = certificate_delta(field)
    cert = (delta, pairing_vector(delta))
    records = [
        _record(one(field), KIND_UNIT, (), cert),
        _record(elem(field, 1, 1, 1), KIND_EXCEPTIONAL, (), cert),
    ]
    for v in range(0, a + 1):
        for W in range(0, a - v + 1):
            p = TrianglePoint(v, W)
            records.append(_record(triangle_element(field, p), KIND_TRIANGLE, (v, W), cert))
    if 2 * len(records) != a * a + 3 * a + 6:
        raise ConsistencyError(f"{len(records)} records, expected (a^2+3a+6)/2")
    return tuple(records)


@lru_cache(maxsize=None)
def indecomposables_ennola(a: int) -> tuple[IndecomposableRecord, ...]:
    """1 and 1 + w*rho + rho^2 for 1 <= w <= a-1."""
    field = make_field(Family.ENNOLA, a)
    delta = certificate_delta(field)
    cert = (delta, pairing_vector(delta))
    records = [_record(one(field), KIND_UNIT, (), cert)]
    for w in range(1, a):
        records.append(_record(elem(field, 1, w, 1), KIND_ENNOLA_ROW, (w,), cert))
    return tuple(records)


@lru_cache(maxsize=None)
def indecomposables_thomas(a: int) -> tuple[IndecomposableRecord, ...]:
    """1, 1 - a*rho + rho^2, and the two rows; 2a+1 records in total."""
    field = make_field(Family.THOMAS, a)
    records = [
        _record(one(field), KIND_UNIT, ()),
        _record(elem(field, 1, -a, 1), KIND_EXCEPTIONAL, ()),
    ]
    for v in range(1, a):
        records.append(_record(elem(field, 0, (a + 2) * v + 1, -v), KIND_THOMAS_ROW1, (v,)))
    c2 = (1, 3, 3 * a + 6)  # pairs every -1 + ((a+2)w+1) rho - w rho^2 to 2
    cert2 = (checked_delta(elem(field, a * (a - 1), -(2 * a - 1), 1), c2), c2)
    for w in range(a, 2 * a):
        rec = _record(elem(field, -1, (a + 2) * w + 1, -w), KIND_THOMAS_ROW2, (w,), cert2)
        if rec.certificate[1] != 2:
            raise ConsistencyError(f"{rec} pairs to {rec.certificate[1]}, not 2")
        records.append(rec)
    if len(records) != 2 * a + 1:
        raise ConsistencyError(f"{len(records)} records, expected 2a+1")
    for rec in records:
        if not is_totally_positive(rec.element):
            raise ConsistencyError(f"{rec} is not totally positive")
    return tuple(records)


def inventory(field: FieldSpec) -> tuple[IndecomposableRecord, ...]:
    """The closed-form inventory of a field of one of the three families."""
    if field.family is Family.SIMPLEST_CUBIC:
        return indecomposables_simplest(field.a)
    if field.family is Family.ENNOLA:
        return indecomposables_ennola(field.a)
    if field.family is Family.THOMAS:
        return indecomposables_thomas(field.a)
    raise UnsupportedFamily(f"no inventory for {field.family.value}")


def parallelepiped_candidates(*gens: OrderElement) -> tuple[list[OrderElement], list[OrderElement]]:
    """Lattice points of the closed parallelepiped spanned by two or three units.

    Returns (candidates, vertex_sums): candidates are the lattice points that
    are not sums of a subset of the generators; vertex_sums are the (at most
    2^n) subset sums that do land on lattice points, zero included.
    """
    if any(u.field is not gens[0].field and u.field != gens[0].field for u in gens[1:]):
        raise FieldMismatch("parallelepiped generators from different fields")
    points, vertices = parallelepiped_points([u.coords for u in gens])
    field = gens[0].field
    candidates, vertex_sums = [], []
    for x in points:
        (vertex_sums if x in vertices else candidates).append(OrderElement(x, field))
    return candidates, vertex_sums


def standard_parallelepipeds(field):
    """The window parallelepipeds: (1, e1, e2) and (1, e1, e1*e2^{-1}) for a
    cubic field, (1, eps) for a quadratic one, eps its totally positive unit."""
    if len(field.minpoly) == 2:
        from .quadratic import fundamental_tp_unit

        return ((one(field), fundamental_tp_unit(field.a)),)
    e1, e2 = unit_generators(field).totally_positive
    e3 = mul(e1, unit_inverse(e2))
    return ((one(field), e1, e2), (one(field), e1, e3))


def upper_strip_split(a: int, v: int, w: int) -> tuple[OrderElement, OrderElement]:
    """Explicit decomposition of -v - w*rho + (v+2)*rho^2 in the upper strip.

    The strip is 0 <= v <= a, (v+1)(a+1)+1 <= w <= (v+1)(a+2); the two parts
    re-sum to the element and are both totally positive.
    """
    if not (0 <= v <= a and (v + 1) * (a + 1) + 1 <= w <= (v + 1) * (a + 2)):
        raise OutOfRange(f"(v, w) = ({v}, {w}) outside the strip for a={a}")
    field = make_field(Family.SIMPLEST_CUBIC, a)
    first = elem(field, -v, -(a + 1) * (v + 1), v + 1)
    second = elem(field, 0, -(w - (a + 1) * (v + 1)), 1)
    total = first + second
    if total.coords != (-v, -w, v + 2):
        raise ConsistencyError(f"strip parts sum to {total}, not the element")
    return first, second
