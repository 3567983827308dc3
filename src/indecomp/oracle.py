"""Brute-force ground truth: decomposability, minimal traces, lattice search.

All searches are exhaustive over rigorously derived integer boxes: the box
is the interval hull of the constraint region mapped through the inverse of
the embedding matrix, computed with rational interval arithmetic (Cramer's
rule).  Cubic and quadratic searches share one path: `_context` refines the
field's interval embedding rows until the determinant and the needed element
enclosures are sign-definite, `box_from_embedding` is the box rule, and
`iterate_box` and `iterate_slice` enumerate a box or one trace slice of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .codifferent import (
    CodifferentElement,
    dual_pairing_vector,
    fprime_element,
    is_totally_positive_codiff,
    trace_pairing,
)
from .errors import (
    CertificateFailure,
    ConsistencyError,
    IllegalParameter,
    RefinementLimit,
    UnboundedRegion,
)
from .intervals import Interval, det
from .order_kernel import (
    REFINEMENT_CAP,
    FieldSpec,
    OrderElement,
    is_totally_positive,
    norm,
)


# ---------------------------------------------------------------------------
# The shared search path: embedding context, box rule, enumerators


def _context(field, positive: Sequence = (), sign_definite: Sequence = ()):
    """Embedding rows with sign-definite determinant, plus element enclosures.

    field is a cubic FieldSpec or a QuadField.  Both provide
    embedding_rows(rounds), the interval embedding matrix of a power basis
    (1, rho, ...), and an element's enclosures are those rows times its
    coordinates.  The rows are refined until the determinant is sign-definite,
    every element of `positive` has positive enclosures, and every element of
    `sign_definite` has sign-definite enclosures.
    """
    for rounds in range(REFINEMENT_CAP + 1):
        rows = field.embedding_rows(rounds)
        if not det(rows).sign_definite():
            continue
        enclosures = {}
        for el in (*positive, *sign_definite):
            c0, *cs = el.coords  # the first basis element is 1
            enclosures[el] = tuple(
                sum((x * c for x, c in zip(row[1:], cs)), Interval(c0)) for row in rows
            )
        if all(iv.is_positive() for el in positive for iv in enclosures[el]) and all(
            iv.sign_definite() for ivs in enclosures.values() for iv in ivs
        ):
            return rows, enclosures
    raise RefinementLimit("embedding context did not stabilize")


def box_from_embedding(
    rows: Sequence[Sequence[Interval]], bounds: Sequence[Interval]
) -> list[tuple[int, int]]:
    """Integer coordinate box enclosing {x : sigma_i(x) in bounds_i for all i}.

    rows is the embedding matrix (row i = embedding i on the power basis) as
    intervals with sign-definite determinant (as `_context` returns them);
    the result holds per-coordinate integer ranges (possibly empty).
    """
    d = len(rows)
    dt = det(rows)
    if not dt.sign_definite():
        raise RefinementLimit("embedding determinant is not sign-definite")
    ranges = []
    for j in range(d):
        m = [[bounds[i] if k == j else rows[i][k] for k in range(d)] for i in range(d)]
        xj = det(m) / dt
        ranges.append((math.ceil(xj.lo), math.floor(xj.hi)))
    return ranges


def iterate_box(ranges: Sequence[tuple[int, int]]) -> Iterable[tuple[int, ...]]:
    """Lexicographically ascending integer points of a coordinate box."""
    if any(lo > hi for lo, hi in ranges):
        return iter(())
    return itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))


def iterate_slice(
    box: Sequence[tuple[int, int]], c: Sequence[int], t: int
) -> Iterator[tuple[int, int, int]]:
    """Points x of a 3-dimensional box on the slice c . x = t (t != 0).

    The coordinate with the largest |c_j| is solved for, so the loop runs
    over the other two; nothing is yielded when c = 0.
    """
    pivot = max(range(3), key=lambda j: abs(c[j]))
    if c[pivot] == 0:
        return
    j0, j1 = [j for j in range(3) if j != pivot]
    (lo0, hi0), (lo1, hi1), (plo, phi) = box[j0], box[j1], box[pivot]
    for x0 in range(lo0, hi0 + 1):
        for x1 in range(lo1, hi1 + 1):
            q, r = divmod(t - c[j0] * x0 - c[j1] * x1, c[pivot])
            if r or not plo <= q <= phi:
                continue
            coords = [0, 0, 0]
            coords[j0], coords[j1], coords[pivot] = x0, x1, q
            yield tuple(coords)


def search_box(field: FieldSpec, constraints: Sequence[tuple[object, object]]) -> list[tuple[int, int]]:
    """Integer box for per-embedding constraints lo_i < sigma_i(x) < hi_i.

    Every embedding must carry two finite rational bounds, otherwise the
    region is unbounded.
    """
    if len(constraints) != 3:
        raise UnboundedRegion("need one (lo, hi) constraint per embedding")
    bounds = []
    for lo, hi in constraints:
        if lo is None or hi is None:
            raise UnboundedRegion("one-sided constraints leave the region unbounded")
        bounds.append(Interval(Fraction(lo), Fraction(hi)))
    rows, _ = _context(field)
    return box_from_embedding(rows, bounds)


# ---------------------------------------------------------------------------
# Decomposability


def first_split(alpha, is_positive: Callable[[object], bool]):
    """Lexicographically least (beta, alpha-beta) with both totally positive.

    alpha is an OrderElement or a QuadElement and is_positive the matching
    total-positivity test; returns None exactly when alpha is indecomposable.
    """
    if alpha.is_zero() or not is_positive(alpha):
        raise IllegalParameter("decompose expects a totally positive element")
    rows, enclosures = _context(alpha.field, positive=[alpha])
    box = box_from_embedding(rows, [Interval(0, iv.hi) for iv in enclosures[alpha]])
    element, field, zero = type(alpha), alpha.field, (0,) * len(box)
    for coords in iterate_box(box):
        if coords == zero:
            continue
        beta = element(coords, field)
        rest = alpha - beta
        if rest.is_zero():
            continue
        if is_positive(beta) and is_positive(rest):
            return beta, rest
    return None


def decompose(alpha: OrderElement) -> Optional[tuple[OrderElement, OrderElement]]:
    """Lexicographically least (beta, alpha-beta) with both totally positive.

    Returns None exactly when alpha is indecomposable in the order.
    """
    return first_split(alpha, is_totally_positive)


# ---------------------------------------------------------------------------
# Minimal trace over the totally positive codifferent


def _trace_slice(alpha: OrderElement, t: int) -> list[OrderElement]:
    """All numerators gamma with Tr((gamma/f')*alpha) = t and gamma/f' >> 0."""
    field = alpha.field
    fp = fprime_element(field)
    rows, enclosures = _context(field, positive=[alpha], sign_definite=[fp])
    aiv = enclosures[alpha]
    fiv = enclosures[fp]
    bounds = []
    for i in range(3):
        # 0 < sigma_i(delta) < t / sigma_i(alpha), gamma = delta * f'(rho)
        if fiv[i].is_positive():
            bounds.append(Interval(0, t * fiv[i].hi / aiv[i].lo))
        else:
            bounds.append(Interval(t * fiv[i].lo / aiv[i].lo, 0))
    box = box_from_embedding(rows, bounds)
    hits = []
    for coords in iterate_slice(box, dual_pairing_vector(field, alpha), t):
        gamma = OrderElement(coords, field)
        if is_totally_positive_codiff(CodifferentElement(gamma)):
            hits.append(gamma)
    hits.sort(key=lambda g: g.coords)
    return hits


def min_trace(
    alpha: OrderElement, t_max: int = 10
) -> Optional[tuple[int, CodifferentElement]]:
    """Smallest t <= t_max with a totally positive delta of Tr(alpha*delta) = t.

    The witness is the lexicographically least numerator; None means every
    trace up to t_max is unattained (reported as "> t_max", never as a claim).
    """
    if alpha.is_zero() or not is_totally_positive(alpha):
        raise IllegalParameter("min_trace expects a totally positive element")
    if t_max < 1:
        raise IllegalParameter("t_max must be at least 1")
    for t in range(1, t_max + 1):
        hits = _trace_slice(alpha, t)
        if hits:
            witness = CodifferentElement(hits[0])
            if trace_pairing(witness, alpha) != t:
                raise ConsistencyError(f"trace-{t} witness pairs to another trace")
            return t, witness
    return None


def shared_trace_witness(elements: Sequence[OrderElement], t: int) -> CodifferentElement:
    """One totally positive delta with Tr(delta*e) = t for every listed element."""
    if not elements:
        raise IllegalParameter("need at least one element")
    for gamma in _trace_slice(elements[0], t):
        delta = CodifferentElement(gamma)
        if all(trace_pairing(delta, e) == t for e in elements[1:]):
            return delta
    raise CertificateFailure(f"no shared totally positive trace-{t} witness")


# ---------------------------------------------------------------------------
# Window search for indecomposables


@dataclass(frozen=True)
class SearchInventory:
    """Ground-truth inventory from the two fundamental parallelepipeds."""

    indecomposables: tuple[OrderElement, ...]
    units: tuple[OrderElement, ...]


def indecomposables_by_search(field: FieldSpec) -> SearchInventory:
    """Exhaustive decompose-testing of the window lattice points.

    Unit lattice points (norm +-1) are reported separately: they are
    trivially indecomposable and the closed-form inventories list only the
    element 1 for them.
    """
    from .families import parallelepiped_candidates, standard_parallelepipeds

    seen: dict[tuple[int, int, int], OrderElement] = {}
    for gens in standard_parallelepipeds(field):
        cands, vertices = parallelepiped_candidates(*gens)
        for el in cands + vertices:
            seen[el.coords] = el
    units = []
    indec = []
    for coords in sorted(seen):
        el = seen[coords]
        if el.is_zero() or not is_totally_positive(el):
            continue
        if norm(el) in (1, -1):
            units.append(el)
            continue
        if decompose(el) is None:
            indec.append(el)
    return SearchInventory(tuple(indec), tuple(units))


# ---------------------------------------------------------------------------
# Exact norm superadditivity check


def norms_superadditive(a_norm: int, b_norm: int, sum_norm: int) -> bool:
    """Exact test of sum_norm^(1/3) >= a_norm^(1/3) + b_norm^(1/3).

    With D = sum_norm - a_norm - b_norm, the inequality holds iff D >= 0 and
    D^3 >= 27 * a_norm * b_norm * (D + a_norm + b_norm): the right-hand side
    3*(AB)^(1/3)*(A^(1/3)+B^(1/3)) is the positive root of the cubic
    t^3 - 27ABt - 27AB(A+B).
    """
    if a_norm <= 0 or b_norm <= 0 or sum_norm <= 0:
        raise IllegalParameter("norms of totally positive elements are positive")
    d = sum_norm - a_norm - b_norm
    if d < 0:
        return False
    return d**3 >= 27 * a_norm * b_norm * (d + a_norm + b_norm)
