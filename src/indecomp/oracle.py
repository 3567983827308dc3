"""Brute-force ground truth: decomposability, minimal traces, lattice search.

Every search runs over a rigorous superset of its region and keeps the points
that pass the exact symbolic test.  By Euler's lemma the trace-dual basis of
(1, rho, ...) is b_j(rho)/f'(rho), where f(x)/(x - rho) = sum_j b_j(rho) x^j,
so x_j = sum_i sigma_i(x) sigma_i(b_j/f').  Cubic and quadratic fields share
one integer path: `_dyadic` rounds the powers of the root intervals outward
to a scale 2^k once per field and refinement round; `hnf.interval_dot` over
those rows encloses every element, f' and the b_j included.  `_context`, the
only loop that refines root intervals, refines until the needed signs are
definite, `box_from_embedding` is the box rule, and `region_points` hands
the box and the rows to the one enumerator, `hnf.lattice_points`.  Every
search region is built here; `_trace_region` is one rule for both sides of
the trace pairing.  No search step uses a float, nor a Fraction after the
rounding.  `window_points` is the one window scan for quadratic and cubic
fields, shared by `indecomposables_by_search` and
`quadratic.search_indecomposables`."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .codifferent import (
    CodifferentElement,
    dual_pairing_vector,
    fprime_element,
    is_totally_positive_codiff,
    pairing_vector,
    trace_pairing,
)
from .errors import (
    CertificateFailure,
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    RefinementLimit,
    UnboundedRegion,
    ZeroElement,
)
from .families import parallelepiped_candidates, standard_parallelepipeds
from .hnf import adjugate, interval_dot, lattice_points
from .intervals import Interval
from .order_kernel import (
    REFINEMENT_CAP,
    FieldSpec,
    OrderElement,
    is_totally_positive,
    multiplication_matrix,
    norm,
    refine_roots,
)


# ---------------------------------------------------------------------------
# The shared search path: embedding context, box rule, enumerators


@dataclass(frozen=True)
class DyadicContext:
    """Integer enclosures, at the scale 2^k, of one field's embeddings.

    rows[i][j], fprime[i] and dual[j][i] enclose, as integer pairs (lo, hi),
    2^k times sigma_i of rho^j, f'(rho) and b_j/f'; every fprime[i] is sign-definite.
    """

    k: int
    rows: tuple[tuple[tuple[int, int], ...], ...]
    fprime: tuple[tuple[int, int], ...]
    dual: tuple[tuple[tuple[int, int], ...], ...]


def _outward(iv: Interval, k: int) -> tuple[int, int]:
    return math.floor(iv.lo * 2**k), math.ceil(iv.hi * 2**k)


def _quotient(b: tuple[int, int], f: tuple[int, int], k: int) -> tuple[int, int]:
    """Enclosure of 2^k * b/f for integer intervals b and a sign-definite f, by the corners."""
    corners = [divmod(u << k, v) for u in b for v in f]
    return min(q for q, _ in corners), max(q + (r != 0) for q, r in corners)


@lru_cache(maxsize=None)
def _dyadic(field, rounds: int) -> Optional[DyadicContext]:
    """The context from `refine_roots(field, rounds)`; None until f' is sign-definite.

    field is a cubic FieldSpec or a QuadField: only field.minpoly and the
    root intervals are used.  The rows [1, rho_i, rho_i^2][:d] are rounded
    outward once, at k = the bit length of 1/(root width) plus 8; f'(rho)
    and the b_j are enclosed by `interval_dot` over them, and each dual entry
    by the outward integer quotients 2^k b_j/f' of their corners.
    """
    roots = refine_roots(field, rounds)
    c = (*reversed(field.minpoly), 1)  # f = sum_k c_k x^k
    d = len(c) - 1
    width = max(iv.width for iv in roots.intervals)
    k = (width.denominator // width.numerator).bit_length() + 8
    powers = [(Interval(1), iv, iv.square())[:d] for iv in roots.intervals]
    rows = tuple(tuple(_outward(p, k) for p in ps) for ps in powers)
    fp = tuple(interval_dot(row, fprime_element(field).coords) for row in rows)
    if not all(lo > 0 or hi < 0 for lo, hi in fp):
        return None
    # synthetic division b_(d-1) = 1, b_(j-1) = rho*b_j + c_j: b_j = sum_k c_(j+1+k) rho^k
    numerators = [c[j + 1 :] + (0,) * j for j in range(d)]
    dual = tuple(
        tuple(_quotient(interval_dot(row, b), f, k) for row, f in zip(rows, fp)) for b in numerators
    )
    return DyadicContext(k, rows, fp, dual)


def _context(field, elements: Sequence = ()):
    """The dyadic context (see `_dyadic`), plus `interval_dot` enclosures of 2^k sigma_i(el).

    Refines until ctx.fprime and the enclosures of every element are
    sign-definite in every embedding; for a totally positive element that
    makes its enclosures positive.
    """
    for rounds in range(REFINEMENT_CAP + 1):
        ctx = _dyadic(field, rounds)
        if ctx is None:
            continue
        enclosures = {el: tuple(interval_dot(row, el.coords) for row in ctx.rows) for el in elements}
        if all(lo > 0 or hi < 0 for ivs in enclosures.values() for lo, hi in ivs):
            return ctx, enclosures
    raise RefinementLimit("embedding context did not stabilize")


def box_from_embedding(ctx: DyadicContext, bounds: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Integer coordinate box enclosing {x : bounds_i enclose 2^k sigma_i(x) for all i}.

    By Euler's lemma x_j = sum_i sigma_i(x) sigma_i(b_j/f'), so 2^(2k) x_j
    lies in sum_i dual[j][i] * bounds_i; the result holds per-coordinate
    integer ranges (possibly empty).
    """
    ranges = []
    for col in ctx.dual:
        lo = hi = 0
        for (a, b), (u, v) in zip(col, bounds):
            products = (a * u, a * v, b * u, b * v)
            lo, hi = lo + min(products), hi + max(products)
        ranges.append((-(-lo >> 2 * ctx.k), hi >> 2 * ctx.k))
    return ranges


def region_points(ctx: DyadicContext, bounds, equality=None) -> Iterator[tuple[int, ...]]:
    """Integer points that may have 2^k sigma_i(x) in bounds_i for every i.

    `hnf.lattice_points` over the `box_from_embedding` box with the embedding
    rows of ctx: a superset of the region, in lexicographic order.
    """
    rows = [(row, lo, hi) for row, (lo, hi) in zip(ctx.rows, bounds)]
    return lattice_points(box_from_embedding(ctx, bounds), rows, equality)


def search_box(field: FieldSpec, constraints: Sequence[tuple[object, object]]) -> list[tuple[int, int]]:
    """Integer box for per-embedding constraints lo_i < sigma_i(x) < hi_i.

    Every embedding must carry two finite rational bounds, otherwise the
    region is unbounded.
    """
    if len(constraints) != len(field.minpoly):
        raise UnboundedRegion("need one (lo, hi) constraint per embedding")
    if any(lo is None or hi is None for lo, hi in constraints):
        raise UnboundedRegion("one-sided constraints leave the region unbounded")
    ctx, _ = _context(field)
    return box_from_embedding(ctx, [_outward(Interval(lo, hi), ctx.k) for lo, hi in constraints])


def _square_root_region(target: OrderElement):
    """(ctx, bounds) for `region_points`: every x with sigma_i(x)^2 <= sigma_i(target) >> 0."""
    ctx, enclosures = _context(target.field, [target])
    # |2^k sigma_i(x)| <= sqrt(2^k * 2^k sigma_i(target)) <= isqrt(2^k * hi) + 1
    return ctx, [(-s, s) for s in (math.isqrt(hi << ctx.k) + 1 for _, hi in enclosures[target])]


# ---------------------------------------------------------------------------
# Decomposability


def decompose(alpha: OrderElement) -> Optional[tuple[OrderElement, OrderElement]]:
    """Lexicographically least (beta, alpha-beta) with both totally positive.

    Works in any degree; returns None exactly when alpha is indecomposable
    in the order.
    """
    if alpha.is_zero() or not is_totally_positive(alpha):
        raise IllegalParameter("decompose expects a totally positive element")
    field = alpha.field
    ctx, enclosures = _context(field, [alpha])
    for coords in region_points(ctx, [(0, hi) for _, hi in enclosures[alpha]]):
        if not any(coords):
            continue
        beta = OrderElement(coords, field)
        rest = alpha - beta
        if rest.is_zero():
            continue
        if is_totally_positive(beta) and is_totally_positive(rest):
            return beta, rest
    return None


# ---------------------------------------------------------------------------
# Minimal trace over the totally positive codifferent


def _trace_region(w: OrderElement, t: int):
    """(ctx, bounds, equality) for `region_points`: every v with Tr(v*w/f') = t
    and v*w/f' >> 0, for an element w that is sign-definite in every embedding.

    The pairing is symmetric, so this one rule gives both sides of it: with
    w = alpha >> 0 the numerators of `_trace_slice`, and with w the numerator
    of a delta >> 0 the universality window of `forms._window_elements`.
    Each 0 < sigma_i(v*w/f') < t puts 2^k sigma_i(v) between 0 and
    t * 2^k max|sigma_i(f')| / min|sigma_i(w)|, with the sign of sigma_i(f'/w).
    """
    field = w.field
    ctx, enclosures = _context(field, [w])
    bounds = []
    for (wlo, whi), (flo, fhi) in zip(enclosures[w], ctx.fprime):
        reach = -(-(t * max(-flo, fhi) << ctx.k) // min(abs(wlo), abs(whi)))
        bounds.append((0, reach) if (wlo > 0) == (flo > 0) else (-reach, 0))
    return ctx, bounds, (dual_pairing_vector(field, w), t)


def _trace_slice(alpha: OrderElement, t: int) -> list[OrderElement]:
    """All numerators gamma with Tr((gamma/f')*alpha) = t and gamma/f' >> 0."""
    hits = []
    for coords in region_points(*_trace_region(alpha, t)):
        gamma = OrderElement(coords, alpha.field)
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
    field = elements[0].field
    for gamma in _trace_slice(elements[0], t):
        delta = CodifferentElement(gamma)
        c = pairing_vector(delta)
        for e in elements[1:]:
            if e.field is not field and e.field != field:
                raise FieldMismatch("codifferent element and order element fields differ")
            if sum(map(operator.mul, c, e.coords)) != t:
                break
        else:
            return delta
    raise CertificateFailure(f"no shared totally positive trace-{t} witness")


# ---------------------------------------------------------------------------
# Window search for indecomposables


@dataclass(frozen=True)
class SearchInventory:
    """Ground-truth inventory from the window parallelepipeds."""

    indecomposables: tuple[OrderElement, ...]
    units: tuple[OrderElement, ...]


def window_points(field) -> list[OrderElement]:
    """The nonzero totally positive lattice points of the window, sorted by coordinates.

    The window is the union of `families.standard_parallelepipeds(field)`:
    (1, eps) for a quadratic field, two parallelepipeds of three totally
    positive units for a cubic one.  Every indecomposable is a totally
    positive unit times one of its points.
    """
    seen: dict[tuple[int, ...], OrderElement] = {}
    for gens in standard_parallelepipeds(field):
        cands, vertices = parallelepiped_candidates(*gens)
        for el in cands + vertices:
            seen[el.coords] = el
    return [el for _, el in sorted(seen.items()) if not el.is_zero() and is_totally_positive(el)]


def indecomposables_by_search(field) -> SearchInventory:
    """Exhaustive decompose-testing of the window points, quadratic or cubic.

    Unit lattice points (norm 1) are reported separately: they are
    trivially indecomposable and the closed-form inventories list only the
    element 1 for them.
    """
    units, indec = [], []
    for el in window_points(field):
        if norm(el) == 1:
            units.append(el)
        elif decompose(el) is None:
            indec.append(el)
    return SearchInventory(tuple(indec), tuple(units))


# ---------------------------------------------------------------------------
# Equality modulo totally positive units


def equal_mod_totally_positive_units(x: OrderElement, y: OrderElement) -> bool:
    """Exact test of x = u*y for a totally positive unit u.

    With M the multiplication matrix of y, adj(M) . M = N(y) . I, so the
    quotient x/y has coordinates adj(M) . coords(x) / N(y).  It is a unit when
    N(x) = N(y) and the division is exact, and the test then asks that it be
    totally positive.
    """
    if x.field is not y.field and x.field != y.field:
        raise FieldMismatch(f"{x.field} vs {y.field}")
    if x.is_zero() or y.is_zero():
        raise ZeroElement("zero has no unit orbit")
    n = norm(y)
    if norm(x) != n:
        return False
    adj, _ = adjugate(multiplication_matrix(y))
    quotient = []
    for row in adj:
        q, r = divmod(sum(a * c for a, c in zip(row, x.coords)), n)
        if r:
            return False
        quotient.append(q)
    return is_totally_positive(OrderElement(tuple(quotient), x.field))


def inventories_match(xs: Sequence[OrderElement], ys: Sequence[OrderElement]) -> bool:
    """True when xs and ys cover the same totally positive unit orbits.

    Every element of each list must be equal, modulo totally positive units,
    to some element of the other; an orbit listed twice in one list still
    matches a single representative in the other.
    """
    return all(any(equal_mod_totally_positive_units(x, y) for y in ys) for x in xs) and all(
        any(equal_mod_totally_positive_units(x, y) for x in xs) for y in ys
    )


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
