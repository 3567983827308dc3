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
search region is built here; a trace slice, on either side of the pairing,
is `_trace_bounds` of the `_trace_setup` that its search builds once.  No
search step uses a float, nor a Fraction after the rounding, and the
candidates of `decompose` and `_trace_slice` stay coordinate tuples.

`indecomposables_by_search` is the one window search for quadratic and cubic
fields (`quadratic.search_indecomposables` filters it by norm).  It walks the
window points in trace order and pre-tests each one: alpha - beta >> 0 for a
unit or indecomposable beta found earlier proves alpha decomposable, so
`decompose` runs only on the points no such beta splits.  The answer is the
plain search's: a beta the pre-test finds is a real splitting, and a point it
does not settle still goes to `decompose`.  The pre-test reads no closed form.
`inventories_match` compares two inventories orbit by orbit within each norm."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .codifferent import (
    CodifferentElement,
    dual_pairing_vector,
    numerator_totally_positive,
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
    coords_totally_positive,
    is_totally_positive,
    multiplication_matrix,
    norm,
    refine_roots,
    sym_funcs,
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

    The field is cubic or quadratic: only field.minpoly and the root
    intervals are used.  The rows [1, rho_i, rho_i^2][:d] are rounded
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
    fp = tuple(interval_dot(row, field.fprime_coords) for row in rows)
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

    Every embedding must carry two finite rational bounds lo_i <= hi_i,
    otherwise the region is unbounded or empty.
    """
    if len(constraints) != len(field.minpoly):
        raise UnboundedRegion("need one (lo, hi) constraint per embedding")
    if any(lo is None or hi is None for lo, hi in constraints):
        raise UnboundedRegion("one-sided constraints leave the region unbounded")
    for i, (lo, hi) in enumerate(constraints):
        if lo > hi:
            raise IllegalParameter(f"empty constraint [{lo}, {hi}] on embedding {i}")
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
    in the order.  The candidates stay coordinate tuples: only the returned
    pair is built as order elements.
    """
    if alpha.is_zero() or not is_totally_positive(alpha):
        raise IllegalParameter("decompose expects a totally positive element")
    field = alpha.field
    minpoly = field.minpoly
    ctx, enclosures = _context(field, [alpha])
    for beta in region_points(ctx, [(0, hi) for _, hi in enclosures[alpha]]):
        # coords_totally_positive reads False on zero, so 0 and alpha are skipped
        rest = tuple(map(operator.sub, alpha.coords, beta))
        if coords_totally_positive(beta, minpoly) and coords_totally_positive(rest, minpoly):
            return OrderElement(beta, field), OrderElement(rest, field)
    return None


# ---------------------------------------------------------------------------
# Minimal trace over the totally positive codifferent


def _trace_setup(w: OrderElement):
    """(ctx, scales, pairing): the t-free part of a trace slice, built once per search.

    scales[i] = (2^k max|sigma_i(f')|, min|sigma_i(w)|, sign): each
    0 < sigma_i(v*w/f') < t puts 2^k sigma_i(v) between 0 and t times their
    quotient, on the side of the sign of sigma_i(f'/w); pairing is
    `dual_pairing_vector(field, w)`.
    """
    field = w.field
    ctx, enclosures = _context(field, [w])
    scales = [
        (max(-flo, fhi) << ctx.k, min(abs(wlo), abs(whi)), (wlo > 0) == (flo > 0))
        for (wlo, whi), (flo, fhi) in zip(enclosures[w], ctx.fprime)
    ]
    return ctx, scales, dual_pairing_vector(field, w)


def _trace_bounds(setup, t: int):
    """(ctx, bounds, equality) for `region_points`: every v with Tr(v*w/f') = t
    and v*w/f' >> 0, for setup = `_trace_setup(w)` and w sign-definite in every
    embedding.  The pairing is symmetric: with w = alpha >> 0 these are the
    numerators of `_trace_slice`, and with w the numerator of a delta >> 0 the
    window of `forms._window_elements`.
    """
    ctx, scales, pairing = setup
    bounds = []
    for num, den, positive in scales:
        reach = -(-(t * num) // den)
        bounds.append((0, reach) if positive else (-reach, 0))
    return ctx, bounds, (pairing, t)


def _trace_slice(alpha: OrderElement, t: int, setup) -> list[OrderElement]:
    """All numerators gamma with Tr((gamma/f')*alpha) = t and gamma/f' >> 0,
    sorted by coordinates.  alpha must be totally positive: the region holds
    the gamma with gamma*alpha/f' >> 0, and only then does that take in
    every gamma/f' >> 0.

    setup is `_trace_setup(alpha)`; the candidates are coordinate tuples tested
    by `numerator_totally_positive`, and only the hits become order elements.
    """
    field = alpha.field
    region = region_points(*_trace_bounds(setup, t))
    hits = sorted(gamma for gamma in region if numerator_totally_positive(gamma, field))
    return [OrderElement(gamma, field) for gamma in hits]


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
    setup = _trace_setup(alpha)
    for t in range(1, t_max + 1):
        hits = _trace_slice(alpha, t, setup)
        if hits:
            witness = CodifferentElement(hits[0])
            if trace_pairing(witness, alpha) != t:
                raise ConsistencyError(f"trace-{t} witness pairs to another trace")
            return t, witness
    return None


def shared_trace_witness(elements: Sequence[OrderElement], t: int) -> CodifferentElement:
    """One totally positive delta with Tr(delta*e) = t for every listed element.

    The search runs over the trace slice of the first element, which must
    be totally positive; the others may be any elements of its field.  A
    totally positive delta pairs a totally positive element to t >= 1 only.
    """
    if not elements:
        raise IllegalParameter("need at least one element")
    first, rest = elements[0], elements[1:]
    if first.is_zero() or not is_totally_positive(first):
        raise IllegalParameter("shared_trace_witness expects a totally positive first element")
    field = first.field
    if any(e.field is not field and e.field != field for e in rest):
        raise FieldMismatch("codifferent element and order element fields differ")
    if t < 1:
        raise IllegalParameter("t must be at least 1")
    for gamma in _trace_slice(first, t, _trace_setup(first)):
        delta = CodifferentElement(gamma)
        c = pairing_vector(delta)
        if all(sum(map(operator.mul, c, e.coords)) == t for e in rest):
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
    element 1 for them.  Both lists are sorted by coordinates.

    The points are walked in trace order, and alpha skips `decompose` when
    alpha - beta >> 0 for a unit or indecomposable beta found before it:
    that proves alpha decomposable, and every other alpha goes to
    `decompose`, so the answer is the plain search's.  A summand has a
    smaller trace, so trace order puts it first.  Every point has integer
    enclosures (lo_i, hi_i) of 2^k sigma_i at one scale; alpha - beta >> 0
    needs lo_i(beta) < hi_i(alpha) for every i.  So the found list is kept
    sorted by lo_i once per embedding i, only the shortest of the prefixes
    lo_i(beta) < hi_i(alpha) is read, nearest beta first, and only the betas
    that pass every bound get the exact test.
    """
    minpoly = field.minpoly
    ctx, _ = _context(field)
    walk = []
    for el in window_points(field):
        e = sym_funcs(el)
        walk.append((e[0], e[-1], el))
    walk.sort(key=operator.itemgetter(0))  # stable: equal traces keep coordinate order
    units, indec = [], []
    # per embedding i: the found (lows, coords) sorted by lows[i], and those keys
    found = [[] for _ in ctx.rows]
    keys = [[] for _ in ctx.rows]
    for _, n, el in walk:
        alpha = el.coords
        enclosures = [interval_dot(row, alpha) for row in ctx.rows]
        his = [hi for _, hi in enclosures]
        if n == 1:
            units.append(el)
        else:
            cut, i = min((bisect_left(ks, hi), i) for i, (ks, hi) in enumerate(zip(keys, his)))
            if any(
                all(map(operator.lt, lows, his))
                and coords_totally_positive(tuple(map(operator.sub, alpha, beta)), minpoly)
                for lows, beta in reversed(found[i][:cut])
            ) or decompose(el) is not None:
                continue
            indec.append(el)
        lows = [lo for lo, _ in enclosures]
        for ks, entries, lo in zip(keys, found, lows):
            j = bisect_left(ks, lo)
            ks.insert(j, lo)
            entries.insert(j, (lows, alpha))
    units.sort(key=lambda u: u.coords)
    indec.sort(key=lambda u: u.coords)
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


def _by_norm(elements: Sequence[OrderElement], field) -> dict[int, list[OrderElement]]:
    """The elements grouped by norm; FieldMismatch or ZeroElement as in
    `equal_mod_totally_positive_units`."""
    buckets: dict[int, list[OrderElement]] = {}
    for el in elements:
        if el.field is not field and el.field != field:
            raise FieldMismatch(f"{el.field} vs {field}")
        if el.is_zero():
            raise ZeroElement("zero has no unit orbit")
        buckets.setdefault(norm(el), []).append(el)
    return buckets


def inventories_match(xs: Sequence[OrderElement], ys: Sequence[OrderElement]) -> bool:
    """True when xs and ys cover the same totally positive unit orbits.

    Every element of each list must be equal, modulo totally positive units,
    to some element of the other; an orbit listed twice in one list still
    matches a single representative in the other.  Equal orbits have equal
    norms, so each element is compared only with the other list's elements
    of its norm.
    """
    if not xs or not ys:
        return not xs and not ys
    field = xs[0].field
    bx, by = _by_norm(xs, field), _by_norm(ys, field)
    if bx.keys() != by.keys():
        return False
    return all(
        all(any(equal_mod_totally_positive_units(x, y) for y in by[n]) for x in bx[n])
        and all(any(equal_mod_totally_positive_units(x, y) for x in bx[n]) for y in by[n])
        for n in bx
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
