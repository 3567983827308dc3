"""Universal quadratic form machinery: the constructive diagonal form, rank
bounds from trace-one and trace-two counts, and certificate-driven greedy
decomposition into indecomposables."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .codifferent import (
    CodifferentElement,
    certificate_delta,
    certified_simplest,
    pairing_vector,
)
from .errors import (
    ConsistencyError,
    DescentStuck,
    GuardExceeded,
    IllegalRank,
    IllegalParameter,
    UnsupportedFamily,
)
from .families import (
    KIND_EXCEPTIONAL,
    KIND_TRIANGLE,
    KIND_UNIT,
    IndecomposableRecord,
    indecomposables_simplest,
    inventory,
)
from .hnf import lattice_points
from .oracle import _square_root_region, _trace_bounds, _trace_setup, box_from_embedding, region_points
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    coords_totally_positive,
    elem,
    is_totally_positive,
    mul,
    mul_coords,
    norm,
    one,
    unit_generators,
)

PYTHAGORAS_CAP_CUBIC = 6  # s(O) <= d + 3 in degree 3
# Largest size 8 sqrt(N(beta) / disc) of a witness search's square-root region:
# (2000, 0, 0) at a = 1 has 55,041 and took 2.4-3.6 s on a 2-vCPU Xeon
WITNESS_REGION_GUARD = 2**16


# ---------------------------------------------------------------------------
# Maximal numbers of antipodal minimal-vector pairs in root lattices

_ROOT_LATTICE_TABLE = {1: 1, 2: 3, 3: 6, 4: 12, 5: 20, 6: 36, 7: 63, 8: 120}


@lru_cache(maxsize=None)
def _best_pairs(rank: int) -> int:
    """Max of sum of component pair-counts over direct sums of root lattices."""
    if rank == 0:
        return 0
    best = 0
    components = [(n, n * (n + 1) // 2) for n in range(1, rank + 1)]  # A_n
    components += [(n, n * (n - 1)) for n in range(4, rank + 1)]  # D_n
    for n, m in ((6, 36), (7, 63), (8, 120)):  # E_n
        if n <= rank:
            components.append((n, m))
    for n, m in components:
        best = max(best, m + _best_pairs(rank - n))
    return best


def minimal_vector_bound(rank: int) -> int:
    """M(R): the most norm-2 minimal-vector pairs a classical rank-R lattice has.

    Ranks 1..8 follow the named root lattices, ranks >= 16 are D_R with
    R(R-1); the omitted middle range is the best direct sum of root lattices
    (a small dynamic program, dominated by E8 plus the table value).
    """
    if rank < 1:
        raise IllegalRank("rank must be positive")
    if rank <= 8:
        value = _ROOT_LATTICE_TABLE[rank]
        if _best_pairs(rank) != value:
            raise ConsistencyError(f"root-lattice table disagrees with the sums at rank {rank}")
        return value
    if rank >= 16:
        return rank * (rank - 1)
    return _best_pairs(rank)


# ---------------------------------------------------------------------------
# Square classes of totally positive units and the diagonal universal form


@lru_cache(maxsize=None)
def unit_square_root(eps: OrderElement) -> Optional[OrderElement]:
    """x with x^2 = eps, or None; complete search over |sigma_i(x)| <= sqrt, once per eps."""
    if not is_totally_positive(eps):
        return None
    minpoly = eps.field.minpoly
    for coords in region_points(*_square_root_region(eps)):
        if mul_coords(coords, coords, minpoly) == eps.coords:
            return OrderElement(coords, eps.field)
    return None


@lru_cache(maxsize=None)
def tp_unit_square_classes(field: FieldSpec) -> tuple[OrderElement, ...]:
    """Representatives of totally positive units modulo squares of units.

    SimplestCubic has units of all signatures, so every totally positive
    unit is a square (single class).  For Ennola rho*(rho-1) and for Thomas
    rho generate the nontrivial class: their fundamental-unit exponents are
    odd, which the exact square-root search confirms at small parameters.
    """
    if field.family is Family.SIMPLEST_CUBIC:
        return (one(field),)
    e1, e2 = unit_generators(field).totally_positive
    if field.family is Family.ENNOLA:
        return (one(field), e2)  # rho*(rho-1)
    if field.family is Family.THOMAS:
        return (one(field), e1)  # rho
    raise UnsupportedFamily(f"no square classes for {field.family.value}")


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal totally positive form given by its coefficient list."""

    coefficients: tuple[OrderElement, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def diagonal_universal(field: FieldSpec) -> DiagonalForm:
    """The constructive diagonal universal form over the order.

    Every indecomposable class representative modulo unit squares is
    repeated s = 6 times (the cubic Pythagoras cap).
    """
    records = inventory(field)
    classes = tp_unit_square_classes(field)
    coeffs = []
    for rec in records:
        for cls in classes:
            coefficient = mul(cls, rec.element)
            if not is_totally_positive(coefficient):
                raise ConsistencyError(f"coefficient {coefficient} is not totally positive")
            coeffs.extend([coefficient] * PYTHAGORAS_CAP_CUBIC)
    return DiagonalForm(tuple(coeffs))


# ---------------------------------------------------------------------------
# Rank report


@dataclass(frozen=True)
class RankReport:
    family: str
    a: int
    n: Optional[int]  # trace-one count sharing a single delta
    m: Optional[int]  # trace-two indecomposable count
    s_count: int
    upper_diag: int
    lower_classical: Optional[int]
    lower_diag: Optional[int]
    lower_nonclassical: Optional[int]
    lower_nonclassical_exact: Optional[str]


def _ceil_sqrt_ratio(n: int, mult: int) -> int:
    """Smallest k with mult * k^2 >= n."""
    return math.isqrt((n - 1) // mult) + 1


def rank_report(field: FieldSpec) -> RankReport:
    a = field.a
    if field.family is Family.SIMPLEST_CUBIC:
        # trace-one family: the whole triangle plus its three unit corners
        n = (a * a + 3 * a + 8) // 2
        m = 1  # the exceptional element is the only trace-two indecomposable
        s_count = (a * a + 3 * a + 6) // 2
        upper = 3 * (a * a + 3 * a + 6)
        lower_classical = -(-n // 3)
        lower_diag = -(-m // minimal_vector_bound(3))
        if n >= 240:
            nc = _ceil_sqrt_ratio(n, 9)
            nc_exact = f"sqrt({n})/3"
        else:
            nc = _ceil_sqrt_ratio(n, 18)
            nc_exact = f"sqrt({n})/(3*sqrt(2))"
        return RankReport(
            field.family.value, a, n, m, s_count, upper, lower_classical, lower_diag, nc, nc_exact
        )
    if field.family in (Family.ENNOLA, Family.THOMAS):
        # Thomas: the second-row elements share a trace-two certificate
        m, s_count = (a - 1, a) if field.family is Family.ENNOLA else (a, 2 * a + 1)
        lower_diag = -(-m // minimal_vector_bound(3))
        return RankReport(
            field.family.value, a, None, m, s_count, 12 * s_count, None, lower_diag, None, None
        )
    raise UnsupportedFamily(f"no rank report for {field.family.value}")


# ---------------------------------------------------------------------------
# Greedy decomposition into indecomposables (certificate-driven descent)

_DESCENT_RADIUS_CAP = 8


@lru_cache(maxsize=None)
def _unit_power(field: FieldSpec, j: int, k: int) -> OrderElement:
    e1, e2 = unit_generators(field).totally_positive
    return mul(e1 ** j, e2 ** k)


def _kind_priority(kind: str) -> int:
    return {KIND_TRIANGLE: 0, KIND_EXCEPTIONAL: 1, KIND_UNIT: 2}[kind]


def decompose_into_indecomposables(
    alpha: OrderElement,
) -> list[tuple[IndecomposableRecord, OrderElement]]:
    """alpha as a sum of unit multiples of inventory indecomposables.

    Descends on the certificate trace Tr(delta * alpha), which every
    totally positive element bounds from below by 1; each subtracted part
    strictly decreases it, so termination is guaranteed.  Candidate parts
    are tried triangle-first by decreasing trace contribution, widening the
    unit-exponent window on demand.  The remainder is carried as a
    coordinate tuple.
    """
    field = alpha.field
    if field.family is not Family.SIMPLEST_CUBIC:
        raise UnsupportedFamily("descent works over SimplestCubic inventories")
    if not certified_simplest(field.a):
        raise IllegalParameter("descent needs the monogenicity certificate")
    if not is_totally_positive(alpha):
        raise IllegalParameter("alpha must be totally positive")
    c = pairing_vector(certificate_delta(field))
    parts: list[tuple[IndecomposableRecord, OrderElement]] = []
    remaining = alpha.coords
    while any(remaining):
        hit = _find_part(field, remaining, c)
        if hit is None:
            raise DescentStuck(f"no subtractable part for {OrderElement(remaining, field)}")
        rec, unit, term = hit
        parts.append((rec, unit))
        remaining = tuple(map(operator.sub, remaining, term.coords))
    total = elem(field, 0, 0, 0)
    for rec, unit in parts:
        total = total + mul(unit, rec.element)
    if total != alpha:
        raise ConsistencyError(f"descent parts do not re-sum to {alpha}")
    return parts


def _unit_pairing(delta: CodifferentElement, j: int, k: int) -> tuple[int, ...]:
    """c with Tr(delta * u * x) = c . coords(x) for the unit u = e1^j e2^k."""
    return pairing_vector(CodifferentElement(mul(delta.numerator, _unit_power(delta.field, j, k))))


@lru_cache(maxsize=None)
def _ranked_parts(field: FieldSpec, radius: int) -> tuple:
    """(phi, rec, u, u * rec) for every unit u = e1^j e2^k on ring `radius`
    and every inventory record with phi = Tr(delta * u * rec) >= 1, in
    descent try order: triangle first, then decreasing phi, record index, j,
    k.  Each term u * rec is multiplied out once per (field, radius)."""
    delta, records = certificate_delta(field), indecomposables_simplest(field.a)
    ranked = []
    for j in range(-radius, radius + 1):
        for k in range(-radius, radius + 1):
            if max(abs(j), abs(k)) != radius:
                continue
            c = _unit_pairing(delta, j, k)
            for idx, rec in enumerate(records):
                phi = sum(map(operator.mul, c, rec.element.coords))
                if phi >= 1:
                    ranked.append((_kind_priority(rec.kind), -phi, idx, j, k, rec))
    ranked.sort(key=lambda r: r[:5])
    parts = []
    for _, phi, _, j, k, rec in ranked:
        unit = _unit_power(field, j, k)
        parts.append((-phi, rec, unit, mul(unit, rec.element)))
    return tuple(parts)


def _find_part(field: FieldSpec, alpha: tuple[int, ...], c: tuple[int, ...]):
    """The first ranked (rec, u, u * rec) whose subtraction leaves the
    coordinates alpha zero or totally positive, or None; c is the pairing
    vector of the certificate delta, so c . alpha = Tr(delta * alpha)."""
    phi_alpha = sum(map(operator.mul, c, alpha))
    minpoly = field.minpoly
    for radius in range(0, _DESCENT_RADIUS_CAP + 1):
        # the try order is total, so skipping phi > phi_alpha keeps it
        for phi, rec, unit, term in _ranked_parts(field, radius):
            if phi > phi_alpha:
                continue
            rest = tuple(map(operator.sub, alpha, term.coords))
            if not any(rest) or coords_totally_positive(rest, minpoly):
                return rec, unit, term
    return None


# ---------------------------------------------------------------------------
# Bounded sum-of-squares search and the universality window
#
# The search runs on coordinate tuples: a candidate is (y, target - y^2) and a
# witness a tuple of y, all as coordinates over one field, and elements are
# built only for the list that `sum_of_squares_witness` returns.

Coords = tuple[int, ...]


def _square_candidates(target: OrderElement) -> Iterator[tuple[Coords, Coords]]:
    """(y, target - y^2) for every y > 0 with target - y^2 zero or totally
    positive, in lexicographic order, from one square-root region search,
    which holds about 8 sqrt(N(target) / disc) points and is guarded."""
    field = target.field
    if 64 * norm(target) > WITNESS_REGION_GUARD**2 * field.discriminant:
        raise GuardExceeded(f"square-root region of {target.coords} over {WITNESS_REGION_GUARD}")
    minpoly, t = field.minpoly, target.coords
    zero = (0,) * len(t)
    ctx, bounds = _square_root_region(target)
    box = box_from_embedding(ctx, bounds)
    box[0] = (max(0, box[0][0]), box[0][1])  # y and -y square identically: walk y_0 >= 0
    for y in lattice_points(box, [(row, lo, hi) for row, (lo, hi) in zip(ctx.rows, bounds)]):
        if y <= zero:
            continue  # skip 0 and the y < 0 with y_0 = 0
        rest = tuple(map(operator.sub, t, mul_coords(y, y, minpoly)))
        if not any(rest) or coords_totally_positive(rest, minpoly):
            yield y, rest


def _inherited_candidates(
    candidates: tuple[tuple[Coords, Coords], ...], square: Coords, minpoly: tuple[int, ...]
) -> Iterator[tuple[Coords, Coords]]:
    """The candidates of target - square from those of target: one
    subtraction and one positivity test per entry."""
    for y, rest in candidates:
        rest = tuple(map(operator.sub, rest, square))
        if not any(rest) or coords_totally_positive(rest, minpoly):
            yield y, rest


# (field, target coords, budget) -> the first witness of _squares_summing_to, per process
_witness_cache: dict[tuple[FieldSpec, Coords, int], Optional[tuple[Coords, ...]]] = {}


def _squares_summing_to(
    field: FieldSpec, target: Coords, budget: int, candidates: Iterable[tuple[Coords, Coords]]
) -> Optional[tuple[Coords, ...]]:
    """Up to `budget` elements whose squares sum to target, or None.

    `candidates` yields (x, target - x^2) for every x > 0 with target - x^2
    zero or totally positive, in lexicographic order; depth-first, the first
    x whose remainder is a sum of budget - 1 squares wins.  Only a top-level
    target searches a square-root region (`_square_candidates`).  A
    remainder rest = target - x^2 inherits its candidates from the list of
    its parent: y is one exactly when (target - y^2) - x^2 is zero or totally
    positive, and as x^2 >> 0 every such y is already in the parent's list,
    in the same order.  A budget-1 remainder needs no inherited list
    (`_one_square`).  Answers are cached per (field, target, budget) for the
    process; the lists are consumed only on a cache miss and then dropped.
    """
    if not any(target):
        return ()
    if budget == 0:
        return None
    key = (field, target, budget)
    if key in _witness_cache:
        return _witness_cache[key]
    candidates = tuple(candidates)
    # target - y^2 -> y for the budget-1 leaves; distinct y > 0 have distinct squares
    roots = {rest: y for y, rest in candidates} if budget == 2 else None
    witness = None
    for x, rest in candidates:
        square = tuple(map(operator.sub, target, rest))
        if budget == 2:
            tail = _one_square(field, rest, square, roots)
        else:
            inherited = _inherited_candidates(candidates, square, field.minpoly)
            tail = _squares_summing_to(field, rest, budget - 1, inherited)
        if tail is not None:
            witness = (x, *tail)
            break
    _witness_cache[key] = witness
    return witness


def _one_square(
    field: FieldSpec, rest: Coords, square: Coords, roots: dict[Coords, Coords]
) -> Optional[tuple[Coords, ...]]:
    """`_squares_summing_to(field, rest, 1, ...)` for rest = target - square.

    rest = y^2 with y > 0 exactly when target - y^2 = square, and then
    target - y^2 >> 0 puts y among the candidates of target, which `roots`
    maps from target - y^2 to y.  So one lookup answers the leaf, with no
    subtraction and no positivity test; such a y is unique, so it is the
    first witness.
    """
    if not any(rest):
        return ()
    key = (field, rest, 1)
    if key not in _witness_cache:
        y = roots.get(square)
        _witness_cache[key] = None if y is None else (y,)
    return _witness_cache[key]


def sum_of_squares_witness(beta: OrderElement) -> Optional[list[OrderElement]]:
    """Up to PYTHAGORAS_CAP_CUBIC elements whose squares sum to beta, by bounded
    search; GuardExceeded if its first square-root region is too large."""
    if beta.is_zero():
        return []
    if not is_totally_positive(beta):
        return None
    field = beta.field
    witness = _squares_summing_to(
        field, beta.coords, PYTHAGORAS_CAP_CUBIC, _square_candidates(beta)
    )
    return None if witness is None else [OrderElement(x, field) for x in witness]


@dataclass(frozen=True)
class WindowReport:
    a: int
    trace_bound: int
    checked: int
    failures: tuple[str, ...]


def _window_elements(field: FieldSpec, trace_bound: int) -> list[OrderElement]:
    """All totally positive alpha with Tr(delta * alpha) <= trace_bound."""
    setup = _trace_setup(certificate_delta(field).numerator)
    minpoly = field.minpoly
    kept = []
    for t in range(1, trace_bound + 1):
        ctx, bounds, equality = _trace_bounds(setup, t)
        if any(lo < 0 for lo, _ in bounds):
            raise ConsistencyError("certificate delta must be totally positive")
        points = region_points(ctx, bounds, equality)
        kept += [x for x in points if coords_totally_positive(x, minpoly)]
    kept.sort()
    return [OrderElement(x, field) for x in kept]


def verify_universality_window(field: FieldSpec, trace_bound: int) -> WindowReport:
    """Constructive universality check over a finite trace window.

    For every totally positive alpha with certificate trace <= trace_bound:
    decompose into indecomposable parts, check every part's unit is an exact
    unit square, regroup by inventory record, and confirm each group is a
    sum of at most six squares by bounded search.
    """
    a = field.a
    if field.family is not Family.SIMPLEST_CUBIC or a is None or a > 8:
        raise GuardExceeded("window verification is guarded to SimplestCubic, a <= 8")
    if trace_bound < 1 or trace_bound > PYTHAGORAS_CAP_CUBIC:
        raise GuardExceeded(f"trace_bound guarded to 1..{PYTHAGORAS_CAP_CUBIC}")
    failures = []
    elements = _window_elements(field, trace_bound)
    for alpha in elements:
        try:
            parts = decompose_into_indecomposables(alpha)
        except DescentStuck as exc:
            failures.append(f"{alpha.coords}: {exc}")
            continue
        groups: dict[OrderElement, list[OrderElement]] = {}
        for rec, unit in parts:
            root = unit_square_root(unit)
            if root is None or mul(root, root) != unit:
                failures.append(f"{alpha.coords}: unit {unit.coords} is not a square")
                break
            groups.setdefault(rec.element, []).append(unit)
        else:
            rebuilt = zero = elem(field, 0, 0, 0)
            for element, units in groups.items():
                group_sum = sum(units, zero)
                witness = sum_of_squares_witness(group_sum)
                if witness is None:
                    failures.append(f"{alpha.coords}: group {element.coords} is not a sum of "
                                    f"{PYTHAGORAS_CAP_CUBIC} squares")
                    continue
                if sum((mul(x, x) for x in witness), zero) != group_sum:
                    raise ConsistencyError(f"squares do not re-sum to group {element.coords}")
                rebuilt = rebuilt + mul(element, group_sum)
            if rebuilt != alpha:
                failures.append(f"{alpha.coords}: regrouped sum mismatch")
    return WindowReport(a, trace_bound, len(elements), tuple(failures))
