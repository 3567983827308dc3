"""Universal quadratic form machinery: the constructive diagonal form, rank
bounds from trace-one and trace-two counts, and certificate-driven greedy
decomposition into indecomposables."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .codifferent import (
    CodifferentElement,
    certificate_delta,
    certified_simplest,
    pairing_vector,
    trace_pairing,
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
from .oracle import _context, region_points
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    elem,
    is_totally_positive,
    mul,
    one,
    unit_generators,
)

PYTHAGORAS_CAP_CUBIC = 6  # s(O) <= d + 3 in degree 3


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


def _square_root_region(target: OrderElement):
    """(ctx, bounds) for `region_points`: every x with sigma_i(x)^2 <= sigma_i(target)."""
    ctx, enclosures = _context(target.field, positive=[target])
    # |2^k sigma_i(x)| <= sqrt(2^k * 2^k sigma_i(target)) <= isqrt(2^k * hi) + 1
    return ctx, [(-s, s) for s in (math.isqrt(hi << ctx.k) + 1 for _, hi in enclosures[target])]


def unit_square_root(eps: OrderElement) -> Optional[OrderElement]:
    """x with x^2 = eps, or None; complete search over |sigma_i(x)| <= sqrt."""
    if not is_totally_positive(eps):
        return None
    for coords in region_points(*_square_root_region(eps)):
        x = OrderElement(coords, eps.field)
        if mul(x, x) == eps:
            return x
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
    raise UnsupportedFamily("square classes only for the named families")


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
    raise UnsupportedFamily("rank report only for the named families")


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
    unit-exponent window on demand.
    """
    field = alpha.field
    if field.family is not Family.SIMPLEST_CUBIC:
        raise UnsupportedFamily("descent works over SimplestCubic inventories")
    if not certified_simplest(field.a):
        raise IllegalParameter("descent needs the monogenicity certificate")
    if not is_totally_positive(alpha):
        raise IllegalParameter("alpha must be totally positive")
    delta = certificate_delta(field)
    records = indecomposables_simplest(field.a)
    parts: list[tuple[IndecomposableRecord, OrderElement]] = []
    remaining = alpha
    while not remaining.is_zero():
        hit = _find_part(remaining, records, delta)
        if hit is None:
            raise DescentStuck(f"no subtractable part for {remaining}")
        rec, unit, term = hit
        parts.append((rec, unit))
        remaining = remaining - term
    total = elem(field, 0, 0, 0)
    for rec, unit in parts:
        total = total + mul(unit, rec.element)
    if total != alpha:
        raise ConsistencyError(f"descent parts do not re-sum to {alpha}")
    return parts


@lru_cache(maxsize=None)
def _unit_pairing(delta: CodifferentElement, j: int, k: int) -> tuple[int, ...]:
    """c with Tr(delta * u * x) = c . coords(x) for the unit u = e1^j e2^k."""
    return pairing_vector(CodifferentElement(mul(delta.numerator, _unit_power(delta.field, j, k))))


def _find_part(alpha, records, delta):
    field = alpha.field
    phi_alpha = trace_pairing(delta, alpha)
    for radius in range(0, _DESCENT_RADIUS_CAP + 1):
        candidates = []
        for j in range(-radius, radius + 1):
            for k in range(-radius, radius + 1):
                if max(abs(j), abs(k)) != radius:
                    continue
                c = _unit_pairing(delta, j, k)
                for idx, rec in enumerate(records):
                    phi = sum(map(operator.mul, c, rec.element.coords))  # Tr(delta * unit * rec)
                    if 1 <= phi <= phi_alpha:
                        candidates.append((_kind_priority(rec.kind), -phi, idx, j, k, rec))
        candidates.sort(key=lambda c: c[:5])
        for _, _, _, j, k, rec in candidates:
            unit = _unit_power(field, j, k)
            term = mul(unit, rec.element)
            rest = alpha - term
            if rest.is_zero() or is_totally_positive(rest):
                return rec, unit, term
    return None


# ---------------------------------------------------------------------------
# Bounded sum-of-squares search and the universality window


def _squares_summing_to(target: OrderElement, budget: int, memo: dict) -> Optional[list[OrderElement]]:
    """Up to `budget` elements whose squares sum to target, or None.

    Depth-first over the square-root region: x is tried when target - x^2 is
    0 or totally positive.  memo maps (coords, budget) to the answer.
    """
    if target.is_zero():
        return []
    if budget == 0:
        return None
    key = (target.coords, budget)
    if key in memo:
        return memo[key]
    result = None
    for coords in region_points(*_square_root_region(target)):
        if coords <= (0, 0, 0):
            continue  # skip 0; x and -x square identically, keep one
        x = OrderElement(coords, target.field)
        rest = target - mul(x, x)
        if rest.is_zero() or is_totally_positive(rest):
            tail = _squares_summing_to(rest, budget - 1, memo)
            if tail is not None:
                result = [x] + tail
                break
    memo[key] = result
    return result


def sum_of_squares_witness(beta: OrderElement) -> Optional[list[OrderElement]]:
    """Up to PYTHAGORAS_CAP_CUBIC elements whose squares sum to beta, by bounded search."""
    if beta.is_zero():
        return []
    if not is_totally_positive(beta):
        return None
    return _squares_summing_to(beta, PYTHAGORAS_CAP_CUBIC, {})


@dataclass(frozen=True)
class WindowReport:
    a: int
    trace_bound: int
    checked: int
    failures: tuple[str, ...]


def _window_elements(field: FieldSpec, trace_bound: int) -> list[OrderElement]:
    """All totally positive alpha with Tr(delta * alpha) <= trace_bound."""
    delta = certificate_delta(field)
    gamma = delta.numerator
    c = pairing_vector(delta)
    out = []
    ctx, enclosures = _context(field, sign_definite=[gamma])
    # sigma_i(delta) = sigma_i(gamma)/sigma_i(f') >= min|gamma_i| / max|f'_i| > 0 since delta >> 0
    ratios = []
    for (glo, ghi), (flo, fhi) in zip(enclosures[gamma], ctx.fprime):
        if (glo > 0) != (flo > 0):
            raise ConsistencyError("certificate delta must be totally positive")
        ratios.append((max(-flo, fhi), min(abs(glo), abs(ghi))))
    for t in range(1, trace_bound + 1):
        # 0 < sigma_i(alpha) < t / sigma_i(delta), at scale 2^k
        bounds = [(0, -(-(t * f << ctx.k) // g)) for f, g in ratios]
        for coords in region_points(ctx, bounds, (c, t)):
            el = OrderElement(coords, field)
            if not el.is_zero() and is_totally_positive(el):
                out.append(el)
    out.sort(key=lambda e: e.coords)
    return out


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
        groups: dict[tuple[int, ...], list[OrderElement]] = {}
        rec_by_key = {}
        ok = True
        for rec, unit in parts:
            root = unit_square_root(unit)
            if root is None or mul(root, root) != unit:
                failures.append(f"{alpha.coords}: unit {unit.coords} is not a square")
                ok = False
                break
            key = rec.element.coords
            rec_by_key[key] = rec
            groups.setdefault(key, []).append(unit)
        if not ok:
            continue
        rebuilt = elem(field, 0, 0, 0)
        for key, units in groups.items():
            group_sum = elem(field, 0, 0, 0)
            for u in units:
                group_sum = group_sum + u
            witness = sum_of_squares_witness(group_sum)
            if witness is None:
                failures.append(
                    f"{alpha.coords}: group {key} is not a sum of {PYTHAGORAS_CAP_CUBIC} squares"
                )
                continue
            check = elem(field, 0, 0, 0)
            for x in witness:
                check = check + mul(x, x)
            if check != group_sum:
                raise ConsistencyError(f"squares do not re-sum to group {key}")
            rebuilt = rebuilt + mul(rec_by_key[key].element, group_sum)
        if rebuilt != alpha:
            failures.append(f"{alpha.coords}: regrouped sum mismatch")
    return WindowReport(a, trace_bound, len(elements), tuple(failures))
