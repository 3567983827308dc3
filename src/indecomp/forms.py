"""Universal quadratic form machinery: the constructive diagonal form, rank
bounds from trace-one and trace-two counts, and certificate-driven greedy
decomposition into indecomposables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .codifferent import (
    certificate_delta,
    certified_simplest,
    fprime_element,
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
    indecomposables_ennola,
    indecomposables_simplest,
    indecomposables_thomas,
)
from .intervals import Interval
from .oracle import _context, box_from_embedding, iterate_box, iterate_slice
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
PYTHAGORAS_CAP_QUADRATIC = 5


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


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x < 0:
        raise IllegalParameter("negative radicand")
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q) + 1, q)


def _square_root_box(target: OrderElement) -> list[tuple[int, int]]:
    """Integer box holding every x with sigma_i(x)^2 <= sigma_i(target) for all i."""
    rows, enclosures = _context(target.field, positive=[target])
    bounds = [Interval(-s, s) for s in (_sqrt_upper(iv.hi) for iv in enclosures[target])]
    return box_from_embedding(rows, bounds)


def unit_square_root(eps: OrderElement) -> Optional[OrderElement]:
    """x with x^2 = eps, or None; complete search over |sigma_i(x)| <= sqrt."""
    if not is_totally_positive(eps):
        return None
    for coords in iterate_box(_square_root_box(eps)):
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
    if field.family is Family.SIMPLEST_CUBIC:
        records = indecomposables_simplest(field.a)
    elif field.family is Family.ENNOLA:
        records = indecomposables_ennola(field.a)
    elif field.family is Family.THOMAS:
        records = indecomposables_thomas(field.a)
    else:
        raise UnsupportedFamily("no inventory for custom cubics")
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
    if field.family is Family.ENNOLA:
        m = a - 1
        return RankReport(
            field.family.value,
            a,
            None,
            m,
            a,
            12 * a,
            None,
            -(-m // minimal_vector_bound(3)),
            None,
            None,
        )
    if field.family is Family.THOMAS:
        m = a  # second-row elements share a trace-two certificate
        return RankReport(
            field.family.value,
            a,
            None,
            m,
            2 * a + 1,
            12 * (2 * a + 1),
            None,
            -(-m // minimal_vector_bound(3)),
            None,
            None,
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


def _find_part(alpha, records, delta):
    field = alpha.field
    phi_alpha = trace_pairing(delta, alpha)
    tried: set[tuple[int, int]] = set()
    for radius in range(0, _DESCENT_RADIUS_CAP + 1):
        candidates = []
        for j in range(-radius, radius + 1):
            for k in range(-radius, radius + 1):
                if max(abs(j), abs(k)) != radius or (j, k) in tried:
                    continue
                tried.add((j, k))
                unit = _unit_power(field, j, k)
                for idx, rec in enumerate(records):
                    term = mul(unit, rec.element)
                    phi = trace_pairing(delta, term)
                    if not 1 <= phi <= phi_alpha:
                        continue
                    candidates.append(
                        (_kind_priority(rec.kind), -phi, idx, j, k, rec, unit, term)
                    )
        candidates.sort(key=lambda c: c[:5])
        for _, _, _, j, k, rec, unit, term in candidates:
            rest = alpha - term
            if rest.is_zero() or (not rest.is_zero() and is_totally_positive(rest)):
                return rec, unit, term
    return None


# ---------------------------------------------------------------------------
# Bounded sum-of-squares search and the universality window


def sum_of_squares_witness(
    beta: OrderElement, cap: int = PYTHAGORAS_CAP_CUBIC
) -> Optional[list[OrderElement]]:
    """Up to `cap` elements whose squares sum to beta, by bounded search."""
    memo: dict[tuple[tuple[int, int, int], int], Optional[list[OrderElement]]] = {}

    def candidates(target: OrderElement) -> list[OrderElement]:
        out = []
        for coords in iterate_box(_square_root_box(target)):
            if coords <= (0, 0, 0):
                continue  # skip 0; x and -x square identically, keep one
            x = OrderElement(coords, target.field)
            sq = mul(x, x)
            rest = target - sq
            if rest.is_zero() or is_totally_positive(rest):
                out.append(x)
        return out

    def solve(target: OrderElement, budget: int) -> Optional[list[OrderElement]]:
        if target.is_zero():
            return []
        if budget == 0:
            return None
        key = (target.coords, budget)
        if key in memo:
            return memo[key]
        result = None
        for x in candidates(target):
            rest = target - mul(x, x)
            tail = solve(rest, budget - 1)
            if tail is not None:
                result = [x] + tail
                break
        memo[key] = result
        return result

    if beta.is_zero():
        return []
    if not is_totally_positive(beta):
        return None
    return solve(beta, cap)


@dataclass(frozen=True)
class WindowReport:
    a: int
    trace_bound: int
    checked: int
    failures: tuple[str, ...]


def _window_elements(field: FieldSpec, trace_bound: int) -> list[OrderElement]:
    """All totally positive alpha with Tr(delta * alpha) <= trace_bound."""
    delta = certificate_delta(field)
    fp = fprime_element(field)
    gamma = delta.numerator
    c = pairing_vector(delta)
    out = []
    rows, enclosures = _context(field, sign_definite=[gamma, fp])
    # sigma_i(delta) = sigma_i(gamma)/sigma_i(f') is positive since delta >> 0
    dlo = [(g / f).lo for g, f in zip(enclosures[gamma], enclosures[fp])]
    if min(dlo) <= 0:
        raise ConsistencyError("certificate delta must be totally positive")
    for t in range(1, trace_bound + 1):
        box = box_from_embedding(rows, [Interval(0, Fraction(t) / d) for d in dlo])
        for coords in iterate_slice(box, c, t):
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
    us = unit_generators(field).totally_positive
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
            witness = sum_of_squares_witness(group_sum, PYTHAGORAS_CAP_CUBIC)
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
