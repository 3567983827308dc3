"""Small-norm elements and primitive principal ideals of simplest cubic orders.

Three routes to the ideal count P_a(X) for X <= a^2:

* count_fast: the (k, w) parametrization beta = -w*rho + k*rho^2 with the
  enumeration cuts a*k^2*w < X and a*k*w^2 < X;
* count_exact: HNF-deduplicated ideals of the fast candidates and their
  Galois conjugates;
* count_bruteforce: exhaustive scan of the two fundamental cones, the
  ground truth the others are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .codifferent import certified_simplest
from .errors import BoundTooLarge, GuardExceeded, IllegalParameter, ZeroElement
from .families import (
    TrianglePoint,
    indecomposables_simplest,
    standard_parallelepipeds,
    triangle_norm,
)
from .hnf import hnf_det, row_hnf_lower
from .integers import icbrt, is_squarefree
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    conjugate,
    elem,
    make_field,
    mul,
    norm,
    rho,
    sym_funcs,
)


def sum_norm(a: int, k: int, w: int) -> int:
    """N(-w*rho + k*rho^2) = -w^3 + a*k*w^2 + (a+3)*k^2*w + k^3."""
    if k < 1 or w < 0:
        raise IllegalParameter("need k >= 1 and w >= 0")
    return -(w**3) + a * k * w * w + (a + 3) * k * k * w + k**3


def _sum_element(field: FieldSpec, k: int, w: int) -> OrderElement:
    return elem(field, 0, -w, k)


@dataclass(frozen=True)
class SumElement:
    """beta = -w*rho + k*rho^2 = k * alpha_{w/k}; primitive iff gcd(k, w) = 1."""

    k: int
    w: int


@dataclass(frozen=True)
class CountFastResult:
    pairs: tuple[SumElement, ...]

    @property
    def count(self) -> int:
        return len(self.pairs)


def count_fast(a: int, X: int, include_unit: bool = False) -> CountFastResult:
    """Primitive totally positive sums with norm <= X, X <= a^2.

    Enumerates coprime (k, w), k >= 1, w >= 1 subject to the cuts
    a*k^2*w < X and a*k*w^2 < X, keeping 1 <= sum_norm <= X and the element
    totally positive; (1, 0) is the unit rho^2, included only on request.
    """
    if a < 1:
        raise IllegalParameter("counting needs a >= 1")
    if not 1 <= X <= a * a:
        raise BoundTooLarge(f"X must lie in [1, a^2 = {a * a}]")
    field = make_field(Family.SIMPLEST_CUBIC, a)
    pairs = []
    if include_unit:
        pairs.append(SumElement(1, 0))
    k = 1
    while a * k * k < X:  # the cut forces a*k^2*w < X with w >= 1
        w_cap = (X - 1) // (a * k * k)
        for w in range(1, w_cap + 1):
            if a * k * w * w >= X:
                break
            if math.gcd(k, w) != 1:
                continue
            n = sum_norm(a, k, w)
            if not 1 <= n <= X:
                continue
            s = sym_funcs(_sum_element(field, k, w))
            if s.e1 > 0 and s.e2 > 0 and s.e3 > 0:
                pairs.append(SumElement(k, w))
        k += 1
    return CountFastResult(tuple(pairs))


# ---------------------------------------------------------------------------
# Ideal identity via Hermite normal form


@dataclass(frozen=True)
class IdealHNF:
    """Canonical lower-triangular basis of beta * Z[rho]; det = |N(beta)|."""

    rows: tuple[tuple[int, int, int], ...]

    @property
    def det(self) -> int:
        return hnf_det(self.rows)


def ideal_hnf(beta: OrderElement) -> IdealHNF:
    if beta.is_zero():
        raise ZeroElement("zero generates the zero ideal")
    f = beta.field
    r = rho(f)
    rows = [list(beta.coords), list(mul(beta, r).coords), list(mul(beta, r * r).coords)]
    h = IdealHNF(row_hnf_lower(rows))
    assert h.det == abs(norm(beta))
    return h


def count_exact(a: int, X: int, include_unit: bool = False) -> int:
    """Distinct ideals from the fast candidates and their Galois conjugates."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    seen = set()
    for pair in count_fast(a, X, include_unit).pairs:
        beta = _sum_element(field, pair.k, pair.w)
        for turns in range(3):
            el = beta if turns == 0 else conjugate(beta, turns)
            h = ideal_hnf(el)
            assert h.det <= X or (pair.k, pair.w) == (1, 0)
            seen.add(h.rows)
    return len(seen)


# ---------------------------------------------------------------------------
# Brute force over the fundamental cones

BRUTE_A_GUARD = 12


@lru_cache(maxsize=None)
def _bruteforce_ideals(a: int) -> tuple[tuple[int, ...], ...]:
    """Sorted determinants of all primitive principal ideals with norm <= a^2.

    Every such ideal has a totally positive generator x = sum u_j g_j, u_j >= 0,
    in one of the two closed cones spanned by totally positive units g_j of
    norm 1.  N^(1/3) is superadditive on totally positive elements (Minkowski;
    oracle.norms_superadditive is the exact test), so
    sum u_j = sum N(u_j g_j)^(1/3) <= N(x)^(1/3) <= X^(1/3) < bound.  Hence x
    lies in the simplex with vertices 0 and bound * g_j, and the coordinate
    hull of those four points is a complete search box.
    """
    field = make_field(Family.SIMPLEST_CUBIC, a)
    X = a * a
    bound = icbrt(X) + 1
    c2, c1, _ = field.minpoly
    tr2 = c2 * c2 - 2 * c1  # Tr(rho^2)
    found: dict[tuple, int] = {}
    for gens in standard_parallelepipeds(field):
        coords = [g.coords for g in gens]
        lo = [bound * min(0, *(c[i] for c in coords)) for i in range(3)]
        hi = [bound * max(0, *(c[i] for c in coords)) for i in range(3)]
        for x1 in range(lo[0], hi[0] + 1):
            for x2 in range(lo[1], hi[1] + 1):
                base_tr = 3 * x1 - c2 * x2
                g12 = math.gcd(abs(x1), abs(x2))
                for x3 in range(lo[2], hi[2] + 1):
                    if base_tr + tr2 * x3 <= 0:
                        continue
                    if math.gcd(g12, abs(x3)) != 1:
                        continue
                    el = OrderElement((x1, x2, x3), field)
                    s = sym_funcs(el)
                    if s.e2 <= 0 or not 1 <= s.e3 <= X:
                        continue
                    if s.e3 == 1:
                        continue  # unit ideal
                    h = ideal_hnf(el)
                    found[h.rows] = h.det
    return tuple(sorted(zip(found.values(), found.keys())))


def count_bruteforce(a: int, X: int, include_unit: bool = False) -> int:
    """Ground-truth primitive principal ideal count for a <= 12, X <= a^2."""
    if a > BRUTE_A_GUARD:
        raise GuardExceeded(f"brute force is guarded to a <= {BRUTE_A_GUARD}")
    if not 1 <= X <= a * a:
        raise BoundTooLarge(f"X must lie in [1, a^2 = {a * a}]")
    dets = _bruteforce_ideals(a)
    base = sum(1 for d, _ in dets if d <= X)
    return base + (1 if include_unit else 0)


# ---------------------------------------------------------------------------
# Squarefree-norm counts and the largest norm


def sq_count(a: int) -> int:
    """Indecomposable representatives (unit and exceptional included) with
    squarefree norm."""
    if a < -1:
        raise IllegalParameter("a >= -1")
    return sum(1 for rec in indecomposables_simplest(a) if is_squarefree(norm(rec.element)))


def max_norm_indecomposable(a: int) -> tuple[TrianglePoint, int]:
    """Argmax and max of the norm over the triangle and the exceptional element.

    For a >= 4 the triangle maximum dominates the exceptional norm
    a^2 + 3a + 9; ties inside the triangle break toward the center.
    """
    if a < 4:
        raise IllegalParameter("max-norm scan needs a >= 4")
    best_key = None
    best_point = None
    for v in range(0, a + 1):
        for W in range(0, a - v + 1):
            n = triangle_norm(a, v, W)
            center_dist = abs(3 * v - a) + abs(3 * W - a)  # 3 * L1 distance to center
            key = (-n, center_dist, v, W)
            if best_key is None or key < best_key:
                best_key = key
                best_point = TrianglePoint(v, W)
    assert best_key is not None
    max_norm = -best_key[0]
    exceptional = a * a + 3 * a + 9
    assert max_norm >= exceptional, "triangle should dominate for a >= 4"
    return best_point, max_norm


def monogenic_label(a: int) -> str:
    return "maximal order (certified)" if certified_simplest(a) else "order Z[rho] only"
