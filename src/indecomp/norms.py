"""Small-norm elements and primitive principal ideals of simplest cubic orders.

Three routes to the ideal count P_a(X) for X <= a^2:

* count_fast: the (k, w) parametrization beta = -w*rho + k*rho^2 with the
  enumeration cuts a*k^2*w < X and a*k*w^2 < X;
* count_exact: distinct ideals among the fast candidates and their Galois
  conjugates, keyed by HNF rows written in closed form: (beta) is the kernel
  of x -> x(r) mod n = N(beta) at r = w/k mod n (`sum_ideal_rows`);
* count_bruteforce: exhaustive scan of the two fundamental cones, the
  ground truth the others are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .codifferent import certified_simplest
from .errors import (
    BoundTooLarge,
    ConsistencyError,
    GuardExceeded,
    IllegalParameter,
    ZeroElement,
)
from .families import (
    TrianglePoint,
    fundamental_triangle,
    standard_parallelepipeds,
    triangle_norm,
)
from .hnf import adjugate, hnf_det, lattice_points, row_hnf_lower
from .integers import icbrt, is_squarefree
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    apply_matrix,
    elem,
    galois_conjugation_matrix,
    make_field,
    mul,  # unused here; perfbench/tests/selfcheck.py checks tracing rebinds norms.mul
    multiplication_matrix,
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


def _check_count_domain(a: int, X: int) -> None:
    """The domain of every count: a >= 1, then 1 <= X <= a^2."""
    if a < 1:
        raise IllegalParameter("counting needs a >= 1")
    if not 1 <= X <= a * a:
        raise BoundTooLarge(f"X must lie in [1, a^2 = {a * a}]")


def count_fast(a: int, X: int, include_unit: bool = False) -> CountFastResult:
    """Primitive totally positive sums with norm <= X, X <= a^2.

    Enumerates coprime (k, w), k >= 1, w >= 1 subject to the cuts
    a*k^2*w < X and a*k*w^2 < X, keeping 1 <= sum_norm <= X and the element
    totally positive; (1, 0) is the unit rho^2, included only on request.
    Raises ConsistencyError unless each kept candidate's norm e3 from
    `sym_funcs` equals `sum_norm`, the n that `count_exact` relies on.
    """
    _check_count_domain(a, X)
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
            e1, e2, e3 = sym_funcs(_sum_element(field, k, w))
            if e3 != n:
                raise ConsistencyError(f"N(-{w}*rho + {k}*rho^2) = {e3} != sum_norm = {n}")
            if e1 > 0 and e2 > 0:
                pairs.append(SumElement(k, w))
        k += 1
    return CountFastResult(tuple(pairs))


# ---------------------------------------------------------------------------
# Ideal identity via Hermite normal form


@dataclass(frozen=True)
class IdealHNF:
    """Canonical lower-triangular basis of beta * Z[rho]; det = |N(beta)|."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def det(self) -> int:
        return hnf_det(self.rows)


def ideal_hnf(beta: OrderElement) -> IdealHNF:
    if beta.is_zero():
        raise ZeroElement("zero generates the zero ideal")
    # rows beta, beta*rho, ... are the columns of the multiplication matrix (any degree)
    h = IdealHNF(row_hnf_lower(tuple(zip(*multiplication_matrix(beta)))))
    if h.det != abs(norm(beta)):
        raise ConsistencyError(f"ideal HNF det {h.det} != |N(beta)| = {abs(norm(beta))}")
    return h


@lru_cache(maxsize=None)
def _conjugate_roots(field: FieldSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates of rho'' and rho' (column 1 of M^2 and of M, M the
    validated `galois_conjugation_matrix`): the inverse images of rho under
    one and two conjugations."""
    m = galois_conjugation_matrix(field)
    rp = apply_matrix(m, rho(field))
    return apply_matrix(m, rp).coords, rp.coords


def _sum_residue(n: int, k: int, w: int) -> int:
    """r = w/k mod n; k is invertible since N(beta) = -w^3 (mod k), gcd(k, w) = 1."""
    try:
        return w * pow(k, -1, n) % n
    except ValueError:
        raise IllegalParameter(f"beta is not primitive: gcd({k}, {w}) > 1") from None


def sum_ideal_rows(field: FieldSpec, k: int, w: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """HNF rows of (beta), (beta') and (beta''), beta = -w*rho + k*rho^2, in closed form.

    Needs coprime k >= 1, w >= 0 (IllegalParameter otherwise).

    beta = rho * (k*rho - w) with rho a unit, so Z[rho]/(beta) is cyclic of
    order n = |N(beta)| = |sum_norm(a, k, w)| and (beta) is the kernel of
    x -> x(r) mod n at r = w/k mod n.  Its rows are (n, 0, 0), (-r, 1, 0)
    and (-r^2, 0, 1) mod n, equal to `ideal_hnf(beta).rows`.  Certificate,
    checked here (ConsistencyError otherwise): f(r) = 0 mod n makes x -> x(r)
    a ring map onto Z/n, so its kernel has index n, and beta(r) = 0 mod n
    puts (beta) inside it; (beta) also has index n, so the two are equal.
    The j-th conjugate ideal is the kernel at sigma^-j(rho)(r): rho''(r) for
    `conjugate(beta, 1)`, rho'(r) for `conjugate(beta, 2)`.  No element,
    multiplication matrix or HNF is built.
    """
    n = abs(sum_norm(field.a, k, w))
    r = _sum_residue(n, k, w)
    c2, c1, c0 = field.minpoly
    if (((r + c2) * r + c1) * r + c0) % n or r * (k * r - w) % n:
        raise ConsistencyError(f"rho -> {r} mod {n} is not a root killing -{w}*rho + {k}*rho^2")
    rr = r * r
    residues = [r] + [(p0 + p1 * r + p2 * rr) % n for p0, p1, p2 in _conjugate_roots(field)]
    return tuple(((n, 0, 0), (-s % n, 1, 0), (-s * s % n, 0, 1)) for s in residues)


def count_exact(a: int, X: int, include_unit: bool = False) -> int:
    """Distinct ideals from the fast candidates and their Galois conjugates.

    Each ideal is keyed by its HNF rows, written in closed form and
    certified by `sum_ideal_rows`; n = |N(beta)| is `sum_norm`, which
    `count_fast` checks against `sym_funcs` for every candidate.
    """
    field = make_field(Family.SIMPLEST_CUBIC, a)
    seen = set()
    for pair in count_fast(a, X, include_unit).pairs:
        rows = sum_ideal_rows(field, pair.k, pair.w)
        n = rows[0][0][0]
        if n > X:
            raise ConsistencyError(f"candidate ideal of norm {n} exceeds X = {X}")
        seen.update(rows)
    return len(seen)


# ---------------------------------------------------------------------------
# Brute force over the fundamental cones

BRUTE_A_GUARD = 30


@lru_cache(maxsize=None)
def _bruteforce_ideals(a: int) -> tuple[tuple[int, ...], ...]:
    """Sorted determinants of all primitive principal ideals with norm <= a^2.

    Every such ideal has a totally positive generator x = sum u_j g_j, u_j >= 0,
    in one of the two closed cones spanned by totally positive units g_j of
    norm 1.  N^(1/3) is superadditive on totally positive elements (Minkowski;
    oracle.norms_superadditive is the exact test), so
    sum u_j = sum N(u_j g_j)^(1/3) <= N(x)^(1/3) <= X^(1/3) < bound.  Hence x
    lies in the simplex with vertices 0 and bound * g_j: with M the matrix
    whose columns are the g_j, adj(M) x >= 0 and sum adj(M) x <= bound * det M
    (after fixing the sign of det M).  `hnf.lattice_points` runs over the
    coordinate hull of the simplex with those exact rows.
    """
    field = make_field(Family.SIMPLEST_CUBIC, a)
    X = a * a
    bound = icbrt(X) + 1
    found: dict[tuple, int] = {}
    for gens in standard_parallelepipeds(field):
        coords = [g.coords for g in gens]
        adj, det = adjugate(list(zip(*coords)))
        if det < 0:
            adj, det = [[-v for v in row] for row in adj], -det
        hull = [(bound * min(0, *col), bound * max(0, *col)) for col in zip(*coords)]
        rows = [([(v, v) for v in row], 0, bound * det) for row in (*adj, map(sum, zip(*adj)))]
        for x in lattice_points(hull, rows):
            if math.gcd(*x) != 1:
                continue
            el = OrderElement(x, field)
            e1, e2, e3 = sym_funcs(el)
            if e1 <= 0 or e2 <= 0 or not 1 < e3 <= X:
                continue  # not totally positive, or a unit or too large
            h = ideal_hnf(el)
            found[h.rows] = h.det
    return tuple(sorted(zip(found.values(), found.keys())))


def count_bruteforce(a: int, X: int, include_unit: bool = False) -> int:
    """Ground-truth primitive principal ideal count for a <= BRUTE_A_GUARD, X <= a^2."""
    if a > BRUTE_A_GUARD:
        raise GuardExceeded(f"brute force is guarded to a <= {BRUTE_A_GUARD}")
    _check_count_domain(a, X)
    dets = _bruteforce_ideals(a)
    base = sum(1 for d, _ in dets if d <= X)
    return base + (1 if include_unit else 0)


# ---------------------------------------------------------------------------
# Squarefree-norm counts and the largest norm


def sq_count(a: int) -> int:
    """Indecomposable representatives (unit and exceptional included) with
    squarefree norm.

    The representatives are 1, 1 + rho + rho^2 (norm a^2 + 3a + 9) and the
    triangle points alpha(v, W), whose norms `triangle_norm` gives in closed
    form.  The triangle's order-3 rotation sends alpha to a Galois conjugate
    times a unit of norm 1, so it keeps the norm: each orbit is counted once,
    from its point in `fundamental_triangle`, with weight 3, except the fixed
    centre (a/3, a/3) when 3 | a, whose orbit is itself.
    """
    if a < -1:
        raise IllegalParameter("a >= -1")
    count = 1 + is_squarefree(a * a + 3 * a + 9)  # the unit has norm 1
    if a < 0:
        return count  # a = -1: the triangle is empty
    for p in fundamental_triangle(a):
        if is_squarefree(triangle_norm(a, p.v, p.W)):
            count += 1 if 3 * p.v == 3 * p.W == a else 3
    return count


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
    max_norm = -best_key[0]
    exceptional = a * a + 3 * a + 9
    if max_norm < exceptional:
        raise ConsistencyError(f"triangle maximum {max_norm} < exceptional norm {exceptional}")
    return best_point, max_norm


def monogenic_label(a: int) -> str:
    return "maximal order (certified)" if certified_simplest(a) else "order Z[rho] only"
