"""Small-norm elements and primitive principal ideals of simplest cubic orders.

Three routes to the ideal count P_a(X) for X <= a^2:

* count_fast: the (k, w) pairs of the parametrization beta = -w*rho + k*rho^2 with the
  enumeration cuts a*k^2*w < X and a*k*w^2 < X;
* count_exact: distinct ideals among the fast candidates and their Galois
  conjugates.  (beta) is the kernel of x -> x(r) mod n = N(beta) at
  r = w/k mod n, so each ideal is keyed by (n, s), s its residue
  (`_sum_residues`; `sum_ideal_rows` writes out the HNF rows);
* count_bruteforce: exhaustive scan of the two fundamental cones, the
  ground truth the others are validated against.

count_fast and count_exact share one candidate loop, `_candidates`, which
works on integers: each (k, w) is checked by `sum_norm` and by the kernel's
`cubic_sym_funcs` on the coordinates (0, -w, k), and no element is built.
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
    _fundamental_points,
    standard_parallelepipeds,
    triangle_norm,
)
from .hnf import hnf_det, lattice_points, positive_adjugate, row_hnf_lower
from .integers import icbrt, is_squarefree
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    apply_matrix,
    cubic_sym_funcs,
    galois_conjugation_matrix,
    make_field,
    mul,  # unused here; perfbench/tests/selfcheck.py checks tracing rebinds norms.mul
    multiplication_matrix,
    norm,
    rho,
)


def sum_norm(a: int, k: int, w: int) -> int:
    """N(-w*rho + k*rho^2) = -w^3 + a*k*w^2 + (a+3)*k^2*w + k^3."""
    if k < 1 or w < 0:
        raise IllegalParameter("need k >= 1 and w >= 0")
    return -(w**3) + a * k * w * w + (a + 3) * k * k * w + k**3


# count_fast and count_exact visit about (X/a)^(2/3) candidates and keep
# them all: at X // a = 10^8 (a = 10^8, X = 10^16) count_exact took 2.2 s and
# a peak RSS of 158 MB for 1,007,715 ideals on a 2-vCPU Xeon.
COUNT_RATIO_GUARD = 10**8


def _check_count_domain(a: int, X: int) -> None:
    """The domain of every count: a >= 1, then 1 <= X <= a^2, then
    X // a <= COUNT_RATIO_GUARD (GuardExceeded)."""
    if a < 1:
        raise IllegalParameter("counting needs a >= 1")
    if not 1 <= X <= a * a:
        raise BoundTooLarge(f"X must lie in [1, a^2 = {a * a}]")
    if X // a > COUNT_RATIO_GUARD:
        raise GuardExceeded(f"counting is guarded to X // a <= {COUNT_RATIO_GUARD}, got {X // a}")


def _candidates(a: int, X: int, include_unit: bool):
    """(k, w, n) for each primitive totally positive beta = -w*rho + k*rho^2
    with n = N(beta) <= X, X <= a^2, in the order of `count_fast`.

    Runs over coprime (k, w), k >= 1, w >= 1, subject to the cuts
    a*k^2*w < X and a*k*w^2 < X, keeps 1 <= n = sum_norm <= X, then takes
    (e1, e2, e3) from `cubic_sym_funcs` on the coordinates (0, -w, k):
    ConsistencyError unless e3 == n, and beta is kept when e1, e2 > 0.  The
    unit rho^2, (k, w) = (1, 0), comes first, on request.
    """
    _check_count_domain(a, X)
    minpoly = make_field(Family.SIMPLEST_CUBIC, a).minpoly
    if include_unit:
        yield 1, 0, sum_norm(a, 1, 0)
    k = 1
    while a * k * k < X:  # the cut forces a*k^2*w < X with w >= 1
        # both cuts as one bound: a*k^2*w <= X - 1 and a*k*w^2 <= X - 1
        w_max = min((X - 1) // (a * k * k), math.isqrt((X - 1) // (a * k)))
        for w in range(1, w_max + 1):
            if math.gcd(k, w) != 1:
                continue
            n = sum_norm(a, k, w)
            if not 1 <= n <= X:
                continue
            # positivity stays inline, not `coords_totally_positive`: this one
            # call gives the norm check and the signs, where the predicate would
            # compute the symmetric functions a second time for each candidate
            # (5,542 cubic_sym_funcs calls in one ideal-count benchmark
            # repetition, perfbench seed 7)
            e1, e2, e3 = cubic_sym_funcs(0, -w, k, minpoly)
            if e3 != n:
                raise ConsistencyError(f"N(-{w}*rho + {k}*rho^2) = {e3} != sum_norm = {n}")
            if e1 > 0 and e2 > 0:
                yield k, w, n
        k += 1


def count_fast(a: int, X: int, include_unit: bool = False) -> tuple[tuple[int, int], ...]:
    """Primitive totally positive sums beta = -w*rho + k*rho^2 with norm <= X,
    X <= a^2: the (k, w) pairs of `_candidates`, with every check made there;
    the unit rho^2, (1, 0), first and only on request.  The count is their number."""
    return tuple((k, w) for k, w, _ in _candidates(a, X, include_unit))


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


def _sum_residues(field: FieldSpec, n: int, k: int, w: int) -> tuple[int, int, int]:
    """(r, rho''(r), rho'(r)) mod n: the residues whose kernels x -> x(s) mod n
    are (beta), (beta') and (beta''), beta = -w*rho + k*rho^2, n = |N(beta)|.

    Needs coprime k >= 1, w >= 0 (IllegalParameter otherwise).

    beta = rho * (k*rho - w) with rho a unit, so Z[rho]/(beta) is cyclic of
    order n and (beta) is the kernel of x -> x(r) mod n at r = w/k mod n.
    Certificate, checked here (ConsistencyError otherwise): f(r) = 0 mod n
    makes x -> x(r) a ring map onto Z/n, so its kernel has index n, and
    beta(r) = 0 mod n puts (beta) inside it; (beta) also has index n, so the
    two are equal.  The j-th conjugate ideal is the kernel at
    sigma^-j(rho)(r): rho''(r) for `conjugate(beta, 1)`, rho'(r) for
    `conjugate(beta, 2)`.  No element, multiplication matrix or HNF is built.
    """
    r = _sum_residue(n, k, w)
    c2, c1, c0 = field.minpoly
    if (((r + c2) * r + c1) * r + c0) % n or r * (k * r - w) % n:
        raise ConsistencyError(f"rho -> {r} mod {n} is not a root killing -{w}*rho + {k}*rho^2")
    rr = r * r
    (s0, s1, s2), (t0, t1, t2) = _conjugate_roots(field)
    return r, (s0 + s1 * r + s2 * rr) % n, (t0 + t1 * r + t2 * rr) % n


def sum_ideal_rows(field: FieldSpec, k: int, w: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """HNF rows of (beta), (beta') and (beta''), beta = -w*rho + k*rho^2, in closed form.

    Needs coprime k >= 1, w >= 0 (IllegalParameter otherwise).  With
    n = |sum_norm(a, k, w)| and s each residue of `_sum_residues`, the rows
    are (n, 0, 0), (-s, 1, 0) and (-s^2, 0, 1) mod n, equal to
    `ideal_hnf(...).rows`.
    """
    n = abs(sum_norm(field.a, k, w))
    return tuple(((n, 0, 0), (-s % n, 1, 0), (-s * s % n, 0, 1))
                 for s in _sum_residues(field, n, k, w))


def count_exact(a: int, X: int, include_unit: bool = False) -> int:
    """Distinct ideals from the fast candidates and their Galois conjugates.

    Each ideal is keyed by (n, s): n = N(beta) from `_candidates`, where it
    is `sum_norm` checked against `cubic_sym_funcs`, and s a residue of
    `_sum_residues`, certified there.  The key fixes the HNF rows of
    `sum_ideal_rows` and is fixed by them.
    """
    field = make_field(Family.SIMPLEST_CUBIC, a)
    seen = set()
    for k, w, n in _candidates(a, X, include_unit):
        if n > X:
            raise ConsistencyError(f"candidate ideal of norm {n} exceeds X = {X}")
        r0, r1, r2 = _sum_residues(field, n, k, w)
        seen.add((n, r0))
        seen.add((n, r1))
        seen.add((n, r2))
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
    (`hnf.positive_adjugate`, det M > 0).  `hnf.lattice_points` runs over the
    coordinate hull of the simplex with those exact rows.
    """
    field = make_field(Family.SIMPLEST_CUBIC, a)
    minpoly = field.minpoly
    X = a * a
    bound = icbrt(X) + 1
    found: dict[tuple, int] = {}
    for gens in standard_parallelepipeds(field):
        coords = [g.coords for g in gens]
        adj, det = positive_adjugate(coords)
        hull = [(bound * min(0, *col), bound * max(0, *col)) for col in zip(*coords)]
        rows = [([(v, v) for v in row], 0, bound * det) for row in (*adj, map(sum, zip(*adj)))]
        for x in lattice_points(hull, rows):
            if math.gcd(*x) != 1:
                continue
            # inline signs, as in `_candidates`: one call serves the norm cut and
            # positivity, which `coords_totally_positive` would recompute
            e1, e2, e3 = cubic_sym_funcs(*x, minpoly)
            if e1 <= 0 or e2 <= 0 or not 1 < e3 <= X:
                continue  # not totally positive, or a unit or too large
            h = ideal_hnf(OrderElement(x, field))
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


# sq_count(a) tests one norm per triangle orbit, and its time grows like
# a^2.5: 8 s at a = 1201 (241,001 orbits) and 81 s at a = 2401 (962,001).
SQ_ORBIT_GUARD = 10**6


def sq_guard(a: int) -> None:
    """GuardExceeded when `sq_count(a)` would visit more than SQ_ORBIT_GUARD orbits."""
    orbits = (a * (a + 3) + 5) // 6 + (a % 3 == 0)  # len(fundamental_triangle(a)) for a >= 0
    if orbits > SQ_ORBIT_GUARD:
        raise GuardExceeded(f"sq_count({a}) visits {orbits} triangle orbits, over {SQ_ORBIT_GUARD}")


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
    sq_guard(a)
    count = 1 + is_squarefree(a * a + 3 * a + 9)  # the unit has norm 1
    if a < 0:
        return count  # a = -1: the triangle is empty
    for p in _fundamental_points(a):
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
