"""Integer lattice helpers: the canonical lower-triangular Hermite normal form of
full-rank row lattices, integer adjugates, the one enumerator of integer
points in a region cut out by rows of integer coefficient intervals, and
parallelepiped lattice points."""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterator

from .errors import DegenerateSpan, IllegalParameter


def _xgcd(a: int, b: int) -> tuple[int, int, int, int, int]:
    """(g, u, v, s, t): g = gcd(a, b) = u a + v b >= 0, s a + t b = 0, u t - v s = +-1."""
    u, v, s, t = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, u, v, s, t = b, a - q * b, s, t, u - q * s, v - q * t
    return (a, u, v, s, t) if a >= 0 else (-a, -u, -v, s, t)


def row_hnf_lower(rows) -> tuple[tuple[int, ...], ...]:
    """Unique lower-triangular HNF basis of the row lattice (full rank required).

    Diagonal entries are positive and every entry below the diagonal is
    reduced into [0, diagonal of its column).  Columns are cleared right to
    left: rows p, q with entries a, b there become the unimodular pair
    u p + v q (entry gcd(a, b)) and s p + t q (entry 0), by `_xgcd(a, b)`.
    """
    if len(rows) == 2:  # the lattice Z e_0 + (0, rows) in dimension 3
        h = row_hnf_lower(((1, 0, 0), (0, *rows[0]), (0, *rows[1])))
        return h[1][1:], h[2][1:]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    # the last column: fold b into a, then c into a
    g, u, v, s, t = _xgcd(a2, b2)
    a0, a1, a2, b0, b1 = u * a0 + v * b0, u * a1 + v * b1, g, s * a0 + t * b0, s * a1 + t * b1
    g, u, v, s, t = _xgcd(a2, c2)
    a0, a1, a2, c0, c1 = u * a0 + v * c0, u * a1 + v * c1, g, s * a0 + t * c0, s * a1 + t * c1
    # the middle column: fold c into b
    g, u, v, s, t = _xgcd(b1, c1)
    b0, b1, c0 = u * b0 + v * c0, g, s * b0 + t * c0
    if a2 == 0 or b1 == 0 or c0 == 0:
        raise DegenerateSpan("matrix is singular")
    h00, q = abs(c0), a1 // b1  # reduce the last row mod b1, then mod h00
    return (h00, 0, 0), (b0 % h00, b1, 0), ((a0 - q * b0) % h00, a1 - q * b1, a2)


def hnf_det(h) -> int:
    d = 1
    for i in range(len(h)):
        d *= h[i][i]
    return d


def adjugate(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) of an integer 2x2 or 3x3 matrix, with adj . m = det . I."""
    if len(m) == 2:
        adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    else:
        adj = tuple(
            tuple(
                m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            )
            for i in range(3)
        )
    return adj, sum(m[0][j] * adj[j][0] for j in range(len(m)))


def positive_adjugate(gens) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) of the matrix M whose columns are the 2 or 3 generators gens,
    negated when det M < 0, so that det > 0 and adj . M = det . I."""
    n = len(gens)
    if n not in (2, 3) or any(len(g) != n for g in gens):
        raise IllegalParameter(f"expected 2 or 3 generators of as many coordinates, got {n}")
    adj, det = adjugate([[g[i] for g in gens] for i in range(n)])
    if det == 0:
        raise DegenerateSpan("generators are linearly dependent")
    sign = 1 if det > 0 else -1
    return tuple(tuple(sign * v for v in row) for row in adj), sign * det


def interval_dot(coeffs, x) -> tuple[int, int]:
    """Enclosure (lo, hi) of sum_j C_j x_j for integer intervals C_j = (lo, hi), integer x."""
    terms = [(v * a, v * b) if v >= 0 else (v * b, v * a) for (a, b), v in zip(coeffs, x)]
    return sum(lo for lo, _ in terms), sum(hi for _, hi in terms)


def lattice_points(box, rows, equality=None) -> Iterator[tuple[int, ...]]:
    """Integer points of a box that may meet every row lo <= sum_j C_j x_j <= hi.

    A row is (C, lo, hi) with one integer interval C_j = (clo, chi) per
    coordinate, exact when clo == chi.  Over the box x_j C_j lies within
    x_j clo_j plus a slack of at most max(|lo_j|, |hi_j|) (chi_j - clo_j), so
    each row is relaxed to an exact row with the slack moved into its bounds.
    The points are exactly the box points that meet every relaxed row, in
    lexicographic order (see `_levels`), so they include every box point
    that meets each row for some coefficients in its intervals.

    equality = (c, t), over at most three coordinates, keeps the points with
    c . x = t.  They are x = (t/g) w + K u for the unimodular U = (K | w) of
    `_solution_lattice`, so none unless g | t; the walk runs over the
    reduced parameters u with the rows A K (A the relaxed rows), u in the
    range of the first rows of U^-1 over the box, and keeps the box points.
    The order is then lexicographic in u.  With c = 0 the equality keeps
    every point when t = 0 and none otherwise.
    """
    if any(lo > hi for lo, hi in box):
        return iter(())
    coeffs, bounds = [], []
    for cs, lo, hi in rows:
        slack_lo = slack_hi = 0
        for (a, b), (blo, bhi) in zip(cs, box):
            slack_lo += min(0, blo) * (b - a)
            slack_hi += max(0, bhi) * (b - a)
        coeffs.append(tuple([a for a, _ in cs]))
        bounds.append((lo - slack_hi, hi - slack_lo))
    coeffs = tuple(coeffs)
    if equality is None:
        return _walk(_levels(box, coeffs, bounds), ())
    c, t = equality
    lattice = _solution_lattice(coeffs, tuple(c))
    if lattice is None:  # c = 0
        return _walk(_levels(box, coeffs, bounds), ()) if t == 0 else iter(())
    g, w, kernel, inverse, shifted, aw = lattice
    if t % g:
        return iter(())
    s = t // g
    if not kernel:  # one coordinate: g x_0 = t pins it
        v = s * w[0]
        return _walk(_levels([(max(box[0][0], v), min(box[0][1], v))], coeffs, bounds), ())
    free_box = [interval_dot(box, row) for row in inverse]  # the range of U^-1 x over the box
    free_bounds = [(lo - s * v, hi - s * v) for (lo, hi), v in zip(bounds, aw)]
    points = _walk(_levels(free_box, shifted, free_bounds), ())
    return _in_box(box, [s * v for v in w], kernel, points)


def _in_box(box, x0, kernel, points) -> Iterator[tuple[int, ...]]:
    """The points x0 + K u of the box, for u in points and K given by its rows."""
    for u in points:
        x = tuple([v + sum(map(operator.mul, row, u)) for v, row in zip(x0, kernel)])
        if all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
            yield x


@lru_cache(maxsize=None)
def _solution_lattice(coeffs, c):
    """The coefficient-only part of solving c . x = t (see `lattice_points`).

    (g, w, K by rows, the first n - 1 rows of U^-1, the rows A K, the
    values A w) for the exact rows A and a unimodular U = (K | w) with
    c . U = (0, ..., 0, g), g = gcd(c); None if c = 0.  U comes from
    `_xgcd` folds of each column into the last, as in `row_hnf_lower`; the
    kernel columns K are then Lagrange-reduced under the Gram matrix
    A^T A + I, so that the walk over u meets few prefixes without a point
    (Cohen, GTM 138, Alg. 1.3.14).
    """
    n = len(c)
    if n > 3:
        raise IllegalParameter("an equality needs at most three coordinates")
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    g = c[-1]
    for j in range(n - 1):
        g, u, v, s, t = _xgcd(g, c[j])
        cols[-1], cols[j] = (
            [u * p + v * q for p, q in zip(cols[-1], cols[j])],
            [s * p + t * q for p, q in zip(cols[-1], cols[j])],
        )
    if g == 0:
        return None
    if n == 1:  # c_0 x_0 = t
        return abs(g), (1 if g > 0 else -1,), (), (), (), ()
    w, kernel = cols[-1], cols[:-1]
    if len(kernel) == 2:

        def dot(x, y):  # x^T (A^T A + I) y
            return sum(map(operator.mul, x, y)) + sum(
                sum(map(operator.mul, a, x)) * sum(map(operator.mul, a, y)) for a in coeffs
            )

        b1, b2 = sorted(kernel, key=lambda b: dot(b, b))
        while True:
            q = (2 * dot(b1, b2) + dot(b1, b1)) // (2 * dot(b1, b1))  # nearest integer
            b2 = [p - q * r for p, r in zip(b2, b1)]
            if dot(b2, b2) >= dot(b1, b1):
                break
            b1, b2 = b2, b1
        kernel = [b1, b2]
    adj, det = adjugate([[col[i] for col in (*kernel, w)] for i in range(n)])
    return (
        g,
        tuple(w),
        tuple(tuple(col[i] for col in kernel) for i in range(n)),
        tuple(tuple(det * v for v in row) for row in adj[:-1]),
        tuple(tuple(sum(map(operator.mul, a, col)) for col in kernel) for a in coeffs),
        tuple(sum(map(operator.mul, a, w)) for a in coeffs),
    )


@lru_cache(maxsize=None)
def _plan(n, coeffs):
    """The coefficient-only Fourier-Motzkin elimination of exact rows over n coordinates.

    One entry per coordinate j, from the last to the first, with indices
    into that level's system of rows (the input rows at j = n - 1):
    `fixed` (i, c) for rows c x_j with no other coefficient left, `cuts`
    (i, negate, a, c > 0) for the rows a . (x_0..x_(j-1)) + c x_j (negated
    so that c > 0), `carry` for the rows without x_j, and `pairs`
    (p, q, c_p, c_q) of cuts whose combination c_q P - c_p Q eliminates x_j.
    The next system is the carried rows, then the pairs' rows.
    """
    system, plan = coeffs, []
    for j in reversed(range(n)):
        fixed, cuts, carry, rest = [], [], [], []
        for i, a in enumerate(system):
            c, prefix = a[j], a[:j]
            if c == 0:
                carry.append(i)
                rest.append(prefix)
            elif not any(prefix):
                fixed.append((i, c))
            elif c < 0:
                cuts.append((i, True, tuple([-v for v in prefix]), -c))
            else:
                cuts.append((i, False, prefix, c))
        pairs = []
        for (p, (_, _, pa, pz)), (q, (_, _, qa, qz)) in itertools.combinations(enumerate(cuts), 2):
            pairs.append((p, q, pz, qz))
            rest.append(tuple([qz * u - pz * v for u, v in zip(pa, qa)]))
        plan.append((j, tuple(fixed), tuple(cuts), tuple(carry), tuple(pairs)))
        system = tuple(rest)
    return tuple(plan)


def _levels(box, coeffs, bounds):
    """Per coordinate j: its range and the cuts (a, lo, hi, c > 0) that ask
    lo <= a . (x_0..x_(j-1)) + c x_j <= hi (Fincke-Pohst); None if the region is empty.

    The rows are coeffs[i] . x in bounds[i].  The later coordinates are
    eliminated by pairs of rows (Fourier-Motzkin, planned once per coeffs by
    `_plan`), so the cuts of x_j are implied by the rows; each input row is
    enforced exactly at the last coordinate it involves, and the box at
    every coordinate, so the points do not depend on the derived rows,
    which only prune prefixes without a real completion.
    """
    levels = []
    for j, fixed, cuts, carry, pairs in _plan(len(box), coeffs):
        lo, hi = box[j]
        for i, c in fixed:
            rlo, rhi = bounds[i]
            if c < 0:
                rlo, rhi, c = -rhi, -rlo, -c
            lo, hi = max(lo, -(-rlo // c)), min(hi, rhi // c)
        if lo > hi:
            return None
        level = [(a, -bounds[i][1], -bounds[i][0], c) if negate else (a, *bounds[i], c)
                 for i, negate, a, c in cuts]
        levels.append((lo, hi, level))
        # lo_p <= P.y + p z <= hi_p and lo_q <= Q.y + q z <= hi_q have a real z iff
        # q lo_p - p hi_q <= (q P - p Q).y <= q hi_p - p lo_q
        bounds = [bounds[i] for i in carry]
        for p, q, pz, qz in pairs:
            _, plo, phi, _ = level[p]
            _, qlo, qhi, _ = level[q]
            bounds.append((qz * plo - pz * qhi, qz * phi - pz * qlo))
    return None if any(lo > 0 or hi < 0 for lo, hi in bounds) else levels[::-1]


def _walk(levels, prefix) -> Iterator[tuple[int, ...]]:
    """Lexicographic points that extend prefix."""
    if levels is None:
        return
    lo, hi, cuts = levels[len(prefix)]
    for a, rlo, rhi, c in cuts:
        s = sum(map(operator.mul, a, prefix))
        if -((s - rlo) // c) > lo:
            lo = -((s - rlo) // c)
        if (rhi - s) // c < hi:
            hi = (rhi - s) // c
    if len(prefix) < len(levels) - 1:
        for v in range(lo, hi + 1):
            yield from _walk(levels, (*prefix, v))
    else:
        for v in range(lo, hi + 1):
            yield (*prefix, v)


def parallelepiped_points(gens) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Integer points of the closed parallelepiped {sum t_j g_j : 0 <= t_j <= 1}.

    gens holds 2 or 3 linearly independent integer generators (else
    `positive_adjugate` raises IllegalParameter or DegenerateSpan).  Returns the
    points in lexicographic order and the set of the 2^n subset sums of the
    generators (the vertices).  With M the matrix whose columns are the
    generators, x is inside iff 0 <= adj(M) x <= det M (with det M > 0), so
    `lattice_points` runs over the vertex hull with those rows.
    """
    n = len(gens)
    adj, det = positive_adjugate(gens)
    vertices = {
        tuple(sum(g[i] for b, g in enumerate(gens) if mask >> b & 1) for i in range(n))
        for mask in range(1 << n)
    }
    hull = [(min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in range(n)]
    rows = [([(a, a) for a in row], 0, det) for row in adj]
    return list(lattice_points(hull, rows)), vertices
