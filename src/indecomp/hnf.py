"""Integer lattice helpers: the canonical lower-triangular Hermite normal form of
full-rank row lattices, integer adjugates, and parallelepiped lattice points."""

from __future__ import annotations

import itertools

from .errors import DegenerateSpan


def _upper_hnf(rows: list[list[int]]) -> list[list[int]]:
    m = [list(r) for r in rows]
    n = len(m)
    for j in range(n):
        while True:
            nz = [i for i in range(j, n) if m[i][j] != 0]
            if not nz:
                raise ValueError("matrix is singular")
            pivot = min(nz, key=lambda i: abs(m[i][j]))
            m[j], m[pivot] = m[pivot], m[j]
            done = True
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    q = m[i][j] // m[j][j]
                    m[i] = [m[i][k] - q * m[j][k] for k in range(n)]
                    if m[i][j] != 0:
                        done = False
            if done:
                break
        if m[j][j] < 0:
            m[j] = [-x for x in m[j]]
        for i in range(j):
            q = m[i][j] // m[j][j]
            m[i] = [m[i][k] - q * m[j][k] for k in range(n)]
    return m


def row_hnf_lower(rows) -> tuple[tuple[int, ...], ...]:
    """Unique lower-triangular HNF basis of the row lattice (full rank required).

    Diagonal entries are positive and every entry below the diagonal is
    reduced into [0, diagonal of its column).
    """
    n = len(rows)
    reversed_cols = [[row[n - 1 - j] for j in range(n)] for row in rows]
    upper = _upper_hnf(reversed_cols)
    return tuple(
        tuple(upper[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n)
    )


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


def parallelepiped_points(gens) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Integer points of the closed parallelepiped {sum t_j g_j : 0 <= t_j <= 1}.

    gens holds 2 or 3 linearly independent integer generators.  Returns the
    points in lexicographic order and the set of the 2^n subset sums of the
    generators (the vertices).  With M the matrix whose columns are the
    generators, x is inside iff 0 <= adj(M) x <= det M (after fixing the sign
    of det M); the leading coordinates run over the vertex hull and the last
    one is solved from those inequalities, so no hull point is tested.
    """
    n = len(gens)
    adj, det = adjugate([[g[i] for g in gens] for i in range(n)])
    if det == 0:
        raise DegenerateSpan("generators are linearly dependent")
    if det < 0:
        adj, det = [[-v for v in row] for row in adj], -det
    vertices = {
        tuple(sum(g[i] for b, g in enumerate(gens) if mask >> b & 1) for i in range(n))
        for mask in range(1 << n)
    }
    hull = [(min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in range(n)]
    points = []
    for head in itertools.product(*(range(lo, hi + 1) for lo, hi in hull[:-1])):
        lo, hi = hull[-1]
        for row in adj:
            # 0 <= s + a*z <= det for the last coordinate z
            s, a = sum(c * x for c, x in zip(row, head)), row[-1]
            if a:
                p, q = (-s, det - s) if a > 0 else (det - s, -s)
                lo, hi = max(lo, -(-p // a)), min(hi, q // a)
            elif not 0 <= s <= det:
                break
        else:
            points.extend(head + (z,) for z in range(lo, hi + 1))
    return points, vertices
