"""Independent exact arithmetic for validating the library's answers.

Nothing here imports indecomp.  Elements are plain coordinate tuples on the
power basis, and each field is named by (family, a), so a defect in the
library's kernel cannot also hide in the check that judges its output.
Total positivity comes from Newton's identities on power sums, a different
route from the library's multiplication-matrix determinant.
"""

from __future__ import annotations

import math

ZERO = (0, 0, 0)


def minpoly(family: str, a: int) -> tuple[int, int, int]:
    """(c2, c1, c0) of the defining cubic x^3 + c2 x^2 + c1 x + c0."""
    if family == "simplest":
        return (-a, -(a + 3), -1)
    if family == "ennola":
        return (a - 1, -a, -1)
    if family == "thomas":
        return (-(2 * a + 2), a * (a + 2), -1)
    raise ValueError(f"unknown family {family!r}")


def add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def mul(x, y, mp):
    """Product in Z[rho], reduced with rho^3 = -c2 rho^2 - c1 rho - c0."""
    c2, c1, c0 = mp
    r = [0] * 5
    for i in range(3):
        for j in range(3):
            r[i + j] += x[i] * y[j]
    for k in (4, 3):
        top = r[k]
        r[k - 1] -= c2 * top
        r[k - 2] -= c1 * top
        r[k - 3] -= c0 * top
    return (r[0], r[1], r[2])


def trace(x, mp) -> int:
    c2, c1, _ = mp
    return 3 * x[0] - c2 * x[1] + (c2 * c2 - 2 * c1) * x[2]


def sym(x, mp) -> tuple[int, int, int]:
    """(e1, e2, e3) of the conjugates of x, from power sums."""
    x2 = mul(x, x, mp)
    p1, p2, p3 = trace(x, mp), trace(x2, mp), trace(mul(x2, x, mp), mp)
    e2, r2 = divmod(p1 * p1 - p2, 2)
    e3, r3 = divmod(p1**3 - 3 * p1 * p2 + 2 * p3, 6)
    if r2 or r3:
        raise ArithmeticError("power sums are not those of an algebraic integer")
    return p1, e2, e3


def norm(x, mp) -> int:
    return sym(x, mp)[2]


def totally_positive(x, mp) -> bool:
    if x == ZERO:
        return False
    e1, e2, e3 = sym(x, mp)
    return e1 > 0 and e2 > 0 and e3 > 0


def fprime(mp):
    c2, c1, _ = mp
    return (c1, 2 * c2, 3)


def codiff_totally_positive(gamma, mp) -> bool:
    """gamma / f'(rho) >> 0 exactly when gamma * f'(rho) >> 0 (same signs)."""
    return totally_positive(mul(gamma, fprime(mp), mp), mp)


def trace_over_fprime(x) -> int:
    """Tr(x / f'(rho)) by Euler: Tr(rho^m / f') = 0, 0, 1 for m = 0, 1, 2."""
    return x[2]


def pairing(gamma, alpha, mp) -> int:
    """Tr((gamma / f'(rho)) * alpha)."""
    return trace_over_fprime(mul(gamma, alpha, mp))


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def simplest_certified(a: int) -> bool:
    """Z[rho] is maximal: a^2+3a+9 squarefree, or 9m with m squarefree, 3 !| m."""
    n = a * a + 3 * a + 9
    if is_squarefree(n):
        return True
    return n % 9 == 0 and (n // 9) % 3 != 0 and is_squarefree(n // 9)


def continued_fraction(D: int) -> tuple[int, tuple[int, ...]]:
    """(u0, period) of xi_D = sqrt(D) or (sqrt(D) - 1)/2 for D = 1 mod 4.

    Each partial quotient floor((P + sqrt(D)) / Q) is decided exactly by
    comparing squares; the period closes when the first complete quotient
    after u0 recurs.
    """
    P, Q = (-1, 2) if D % 4 == 1 else (0, 1)
    terms = []
    seen = None
    while True:
        u = (P + math.isqrt(D)) // Q
        while (u + 1) * Q - P <= 0 or ((u + 1) * Q - P) ** 2 <= D:
            u += 1
        while u * Q - P > 0 and (u * Q - P) ** 2 > D:
            u -= 1
        terms.append(u)
        P = u * Q - P
        Q = (D - P * P) // Q
        if seen is None:
            seen = (P, Q)
        elif (P, Q) == seen:
            return terms[0], tuple(terms[1:])
        if len(terms) > 4 * D + 10:
            raise ArithmeticError("continued fraction did not close")


def quad_counts(u0: int, period: tuple[int, ...]) -> tuple[int, int]:
    """(n, #S) read off the period, as the paper defines them."""
    s = len(period)

    def u(i):
        return u0 if i == 0 else period[(i - 1) % s]

    if s % 2 == 0:
        n = max(u(i) for i in range(1, s, 2)) + 1
    else:
        n = 2 * u(s - 1) + 1
    return n, sum(u(2 * j - 1) for j in range(1, s + 1))


def real_roots(mp) -> list[float]:
    """The three real roots of the cubic, by bisection in floating point."""
    c2, c1, c0 = mp

    def f(t):
        return ((t + c2) * t + c1) * t + c0

    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    # the derivative's roots split the line into three monotone pieces
    disc = math.sqrt(max(c2 * c2 - 3 * c1, 0.0))
    cuts = [-bound, (-c2 - disc) / 3.0, (-c2 + disc) / 3.0, bound]
    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        flo = f(lo)
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if (f(mid) < 0) == (flo < 0):
                lo = mid
            else:
                hi = mid
        roots.append((lo + hi) / 2.0)
    return roots


def window_count(a: int, trace_bound: int) -> int:
    """#{alpha >> 0 : v1 + v3 <= trace_bound} in the simplest cubic order Z[rho].

    v1 + v3 is Tr(delta * alpha) for the certificate delta.  The search box
    comes from floating-point embeddings, 0 < sigma_i(alpha) < t / sigma_i(delta),
    widened by a margin; membership is then decided exactly.
    """
    mp = minpoly("simplest", a)
    roots = real_roots(mp)
    # delta's embeddings: the functional v -> v1 + v3 equals Tr(delta * v), so
    # delta = sum_i w_i e_i^* with w the dual solution of V^T w = (1, 0, 1)
    vand = [[1.0, r, r * r] for r in roots]
    w = _solve([[vand[i][j] for i in range(3)] for j in range(3)], [1.0, 0.0, 1.0])
    if min(w) <= 0:
        raise ArithmeticError("certificate functional is not totally positive")
    inv = _inverse(vand)
    lo = [0.0] * 3
    hi = [0.0] * 3
    for k in range(3):
        for i in range(3):
            reach = inv[k][i] * trace_bound / w[i]
            lo[k] += min(0.0, reach)
            hi[k] += max(0.0, reach)
    count = 0
    for v1 in range(math.floor(lo[0]) - 2, math.ceil(hi[0]) + 3):
        for v2 in range(math.floor(lo[1]) - 2, math.ceil(hi[1]) + 3):
            for v3 in range(math.floor(lo[2]) - 2, math.ceil(hi[2]) + 3):
                if 1 <= v1 + v3 <= trace_bound and totally_positive((v1, v2, v3), mp):
                    count += 1
    return count


def _solve(m, rhs):
    inv = _inverse(m)
    return [sum(inv[i][j] * rhs[j] for j in range(3)) for i in range(3)]


def _inverse(m):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return [
        [
            (m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) / det
            for j in range(3)
        ]
        for i in range(3)
    ]
