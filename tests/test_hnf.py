"""Canonical HNF of integer row lattices, adjugates, parallelepiped points."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecomp.errors import DegenerateSpan
from indecomp.hnf import (
    adjugate,
    hnf_det,
    interval_dot,
    lattice_points,
    parallelepiped_points,
    row_hnf_lower,
)

RNG = random.Random(90210)


def _unimodular(n):
    """Random unimodular integer matrix via elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = RNG.randrange(n), RNG.randrange(n)
        if i == j:
            continue
        c = RNG.randint(-3, 3)
        m[i] = [m[i][k] + c * m[j][k] for k in range(n)]
        if RNG.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_lower_triangular_shape():
    for n in (2, 3):
        for _ in range(200):
            rows = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = _det(rows)
            if det == 0:
                continue
            h = row_hnf_lower(rows)
            for i in range(n):
                assert h[i][i] > 0
                for j in range(i + 1, n):
                    assert h[i][j] == 0
                for j in range(i):
                    assert 0 <= h[i][j] < h[j][j]
            assert hnf_det(h) == abs(det)


def _det(m):
    n = len(m)
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_row_lattice_invariance():
    """The HNF depends only on the row lattice, not the chosen basis."""
    for n in (2, 3):
        for _ in range(200):
            rows = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if _det(rows) == 0:
                continue
            u = _unimodular(n)
            assert row_hnf_lower(rows) == row_hnf_lower(_matmul(u, rows))


def test_singular_rejected():
    with pytest.raises(ValueError):
        row_hnf_lower([[1, 2], [2, 4]])


def test_adjugate_identity():
    for _ in range(200):
        n = RNG.choice((2, 3))
        m = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        adj, det = adjugate(m)
        eye = [[det if i == j else 0 for j in range(n)] for i in range(n)]
        assert _matmul([list(r) for r in adj], m) == eye


def _parallelepiped_reference(gens):
    """Every hull point tested against t = M^{-1} x in [0, 1]^n."""
    n = len(gens)
    adj, det = adjugate([[g[i] for g in gens] for i in range(n)])
    vertices = {
        tuple(sum(g[i] for b, g in enumerate(gens) if mask >> b & 1) for i in range(n))
        for mask in range(1 << n)
    }
    hull = [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1) for i in range(n)]
    points = [
        x
        for x in itertools.product(*hull)
        if all(0 <= Fraction(sum(a * c for a, c in zip(row, x)), det) <= 1 for row in adj)
    ]
    return points, vertices


def test_parallelepiped_points_match_reference():
    checked = 0
    while checked < 300:
        n = RNG.choice((2, 3))
        gens = [tuple(RNG.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        if adjugate([[g[i] for g in gens] for i in range(n)])[1] == 0:
            with pytest.raises(DegenerateSpan):
                parallelepiped_points(gens)
            continue
        assert parallelepiped_points(gens) == _parallelepiped_reference(gens), gens
        checked += 1


@st.composite
def _regions(draw):
    """A box, rows of integer coefficient intervals, and maybe an equality c . x = t."""
    n = draw(st.sampled_from((2, 3)))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-6, 6))
        box.append((lo, lo + draw(st.integers(-1, 8))))
    exact = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = []
        for _ in range(n):
            lo = draw(st.integers(-5, 5))
            coeffs.append((lo, lo if exact else lo + draw(st.integers(0, 2))))
        lo = draw(st.integers(-25, 25))
        rows.append((coeffs, lo, lo + draw(st.integers(0, 30))))
    equality = None
    if draw(st.booleans()):
        equality = (draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
                    draw(st.integers(-8, 8)))
    return box, rows, exact, equality


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_regions())
def test_lattice_points_match_a_box_scan(region):
    box, rows, exact, equality = region
    got = list(lattice_points(box, rows, equality))
    scan = [
        x for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
        if equality is None or sum(c * v for c, v in zip(equality[0], x)) == equality[1]
    ]
    # x meets a row for some coefficients in its intervals iff C . x meets [lo, hi]
    meets = [
        x for x in scan
        if all(lo <= interval_dot(c, x)[1] and interval_dot(c, x)[0] <= hi for c, lo, hi in rows)
    ]
    assert len(set(got)) == len(got) and set(meets) <= set(got) <= set(scan)
    if exact:
        assert sorted(got) == meets
    if equality is None:
        assert got == sorted(got)
