"""Canonical HNF of integer row lattices, adjugates, parallelepiped points."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indecomp import forms, hnf, oracle
from indecomp.errors import DegenerateSpan, IllegalParameter
from indecomp.families import indecomposables_simplest
from indecomp.forms import verify_universality_window
from indecomp.hnf import (
    adjugate,
    hnf_det,
    interval_dot,
    lattice_points,
    parallelepiped_points,
    positive_adjugate,
    row_hnf_lower,
)
from indecomp.order_kernel import Family, make_field

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


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[0, 0], [3, 5]],
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [5, 7, 0]],
    [[0, 0, 0], [1, 2, 3], [4, 5, 6]],
    [[3, 1, 0], [6, 2, 0], [1, 1, 1]],
])
def test_singular_is_a_library_error(rows):
    with pytest.raises(DegenerateSpan):
        row_hnf_lower(rows)


def _elimination_hnf(rows):
    """Independent oracle: lower HNF by repeated smallest-pivot row elimination.

    The columns are reversed, reduced to upper HNF one column at a time (the
    nonzero entry of least absolute value is the pivot; the others are
    reduced by it until none is left; rows above are reduced mod the pivot),
    and reversed back.
    """
    n = len(rows)
    m = [[row[n - 1 - j] for j in range(n)] for row in rows]
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
    return tuple(tuple(m[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n))


def _permuted_identities():
    for n in (2, 3):
        for perm in itertools.permutations(range(n)):
            yield [[int(j == perm[i]) for j in range(n)] for i in range(n)]


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-10**6, 10**6),
    st.integers(10**20 - 1000, 10**20 + 1000),
    st.integers(-10**20 - 1000, -10**20 + 1000),
)


@st.composite
def _square_matrices(draw):
    n = draw(st.sampled_from((2, 3)))
    return [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]


def _hnf_cases(test):
    """Hypothesis-drawn 2x2 and 3x3 matrices plus explicit edge cases."""
    cases = [
        *_permuted_identities(),
        [[2, 0, 0], [1, 3, 0], [4, 5, 0]],  # zero last column but one entry
        [[5, 1, 0], [0, 7, 0], [1, 1, 3]],
        [[0, 4, 6], [2, 0, 3], [1, 1, 0]],  # zero first row entry
        [[0, 3], [2, 5]],
        [[3, 0], [2, 0]],
        [[2, 1], [1, 2]],
        [[1, 2], [2, 1]],  # negative determinant
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
        [[10**20, 1, 0], [3, 10**20 + 1, 7], [-10**20, 2, 10**20 - 3]],
        [[10**20 + 7, -3], [5, 10**20]],
    ]
    test = given(_square_matrices())(test)
    for rows in cases:
        test = example(rows)(test)
    return settings(max_examples=400, deadline=None, derandomize=True, database=None)(test)


@_hnf_cases
def test_row_hnf_matches_elimination_oracle(rows):
    try:
        want = _elimination_hnf(rows)
    except ValueError:
        with pytest.raises(DegenerateSpan):
            row_hnf_lower(rows)
        return
    assert row_hnf_lower(rows) == want


@_hnf_cases
def test_input_rows_lie_in_the_hnf_lattice(rows):
    """Every input row is an integer combination of the HNF rows, and the
    determinants agree, so the two row lattices are equal."""
    if _det(rows) == 0:
        return
    h = row_hnf_lower(rows)
    n = len(rows)
    assert hnf_det(h) == abs(_det(rows))
    for row in rows:
        x = [0] * n
        # x . h = row with h lower triangular: solve from the last column back
        for j in reversed(range(n)):
            r = row[j] - sum(x[i] * h[i][j] for i in range(j + 1, n))
            assert r % h[j][j] == 0, (rows, h, row)
            x[j] = r // h[j][j]
        assert [sum(x[i] * h[i][j] for i in range(n)) for j in range(n)] == list(row)


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


def test_parallelepiped_points_need_two_or_three_generators():
    for gens in (((1,),), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                 ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(IllegalParameter):
            parallelepiped_points(gens)


def test_positive_adjugate_fixes_the_sign():
    for _ in range(200):
        n = RNG.choice((2, 3))
        gens = [tuple(RNG.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        m = [[g[i] for g in gens] for i in range(n)]
        adj, det = adjugate(m)
        if det == 0:
            with pytest.raises(DegenerateSpan):
                positive_adjugate(gens)
            continue
        sign = 1 if det > 0 else -1
        assert positive_adjugate(gens) == (tuple(tuple(sign * v for v in row) for row in adj), abs(det))


@st.composite
def _regions(draw):
    """A box, rows of integer coefficient intervals, and maybe an equality c . x = t."""
    n = draw(st.sampled_from((1, 2, 3)))
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


_CUBE = [(-9, 9), (-8, 10), (-10, 8)]
_INTERVAL_ROWS = [
    ([(1000, 1003), (-7, -5), (250, 252)], -9000, 9000),
    ([(3, 3), (999, 1001), (-40, -38)], -5000, 8000),
    ([(-11, -10), (12, 13), (997, 1000)], -7000, 6000),
]
_EXACT_ROWS = [([(lo, lo) for lo, _ in c], lo, hi) for c, lo, hi in _INTERVAL_ROWS]


def _region_cases(test):
    """Hypothesis-drawn regions plus equalities with c = 0, with one coordinate
    and with |c| up to 10^6."""
    cases = [
        ([(0, 1), (0, 1)], [([(1, 1), (0, 0)], -5, 5)], True, ([0, 0], 0)),
        ([(0, 1), (0, 1)], [([(1, 1), (0, 0)], -5, 5)], True, ([0, 0], 1)),
        ([(-2, 2), (0, 3), (1, 1)], [([(1, 2), (0, 1), (1, 1)], -4, 4)], False, ([0, 0, 0], 0)),
        ([(-2, 2), (0, 3), (1, 1)], [([(1, 2), (0, 1), (1, 1)], -4, 4)], False, ([0, 0, 0], 1)),
        ([(0, 2)], [([(1, 1)], -9, 9)], True, ([2], 2)),
        ([(0, 2)], [([(1, 1)], -9, 9)], True, ([2], 3)),
        ([(-3, 3)], [([(-2, 1)], -1, 2)], False, ([-1], 2)),
        # |c| up to 10^6, as trace-pairing vectors have, with interval rows
        ([(-5, 5)], [([(999, 1001)], -4000, 4000)], False, ([-10**6], 3 * 10**6)),
        ([(-9, 9), (-9, 9)], [([(3, 4), (-2, -1)], -20, 20)], False, ([-10**6, 999999], 999995)),
        (_CUBE, _INTERVAL_ROWS, False, ([10**6, 999999, 1], -999992)),
        (_CUBE, _INTERVAL_ROWS, False, ([999983, -524287, 10**6], 9048523)),
        (_CUBE, _INTERVAL_ROWS, False, ([600000, 400000, 10**6], -1600000)),
        (_CUBE, _INTERVAL_ROWS, False, ([600000, 400000, 10**6], 100000)),
        (_CUBE, _EXACT_ROWS, True, ([600000, 400000, 10**6], -1600000)),
    ]
    test = given(_regions())(test)
    for region in cases:
        test = example(region)(test)
    return settings(max_examples=400, deadline=None, derandomize=True, database=None)(test)


@_region_cases
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


def test_equality_edge_cases():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(lattice_points([(0, 1), (0, 1)], [], ([0, 0], 0))) == square
    assert list(lattice_points([(0, 1), (0, 1)], [], ([0, 0], 1))) == []
    assert list(lattice_points([(0, 2)], [], ([2], 2))) == [(1,)]
    assert list(lattice_points([(0, 2)], [], ([2], 3))) == []
    assert list(lattice_points([(0, 2)], [], ([-2], -6))) == []
    # an empty row stays empty after the equality eliminates a coordinate
    assert list(lattice_points([(0, 3), (0, 3)], [([(1, 1), (0, 0)], 2, 1)], ([1, 1], 3))) == []


def _equality_reference(box, rows, equality):
    """The residue-class elimination of c . x = t, walked with `_levels_reference`.

    The coordinate p with the largest |c_p| is eliminated: each relaxed row
    a becomes c_p a_j - c_j a_p over the others, with the box range of x_p
    one more row, and the last free coordinate steps through its residue
    class mod |c_p| / gcd, so that x_p = (t - c' . x') / c_p is an integer.
    """
    if any(lo > hi for lo, hi in box):
        return []
    coeffs, bounds = [], []
    for cs, lo, hi in rows:
        slack_lo = sum(min(0, blo) * (b - a) for (a, b), (blo, _) in zip(cs, box))
        slack_hi = sum(max(0, bhi) * (b - a) for (a, b), (_, bhi) in zip(cs, box))
        coeffs.append([a for a, _ in cs])
        bounds.append((lo - slack_hi, hi - slack_lo))
    c, t = equality
    n = len(c)
    p = max(range(n), key=lambda j: abs(c[j]))
    cp, free = c[p], [j for j in range(n) if j != p]
    congruence = None
    if cp == 0 or not free:
        if t % cp if cp else t:
            return []
        if cp:  # one coordinate: c_p x_p = t pins it
            box = [(max(box[0][0], t // cp), min(box[0][1], t // cp))]
        levels = _levels_reference(box, [(a, lo, hi) for a, (lo, hi) in zip(coeffs, bounds)])
    else:
        reduced = []
        for a, (lo, hi) in zip([*coeffs, [int(j == p) for j in range(n)]], [*bounds, box[p]]):
            # c_p (a . x) = sum_(j != p) (c_p a_j - c_j a_p) x_j + a_p t
            lo, hi = (cp * lo - a[p] * t, cp * hi - a[p] * t) if cp > 0 else (
                cp * hi - a[p] * t, cp * lo - a[p] * t)
            reduced.append(([cp * a[j] - c[j] * a[p] for j in free], lo, hi))
        levels = _levels_reference([box[j] for j in free], reduced)
        cf = [c[j] for j in free]
        g = math.gcd(cf[-1], cp)
        step = abs(cp) // g
        congruence = (g, step, pow(cf[-1] // g, -1, step) if step > 1 else 0)

    def walk(prefix):
        lo, hi, cuts = levels[len(prefix)]
        for a, rlo, rhi, cz in cuts:
            s = sum(u * v for u, v in zip(a, prefix))
            lo, hi = max(lo, -((s - rlo) // cz)), min(hi, (rhi - s) // cz)
        if len(prefix) < len(levels) - 1:
            for v in range(lo, hi + 1):
                yield from walk((*prefix, v))
        elif congruence is None:
            yield from ((*prefix, v) for v in range(lo, hi + 1))
        else:
            # cf . x = t mod |c_p|: the last free coordinate runs through one class
            g, step, inverse = congruence
            r = t - sum(u * v for u, v in zip(cf, prefix))
            if r % g == 0:
                for v in range(lo + (r // g * inverse - lo) % step, hi + 1, step):
                    yield (*prefix, v)

    if levels is None:
        return []
    if congruence is None:
        return list(walk(()))
    return [
        (*x[:p], (t - sum(u * v for u, v in zip(cf, x))) // cp, *x[p:]) for x in walk(())
    ]


@_region_cases
def test_equality_matches_the_residue_class_reference(region):
    """The walk over the solution lattice yields the same set as the
    residue-class elimination, each point once."""
    box, rows, _, equality = region
    if equality is None:
        return
    got = list(lattice_points(box, rows, equality))
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(_equality_reference(box, rows, equality))


def test_trace_slices_match_the_residue_class_reference():
    """The trace slices of `min_trace(e, t_max=3)` for the non-unit records of
    the simplest cubic inventory at a = 7 (interval rows at scale 2^k,
    pairing vectors with large entries) give the same points as the
    residue-class elimination."""
    largest = points = 0
    for record in indecomposables_simplest(7):
        for t in range(1, 4) if record.kind != "unit" else ():
            ctx, bounds, equality = oracle._trace_region(record.element, t)
            box = oracle.box_from_embedding(ctx, bounds)
            rows = [(row, lo, hi) for row, (lo, hi) in zip(ctx.rows, bounds)]
            got = sorted(oracle.region_points(ctx, bounds, equality))
            assert got == sorted(_equality_reference(box, rows, equality))
            largest, points = max(largest, *map(abs, equality[0])), points + len(got)
    assert largest > 10 and points > 0


def test_trace_slices_walk_few_dead_prefixes():
    """Work counter: `min_trace(e, t_max=3)` over the non-unit records of the
    simplest cubic inventory at a = 7 visits at most 250 last-level walk
    prefixes (1,951 with residue-class stepping, for the same 39 points)."""
    walk, prefixes = hnf._walk, []

    def counting(levels, prefix, *rest):
        if levels is not None and len(prefix) == len(levels) - 1:
            prefixes.append(prefix)
        return walk(levels, prefix, *rest)

    with mock.patch.object(hnf, "_walk", counting):
        for record in indecomposables_simplest(7):
            if record.kind != "unit":
                oracle.min_trace(record.element, t_max=3)
    assert 0 < len(prefixes) <= 250, len(prefixes)


def _levels_reference(box, rows):
    """The uncached elimination that also pairs each level's box row with the cuts.

    Per coordinate j: its range and the cuts (a, lo, hi, c > 0) that ask
    lo <= a . (x_0..x_(j-1)) + c x_j <= hi; None if a constant row fails.
    """
    system, levels = rows, []
    for j in reversed(range(len(box))):
        lo, hi = box[j]
        cuts, rest = [], []
        for a, rlo, rhi in system:
            c, a = a[j], a[:j]
            if c < 0:
                a, rlo, rhi, c = [-v for v in a], -rhi, -rlo, -c
            if c == 0:
                rest.append((a, rlo, rhi))
            elif any(a):
                cuts.append((a, rlo, rhi, c))
            else:
                lo, hi = max(lo, -(-rlo // c)), min(hi, rhi // c)
        levels.append((lo, hi, cuts))
        if j:
            # lo_p <= P.y + p z <= hi_p and lo_q <= Q.y + q z <= hi_q have a real z iff
            # q lo_p - p hi_q <= (q P - p Q).y <= q hi_p - p lo_q
            pairs = itertools.combinations([*cuts, ([0] * j, lo, hi, 1)], 2)
            for (pa, plo, phi, pz), (qa, qlo, qhi, qz) in pairs:
                rest.append(([qz * u - pz * v for u, v in zip(pa, qa)],
                             qz * plo - pz * qhi, qz * phi - pz * qlo))
        system = rest
    return None if any(lo > 0 or hi < 0 for _, lo, hi in system) else levels[::-1]


@_region_cases
def test_cached_elimination_matches_the_reference(region):
    """The planned elimination gives the same points, in the same order, as
    the reference levels (which also pair the box rows) on the same rows."""
    box, rows, _, equality = region
    got = list(lattice_points(box, rows, equality))

    def reference(box, coeffs, bounds):
        return _levels_reference(box, [(list(a), lo, hi) for a, (lo, hi) in zip(coeffs, bounds)])

    with mock.patch.object(hnf, "_levels", reference):
        want = list(lattice_points(box, rows, equality))
    assert got == want


def test_the_window_search_builds_few_elimination_plans():
    """Work counter: plans depend only on the coefficient rows, so a cold
    universality window builds at most 8 of them, and every lattice search
    after the first for a plan finds it in the cache."""
    hnf._plan.cache_clear()
    forms._witness_cache.clear()
    forms.unit_square_root.cache_clear()
    levels, searches = hnf._levels, []

    def counting(box, coeffs, bounds):
        searches.append((len(box), coeffs))
        return levels(box, coeffs, bounds)

    with mock.patch.object(hnf, "_levels", counting):
        report = verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 2), 4)
    assert report.checked > 0 and not report.failures
    info = hnf._plan.cache_info()
    assert info.misses == len(set(searches)) <= 8, info
    assert info.hits == len(searches) - info.misses > 0, info
