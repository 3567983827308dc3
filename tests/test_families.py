"""Triangle geometry, rotations, closed-form inventories, parallelepipeds."""

import random

import pytest

from indecomp.codifferent import trace_pairing
from indecomp.errors import (
    DegenerateSpan,
    FieldMismatch,
    IllegalParameter,
    OutOfDomain,
    OutOfRange,
    OutOfTriangle,
)
from indecomp.families import (
    KIND_ENNOLA_ROW,
    KIND_EXCEPTIONAL,
    KIND_THOMAS_ROW1,
    KIND_THOMAS_ROW2,
    KIND_TRIANGLE,
    KIND_UNIT,
    TrianglePoint,
    fundamental_triangle,
    in_triangle,
    indecomposables_ennola,
    indecomposables_simplest,
    indecomposables_thomas,
    parallelepiped_candidates,
    rotate,
    standard_parallelepipeds,
    triangle_element,
    triangle_norm,
    unit_corners,
    upper_strip_split,
)
from indecomp.oracle import shared_trace_witness
from indecomp.order_kernel import (
    Family,
    conjugate,
    elem,
    is_totally_positive,
    make_field,
    mul,
    norm,
    one,
    rho,
    unit_inverse,
)
from indecomp.quadratic import fundamental_tp_unit, make_quad_field


def test_inventory_counts():
    for a, n in ((-1, 2), (0, 3), (1, 5), (7, 38), (12, 93)):
        assert len(indecomposables_simplest(a)) == n == (a * a + 3 * a + 6) // 2


def test_inventory_membership_and_certificates():
    recs = indecomposables_simplest(7)
    kinds = [r.kind for r in recs]
    assert kinds.count(KIND_UNIT) == 1 and kinds.count(KIND_EXCEPTIONAL) == 1
    assert kinds.count(KIND_TRIANGLE) == 36
    for rec in recs:
        assert is_totally_positive(rec.element)
        want = 2 if rec.kind == KIND_EXCEPTIONAL else 1
        assert rec.certificate is not None and rec.certificate[1] == want


def test_inventory_smallest_parameter():
    recs = indecomposables_simplest(-1)
    assert [r.element.coords for r in recs] == [(1, 0, 0), (1, 1, 1)]


def test_triangle_norm_matches_sym_funcs():
    for a in range(0, 31):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        for v in range(0, a + 1):
            for W in range(0, a - v + 1):
                el = triangle_element(f, TrianglePoint(v, W))
                assert triangle_norm(a, v, W) == norm(el), (a, v, W)


def _triangle_norm_expansion(a, v, W):
    """The seventeen-term expansion of the triangle norm that the row cubic replaced."""
    return (
        a * a * v * W
        - a * v * v * W
        - a * v * W * W
        + a * a * v
        - 2 * a * v * v
        + a * v * W
        + a * W * W
        + v**3
        - 3 * v * W * W
        - W**3
        + 3 * a * v
        + 3 * a * W
        - 3 * v * v
        - 3 * v * W
        - 3 * W * W
        + 2 * a
        + 3
    )


def test_triangle_norm_equals_the_seventeen_term_expansion():
    """Every triangle point for a <= 60, and 2000 random points at a = 10^3 and 10^6."""
    for a in range(0, 61):
        for v in range(0, a + 1):
            for W in range(0, a - v + 1):
                assert triangle_norm(a, v, W) == _triangle_norm_expansion(a, v, W), (a, v, W)
    rng = random.Random(3701)
    for a in (10**3, 10**6):
        for _ in range(2000):
            v = rng.randint(0, a)
            W = rng.randint(0, a - v)
            assert triangle_norm(a, v, W) == _triangle_norm_expansion(a, v, W), (a, v, W)


def _fundamental_points_parent(a):
    """The (v, W) of the fundamental third in the order of the former generator."""
    bigA, a0 = divmod(a, 3)
    top = bigA - 1 if a0 == 0 else bigA
    for v in range(0, top + 1):
        for W in range(v, 3 * bigA + a0 - 2 * v - 1 + 1):
            yield v, W
    if a0 == 0:
        yield bigA, bigA


def test_fundamental_triangle_equals_the_former_walk():
    for a in range(0, 121):
        got = [(p.v, p.W) for p in fundamental_triangle(a)]
        assert got == list(_fundamental_points_parent(a)), a


def test_triangle_norm_examples():
    for a in (3, 7, 12):
        assert triangle_norm(a, 0, 0) == 2 * a + 3
        # first-row closed form in terms of w = W + 1
        for W in range(0, a + 1):
            w = W + 1
            assert triangle_norm(a, 0, W) == -w**3 + a * w * w + (a + 3) * w + 1
    for a in (7, 10, 30):
        assert triangle_norm(a, 1, 1) == 2 * a * a + 6 * a - 9
        assert triangle_norm(a, 1, a - 3) == 4 * a * a - 17


def test_triangle_norm_domain():
    with pytest.raises(OutOfTriangle):
        triangle_norm(5, 3, 4)
    with pytest.raises(OutOfTriangle):
        triangle_norm(5, -1, 0)


def test_rotation_index_map():
    a = 7
    assert rotate(TrianglePoint(0, 0), a) == TrianglePoint(0, a)
    assert rotate(TrianglePoint(0, a), a) == TrianglePoint(a, 0)
    p = TrianglePoint(2, 3)
    assert rotate(rotate(rotate(p, a), a), a) == p
    assert rotate(p, a, 2) == rotate(rotate(p, a), a)
    with pytest.raises(OutOfDomain):
        rotate(TrianglePoint(5, 5), a)


def test_rotation_fixed_points():
    for a in range(0, 16):
        fixed = [
            p
            for v in range(0, a + 1)
            for W in range(0, a - v + 1)
            if rotate(p := TrianglePoint(v, W), a) == p
        ]
        if a % 3 == 0:
            assert fixed == [TrianglePoint(a // 3, a // 3)]
        else:
            assert fixed == []


def test_rotation_element_identity():
    """One turn is first-conjugation times (rho')^{-2}; two turns use rho^2."""
    for a in (1, 4, 7):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        eps1 = unit_inverse(conjugate(rho(f))) ** 2
        r2 = mul(rho(f), rho(f))
        for v in range(0, a + 1):
            for W in range(0, a - v + 1):
                p = TrianglePoint(v, W)
                al = triangle_element(f, p)
                assert mul(conjugate(al), eps1) == triangle_element(f, rotate(p, a))
                assert mul(conjugate(al, 2), r2) == triangle_element(f, rotate(p, a, 2))


def test_triangle_norm_is_rotation_invariant():
    for a in range(0, 41):
        for v in range(0, a + 1):
            for W in range(0, a - v + 1):
                n = triangle_norm(a, v, W)
                for turns in (1, 2):
                    q = rotate(TrianglePoint(v, W), a, turns)
                    assert triangle_norm(a, q.v, q.W) == n, (a, v, W, turns)


def test_unit_corner_cycle():
    a = 5
    f = make_field(Family.SIMPLEST_CUBIC, a)
    corners = unit_corners(a)
    elems = [triangle_element(f, p) for p in corners]
    assert elems[0].coords == (0, 0, 1)
    assert elems[1].coords == (1, 0, 0)
    assert elems[2] == unit_inverse(conjugate(rho(f))) ** 2
    assert rotate(corners[0], a) == corners[1]
    assert rotate(corners[1], a) == corners[2]
    assert rotate(corners[2], a) == corners[0]


def test_fundamental_triangle_cases():
    assert fundamental_triangle(3) == [
        TrianglePoint(0, 0),
        TrianglePoint(0, 1),
        TrianglePoint(0, 2),
        TrianglePoint(1, 1),
    ]
    assert fundamental_triangle(1) == [TrianglePoint(0, 0)]
    with pytest.raises(IllegalParameter):
        fundamental_triangle(-1)


def test_fundamental_triangle_orbit_cover():
    for a in range(0, 31):
        full = {
            TrianglePoint(v, W) for v in range(0, a + 1) for W in range(0, a - v + 1)
        }
        base = fundamental_triangle(a)
        assert set(base) <= full
        cover = set()
        for p in base:
            cover.add(p)
            cover.add(rotate(p, a))
            cover.add(rotate(p, a, 2))
        assert cover == full
        assert len(full) == 3 * len(base) - (2 if a % 3 == 0 else 0)


def test_parallelepiped_first():
    f = make_field(Family.SIMPLEST_CUBIC, 1)
    cands, verts = parallelepiped_candidates(one(f), rho(f) * rho(f), elem(f, 1, 2, 1))
    assert [c.coords for c in cands] == [(1, 1, 1)]
    assert elem(f, 0, 0, 0) in verts and one(f) in verts


def test_parallelepiped_second():
    for a in (0, 1, 4):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        eps2 = unit_inverse(conjugate(rho(f))) ** 2
        cands, _ = parallelepiped_candidates(one(f), rho(f) * rho(f), eps2)
        assert len(cands) == (a + 1) * (a + 2)
        ws = sorted(-c.coords[1] for c in cands)
        assert ws == list(range(1, (a + 1) * (a + 2) + 1))


def test_parallelepiped_a_minus_one():
    f = make_field(Family.SIMPLEST_CUBIC, -1)
    eps2 = unit_inverse(conjugate(rho(f))) ** 2
    cands, _ = parallelepiped_candidates(one(f), rho(f) * rho(f), eps2)
    assert cands == []


def test_parallelepiped_degenerate():
    f = make_field(Family.SIMPLEST_CUBIC, 1)
    with pytest.raises(DegenerateSpan):
        parallelepiped_candidates(one(f), one(f), rho(f))


def test_parallelepiped_generators_from_one_field():
    f, g = make_quad_field(2), make_quad_field(3)
    with pytest.raises(FieldMismatch):
        parallelepiped_candidates(one(f), one(g))
    with pytest.raises(IllegalParameter):
        parallelepiped_candidates(one(f))


def test_standard_parallelepipeds_are_units():
    for family, a in ((Family.SIMPLEST_CUBIC, 4), (Family.ENNOLA, 3), (Family.THOMAS, 3)):
        f = make_field(family, a)
        for gens in standard_parallelepipeds(f):
            for g in gens:
                assert norm(g) == 1 and is_totally_positive(g)
    f = make_quad_field(6)
    assert standard_parallelepipeds(f) == ((one(f), fundamental_tp_unit(6)),)


def test_upper_strip_split():
    a = 7
    f = make_field(Family.SIMPLEST_CUBIC, a)
    first, second = upper_strip_split(a, 0, 9)
    assert (first + second).coords == (0, -9, 2)
    assert is_totally_positive(first) and is_totally_positive(second)
    for v in range(0, a + 1):
        for w in range((v + 1) * (a + 1) + 1, (v + 1) * (a + 2) + 1):
            first, second = upper_strip_split(a, v, w)
            assert (first + second).coords == (-v, -w, v + 2)
            assert is_totally_positive(first) and is_totally_positive(second)
            wp = w - (a + 1) * (v + 1)
            assert 1 <= wp <= v + 1
    with pytest.raises(OutOfRange):
        upper_strip_split(a, 0, 8)  # still inside the triangle row


def test_ennola_inventory():
    recs = indecomposables_ennola(3)
    assert [r.element.coords for r in recs] == [(1, 0, 0), (1, 1, 1), (1, 2, 1)]
    for rec in recs:
        assert is_totally_positive(rec.element)
        if rec.kind == KIND_ENNOLA_ROW:
            assert rec.certificate[1] == 2
    assert len(indecomposables_ennola(4)) == 4
    with pytest.raises(IllegalParameter):
        indecomposables_ennola(2)


def test_thomas_inventory():
    recs = indecomposables_thomas(3)
    assert len(recs) == 7
    assert any(r.element.coords == (0, 11, -2) for r in recs)
    for rec in recs:
        assert is_totally_positive(rec.element)
        if rec.kind == KIND_THOMAS_ROW2:
            assert rec.certificate is not None and rec.certificate[1] == 2
        if rec.kind == KIND_THOMAS_ROW1:
            assert rec.certificate is None
    assert len(indecomposables_thomas(2)) == 5


def _thomas_row2(a):
    return [r for r in indecomposables_thomas(a) if r.kind == KIND_THOMAS_ROW2]


def test_thomas_row2_certificate_is_the_searched_witness():
    """The closed-form row-2 delta is the lexicographically least shared
    trace-2 witness that the brute-force search finds."""
    for a in (*range(2, 21), 30):
        field = make_field(Family.THOMAS, a)
        row = [elem(field, -1, (a + 2) * w + 1, -w) for w in range(a, 2 * a)]
        records = _thomas_row2(a)
        assert [r.element for r in records] == row
        assert {r.certificate[0] for r in records} == {shared_trace_witness(row, t=2)}, a


@pytest.mark.parametrize("a", [200, 1000])
def test_thomas_row2_certificate_at_large_a(a):
    records = _thomas_row2(a)
    assert len(records) == a
    assert all(r.certificate[1] == 2 for r in records)


def test_in_triangle_helper():
    assert in_triangle(5, TrianglePoint(0, 5))
    assert not in_triangle(5, TrianglePoint(1, 5))


@pytest.mark.parametrize(
    "inventory, params",
    [
        (indecomposables_simplest, range(-1, 31)),
        (indecomposables_ennola, range(3, 13)),
        (indecomposables_thomas, range(2, 7)),
    ],
    ids=["simplest", "ennola", "thomas"],
)
def test_record_certificates_equal_trace_pairing(inventory, params):
    for a in params:
        certified = [rec for rec in inventory(a) if rec.certificate is not None]
        assert certified
        for rec in certified:
            delta, t = rec.certificate
            assert t == trace_pairing(delta, rec.element), (a, rec)
