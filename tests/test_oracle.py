"""Search boxes, decomposability testing, minimal traces, window searches."""

import ast
import random
from fractions import Fraction

import pytest

from indecomp.codifferent import certificate_delta, trace_pairing
from indecomp.errors import IllegalParameter, UnboundedRegion
from indecomp.families import (
    TrianglePoint,
    indecomposables_ennola,
    indecomposables_simplest,
    triangle_element,
)
from indecomp.oracle import (
    decompose,
    indecomposables_by_search,
    min_trace,
    norms_superadditive,
    search_box,
)
from indecomp.order_kernel import (
    Family,
    OrderElement,
    conjugate,
    elem,
    embed,
    is_totally_positive,
    isolate_roots,
    make_field,
    mul,
    norm,
    one,
    rho,
    trace,
)
from indecomp.codifferent import is_totally_positive_codiff

RNG = random.Random(31337)


def test_search_box_bounded():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    box = search_box(f, [(0, 2), (0, 2), (0, 2)])
    assert all(lo <= hi for lo, hi in box)
    # the box contains the only candidate, beta = 1
    assert all(lo <= 1 <= hi for (lo, hi), c in zip(box, (1, 0, 0)) if c == 1)
    lo1, hi1 = box[0]
    assert hi1 - lo1 < 20


def test_search_box_unbounded():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    with pytest.raises(UnboundedRegion):
        search_box(f, [])
    with pytest.raises(UnboundedRegion):
        search_box(f, [(0, None), (0, 2), (0, 2)])


def test_search_box_compact_trace_slice():
    """{delta >> 0, Tr(alpha*delta) = t} has a finite box via delta_i < t/alpha_i."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    al = elem(f, 1, 1, 1)
    ivs = embed(al, isolate_roots(f))
    bounds = [(0, Fraction(2) / iv.lo) for iv in ivs]
    box = search_box(f, bounds)
    assert all(lo <= hi for lo, hi in box)


def test_decompose_two():
    for a in (-1, 1, 7):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert decompose(elem(f, 2, 0, 0)) == (one(f), one(f))


def test_decompose_exceptional_none():
    for a in (-1, 0, 1, 2, 4):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert decompose(elem(f, 1, 1, 1)) is None


def test_decompose_strip_elements():
    a = 7
    f = make_field(Family.SIMPLEST_CUBIC, a)
    for v, w in ((0, 9), (1, 17), (2, 26)):
        el = elem(f, -v, -w, v + 2)
        got = decompose(el)
        assert got is not None
        beta, gamma = got
        assert beta + gamma == el
        assert is_totally_positive(beta) and is_totally_positive(gamma)


def test_decompose_requires_totally_positive():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    with pytest.raises(IllegalParameter):
        decompose(rho(f))


def test_decompose_hits_verified():
    f = make_field(Family.SIMPLEST_CUBIC, 2)
    for _ in range(50):
        x = OrderElement(tuple(RNG.randint(-3, 3) for _ in range(3)), f)
        if x.is_zero():
            continue
        al = mul(x, x) + one(f)
        got = decompose(al)
        if got is not None:
            beta, gamma = got
            assert beta + gamma == al
            assert is_totally_positive(beta) and is_totally_positive(gamma)


def test_min_trace_triangle_and_exceptional():
    a = 7
    f = make_field(Family.SIMPLEST_CUBIC, a)
    t, w = min_trace(triangle_element(f, TrianglePoint(2, 3)), t_max=3)
    assert t == 1
    assert is_totally_positive_codiff(w)
    t2, w2 = min_trace(elem(f, 1, 1, 1), t_max=3)
    assert t2 == 2
    assert trace_pairing(w2, elem(f, 1, 1, 1)) == 2


def test_min_trace_thomas_row1_element():
    f = make_field(Family.THOMAS, 3)
    el = elem(f, 0, 11, -2)
    t, w = min_trace(el, t_max=5)
    assert t == 3
    assert trace_pairing(w, el) == 3 and is_totally_positive_codiff(w)


def test_min_trace_witness_is_lex_least():
    f = make_field(Family.SIMPLEST_CUBIC, 4)
    el = triangle_element(f, TrianglePoint(0, 0))
    t, w = min_trace(el)
    assert t == 1
    delta = certificate_delta(f)
    assert w.numerator.coords <= delta.numerator.coords


def test_min_trace_cap():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    el = triangle_element(f, TrianglePoint(0, 0))
    assert min_trace(el, t_max=1)[0] == 1
    with pytest.raises(IllegalParameter):
        min_trace(el, t_max=0)


def test_search_matches_closed_form_small_a():
    for a in (-1, 1):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        inv = indecomposables_by_search(f)
        closed = sorted(
            r.element.coords for r in indecomposables_simplest(a) if r.kind != "unit"
        )
        assert sorted(e.coords for e in inv.indecomposables) == closed
        assert one(f).coords in {u.coords for u in inv.units}
        for u in inv.units:
            assert norm(u) in (1, -1)


def test_search_matches_ennola():
    f = make_field(Family.ENNOLA, 3)
    inv = indecomposables_by_search(f)
    closed = sorted(
        r.element.coords for r in indecomposables_ennola(3) if r.kind != "unit"
    )
    assert sorted(e.coords for e in inv.indecomposables) == closed


def test_search_matches_thomas_up_to_units():
    """Thomas windows may return different orbit representatives; compare ideals."""
    from indecomp.families import indecomposables_thomas
    from indecomp.norms import ideal_hnf

    for a in (2, 3):
        f = make_field(Family.THOMAS, a)
        inv = indecomposables_by_search(f)
        closed = {
            ideal_hnf(r.element).rows
            for r in indecomposables_thomas(a)
            if r.kind != "unit"
        }
        found = {ideal_hnf(e).rows for e in inv.indecomposables}
        assert closed == found


def test_norm_sum_expansion_identity():
    """N(x+y) = N(x) + N(y) + Tr(x y' y'') + Tr(x x' y'') in the Galois family."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    for _ in range(1000):
        x = OrderElement(tuple(RNG.randint(-9, 9) for _ in range(3)), f)
        y = OrderElement(tuple(RNG.randint(-9, 9) for _ in range(3)), f)
        rhs = (
            norm(x)
            + norm(y)
            + trace(mul(mul(x, conjugate(y)), conjugate(y, 2)))
            + trace(mul(mul(x, conjugate(x)), conjugate(y, 2)))
        )
        assert norm(x + y) == rhs


def test_superadditivity_certificate():
    assert norms_superadditive(1, 8, 27)  # equality case 1 + 2 = 3
    assert norms_superadditive(1, 8, 28)
    assert not norms_superadditive(1, 8, 26)
    assert not norms_superadditive(5, 5, 9)
    with pytest.raises(IllegalParameter):
        norms_superadditive(0, 1, 1)


def test_superadditivity_random_pairs():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    for _ in range(1000):
        x = OrderElement(tuple(RNG.randint(-5, 5) for _ in range(3)), f)
        y = OrderElement(tuple(RNG.randint(-5, 5) for _ in range(3)), f)
        if x.is_zero() or y.is_zero():
            continue
        x2, y2 = mul(x, x), mul(y, y)
        assert norms_superadditive(norm(x2), norm(y2), norm(x2 + y2))


def test_search_modules_keep_checks_under_optimization():
    # `python -O` strips asserts; the search modules raise library errors instead
    import indecomp.forms
    import indecomp.oracle
    import indecomp.quadratic

    for module in (indecomp.oracle, indecomp.forms, indecomp.quadratic):
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], (module.__name__, asserts)
