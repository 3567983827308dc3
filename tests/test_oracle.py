"""Search boxes, decomposability testing, minimal traces, window searches."""

import ast
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indecomp.codifferent import (
    certificate_delta,
    dual_pairing_vector,
    pairing_vector,
    trace_pairing,
)
from indecomp.errors import (
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    IndecompError,
    UnboundedRegion,
    ZeroElement,
)
from indecomp.families import (
    TrianglePoint,
    inventory,
    indecomposables_ennola,
    indecomposables_simplest,
    indecomposables_thomas,
    triangle_element,
)
from indecomp.hnf import interval_dot
from indecomp.integers import is_squarefree
from indecomp.intervals import Interval, det
from indecomp import oracle, order_kernel
from indecomp.oracle import (
    _context,
    _dyadic,
    _square_root_region,
    _trace_bounds,
    _trace_setup,
    _trace_slice,
    box_from_embedding,
    decompose,
    equal_mod_totally_positive_units,
    indecomposables_by_search,
    inventories_match,
    min_trace,
    norms_superadditive,
    region_points,
    search_box,
    shared_trace_witness,
    window_points,
)
from indecomp.order_kernel import (
    REFINEMENT_CAP,
    Family,
    OrderElement,
    conjugate,
    elem,
    embed,
    is_totally_positive,
    isolate_roots,
    OrderElement,
    make_custom_field,
    make_field,
    mul,
    norm,
    one,
    refine_roots,
    rho,
    trace,
    unit_generators,
)
from indecomp.codifferent import CodifferentElement, is_totally_positive_codiff
from indecomp.norms import ideal_hnf
from indecomp.quadratic import make_quad_field
from indecomp.verify import QUADRATIC_D_SET, inventory_matches_search

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


def test_search_box_refuses_an_empty_constraint():
    """lo > hi on one embedding is an illegal parameter that names the embedding."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    with pytest.raises(IllegalParameter, match="embedding 0"):
        search_box(f, [(2, 1), (0, 1), (0, 1)])


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


@pytest.mark.parametrize("a", range(2, 9))
def test_min_trace_thomas_table(a):
    """The minimal codifferent trace of every Thomas record: 1 for the unit,
    the exceptional element and the row-2 element w = a; 2 for row 1 at
    v = 1 and row 2 at w > a; 3 for row 1 at v >= 2.  The shared row-2
    certificate has trace 2, so at w = a it is a witness, not the minimum."""
    for rec in indecomposables_thomas(a):
        t, w = min_trace(rec.element, t_max=4)
        assert t == {
            "unit": 1,
            "exceptional": 1,
            "thomas_row1": 2 if rec.index == (1,) else 3,
            "thomas_row2": 1 if rec.index == (a,) else 2,
        }[rec.kind], rec
        assert rec.kind != "thomas_row2" or rec.certificate[1] == 2
        assert trace_pairing(w, rec.element) == t and is_totally_positive_codiff(w)


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


@pytest.mark.parametrize(
    "coords, other, t, error",
    [((0, 1, 0), None, 1, IllegalParameter), ((0, 0, 0), None, 1, IllegalParameter),
     ((1, 0, 0), 8, 0, FieldMismatch), ((1, 0, 0), None, 0, IllegalParameter),
     ((1, 0, 0), None, -1, IllegalParameter)],
    ids=["rho", "zero", "field", "trace-0", "trace-negative"],
)
def test_shared_trace_witness_refuses_what_it_cannot_search(coords, other, t, error):
    """The search runs over the first element's trace slice, which needs that
    element totally positive: at a = 7, (-17, -13, 2)/f' >> 0 pairs with rho
    to 1 but lies outside rho's slice, and 0 has no sign-definite enclosure.
    Another field is refused before the search, though the trace-0 slice is
    empty, and so is t < 1, which no totally positive pair reaches."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    missed = CodifferentElement(elem(f, -17, -13, 2))
    assert is_totally_positive_codiff(missed) and trace_pairing(missed, rho(f)) == 1
    elements = [OrderElement(coords, f)]
    if other is not None:
        elements.append(one(make_field(Family.SIMPLEST_CUBIC, other)))
    with pytest.raises(error):
        shared_trace_witness(elements, t)


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


def _closed_form(family, a):
    inventory = {Family.ENNOLA: indecomposables_ennola, Family.THOMAS: indecomposables_thomas}
    return [r.element for r in inventory[family](a) if r.kind != "unit"]


def test_search_matches_thomas_up_to_units():
    """Thomas windows may return different orbit representatives: compare modulo
    totally positive units."""
    for a in (2, 3):
        f = make_field(Family.THOMAS, a)
        found = indecomposables_by_search(f).indecomposables
        closed = _closed_form(Family.THOMAS, a)
        assert sorted(e.coords for e in found) != sorted(e.coords for e in closed)
        assert inventories_match(closed, found)


@pytest.mark.parametrize("family, a", [(Family.THOMAS, 2), (Family.THOMAS, 3),
                                       (Family.ENNOLA, 3), (Family.ENNOLA, 4)])
def test_inventories_match_modulo_totally_positive_units(family, a):
    f = make_field(family, a)
    found = indecomposables_by_search(f).indecomposables
    closed = _closed_form(family, a)
    assert inventories_match(closed, found)
    # one element moved off its orbit breaks the match
    v1, v2, v3 = closed[-1].coords
    assert not inventories_match(closed[:-1] + [elem(f, v1 + 1, v2, v3)], found)


def _shared_orbits(field):
    """(kind, index) pairs of the inventory records that lie in one totally
    positive unit orbit."""
    records = inventory(field)
    return [
        ((x.kind, x.index), (y.kind, y.index))
        for x, y in itertools.combinations(records, 2)
        if equal_mod_totally_positive_units(x.element, y.element)
    ]


def test_inventories_list_each_unit_orbit_once_except_one_thomas_pair():
    """Today's orbit structure: simplest and Ennola list every totally positive
    unit orbit once; Thomas lists one orbit twice, as the exceptional
    1 - a*rho + rho^2 = (rho - a)^2 * (-1 + (a+1)^2 rho - a rho^2) and the
    row-2 element w = a.  Listing one representative per orbit changes this."""
    for a in range(-1, 9):
        assert _shared_orbits(make_field(Family.SIMPLEST_CUBIC, a)) == [], a
    for a in range(3, 11):
        assert _shared_orbits(make_field(Family.ENNOLA, a)) == [], a
    for a in range(2, 11):
        f = make_field(Family.THOMAS, a)
        assert _shared_orbits(f) == [(("exceptional", ()), ("thomas_row2", (a,)))], a
        assert elem(f, 1, -a, 1) == mul(elem(f, -a, 1, 0) ** 2, elem(f, -1, (a + 1) ** 2, -a))


def test_equal_mod_totally_positive_units():
    f = make_field(Family.THOMAS, 4)
    x = elem(f, 1, -4, 1)
    e1, e2 = unit_generators(f).totally_positive
    for u in (e1, e2, mul(e1, e2), e1 ** -2):
        assert equal_mod_totally_positive_units(mul(x, u), x)
        assert equal_mod_totally_positive_units(x, mul(x, u))
    # same ideal and norm, but the unit rho - a of norm 1 is not totally positive
    u = unit_generators(f).fundamental[1]
    assert norm(u) == 1 and not is_totally_positive(u)
    assert not equal_mod_totally_positive_units(mul(x, u), x)
    # same norm, different ideal: a Galois conjugate
    g = make_field(Family.SIMPLEST_CUBIC, 7)
    y = elem(g, 2, 1, 0)
    assert norm(conjugate(y)) == norm(y) and ideal_hnf(conjugate(y)) != ideal_hnf(y)
    assert not equal_mod_totally_positive_units(conjugate(y), y)
    with pytest.raises(ZeroElement):
        equal_mod_totally_positive_units(elem(f, 0, 0, 0), x)
    with pytest.raises(FieldMismatch):
        equal_mod_totally_positive_units(one(f), one(g))


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
    # `python -O` strips asserts; every module raises library errors instead
    import indecomp

    modules = sorted(Path(indecomp.__file__).parent.glob("*.py"))
    names = {m.stem for m in modules}
    assert {"oracle", "forms", "quadratic", "order_kernel", "norms", "codifferent",
            "families", "verify"} <= names
    for module in modules:
        tree = ast.parse(module.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], (module.name, asserts)


# ---------------------------------------------------------------------------
# Dual-basis box rule against the Cramer's-rule box

def _custom_or_none(c):
    try:
        return make_custom_field(*c)
    except IndecompError:
        return None


def _quad_or_none(D):
    try:
        return make_quad_field(D)
    except IndecompError:
        return None


BOX_FIELDS = st.one_of(
    st.integers(-1, 60).map(lambda a: make_field(Family.SIMPLEST_CUBIC, a)),
    st.integers(3, 60).map(lambda a: make_field(Family.ENNOLA, a)),
    st.integers(2, 60).map(lambda a: make_field(Family.THOMAS, a)),
    st.tuples(st.integers(-9, 9), st.integers(-40, -1), st.integers(-9, 9))
    .map(_custom_or_none)
    .filter(lambda f: f is not None),
    st.integers(2, 400).map(_quad_or_none).filter(lambda f: f is not None),
)


def _sign_definite(iv):
    return iv.lo > 0 or iv.hi < 0


def _cramer_box(rows, bounds):
    """The box rule by Cramer's rule: x_j = det(rows, column j := bounds) / det(rows)."""
    d = len(rows)
    dt = det(rows)
    assert _sign_definite(dt)
    box = []
    for j in range(d):
        m = [[bounds[i] if k == j else rows[i][k] for k in range(d)] for i in range(d)]
        num = det(m)
        xj = [u / v for u in (num.lo, num.hi) for v in (dt.lo, dt.hi)]
        box.append((math.ceil(min(xj)), math.floor(max(xj))))
    return box


def _embedding_rows(field, rounds):
    """[1, rho_i, rho_i^2][:d] for each embedding, after `rounds` refinements."""
    d = len(field.minpoly)
    return [[Interval(1), iv, iv.square()][:d] for iv in refine_roots(field, rounds).intervals]


def _dot(rows, coords):
    return [sum((x * c for x, c in zip(row, coords)), Interval(0)) for row in rows]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    BOX_FIELDS,
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.lists(st.fractions(0, 3), min_size=3, max_size=3),
    st.integers(0, 3),
)
def test_dual_box_contains_every_cramer_box_point_in_the_region(field, coords, widths, extra):
    """Every lattice point of the Cramer box that satisfies the bounds lies in the dual box."""
    d = len(field.minpoly)
    coords = tuple(coords[:d])
    rounds = next(
        r for r in range(64)
        if _dyadic(field, r) is not None
        and _sign_definite(det(_embedding_rows(field, r)))
    ) + extra
    rows = _embedding_rows(field, rounds)
    # a region around a lattice point, so that it is never empty
    bounds = [Interval(iv.lo - w, iv.hi + w) for iv, w in zip(_dot(rows, coords), widths)]
    ctx = _dyadic(field, rounds)
    scaled = [(math.floor(b.lo * 2**ctx.k), math.ceil(b.hi * 2**ctx.k)) for b in bounds]
    dual_box = box_from_embedding(ctx, scaled)
    assert all(lo <= c <= hi for (lo, hi), c in zip(dual_box, coords))
    fine = _embedding_rows(field, rounds + 40)
    inside = 0
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in _cramer_box(rows, bounds))):
        ivs = _dot(fine, x)
        if all(b.lo <= iv.lo and iv.hi <= b.hi for iv, b in zip(ivs, bounds)):
            inside += 1
            assert all(lo <= c <= hi for (lo, hi), c in zip(dual_box, x)), x
    assert inside >= 1


# ---------------------------------------------------------------------------
# The region enumerator against a full scan of its box

SCAN_LIMIT = 20000  # box points a full scan may visit

SMALL_CUBICS = st.one_of(
    st.integers(-1, 6).map(lambda a: make_field(Family.SIMPLEST_CUBIC, a)),
    st.integers(3, 6).map(lambda a: make_field(Family.ENNOLA, a)),
    st.integers(2, 6).map(lambda a: make_field(Family.THOMAS, a)),
    st.tuples(st.integers(-3, 3), st.integers(-12, -1), st.integers(-3, 3))
    .map(_custom_or_none)
    .filter(lambda f: f is not None),
)
SMALL_FIELDS = st.one_of(
    SMALL_CUBICS, st.integers(2, 150).map(_quad_or_none).filter(lambda f: f is not None)
)


def _element(field, coords):
    return OrderElement(tuple(coords[: len(field.minpoly)]), field)


def _totally_positive(field, coords, m):
    """m + x^2: totally positive for every x and m >= 1."""
    x = _element(field, coords)
    return x * x + m


def _box_scan(box):
    size = math.prod(max(0, hi - lo + 1) for lo, hi in box)
    assume(size <= SCAN_LIMIT)
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(SMALL_FIELDS, st.lists(st.integers(-1, 1), min_size=3, max_size=3), st.integers(1, 4))
def test_split_region_hits_equal_a_full_box_scan(field, coords, m):
    """decompose's region: 0 < sigma_i(beta) < sigma_i(alpha)."""
    alpha = _totally_positive(field, coords, m)
    ctx, enclosures = _context(field, [alpha])
    bounds = [(0, hi) for _, hi in enclosures[alpha]]

    def splits(c):
        beta = _element(field, c)
        rest = alpha - beta
        return any(c) and not rest.is_zero() and is_totally_positive(beta) and is_totally_positive(rest)

    full = [c for c in _box_scan(box_from_embedding(ctx, bounds)) if splits(c)]
    assert [c for c in region_points(ctx, bounds) if splits(c)] == full
    split = decompose(alpha)
    assert (split[0].coords if split else None) == (full[0] if full else None)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(SMALL_FIELDS, st.lists(st.integers(-1, 1), min_size=3, max_size=3), st.integers(1, 4))
def test_square_root_region_hits_equal_a_full_box_scan(field, coords, m):
    """The square-root region: sigma_i(x)^2 <= sigma_i(target)."""
    target = _totally_positive(field, coords, m)
    ctx, bounds = _square_root_region(target)

    def fits(c):
        x = _element(field, c)
        rest = target - x * x
        return rest.is_zero() or is_totally_positive(rest)

    full = [c for c in _box_scan(box_from_embedding(ctx, bounds)) if fits(c)]
    assert [c for c in region_points(ctx, bounds) if fits(c)] == full
    assert tuple(coords[: len(ctx.rows[0])]) in full  # x itself: target - x^2 = m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    SMALL_CUBICS,
    st.lists(st.integers(-1, 1), min_size=3, max_size=3),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_trace_slice_hits_equal_a_full_box_scan(field, coords, m, t):
    """The codifferent slice: gamma/f' >> 0 with Tr((gamma/f') alpha) = t."""
    alpha = _totally_positive(field, coords, m)
    ctx, bounds, (c, _) = _trace_bounds(_trace_setup(alpha), t)
    full = [
        x for x in _box_scan(box_from_embedding(ctx, bounds))
        if sum(a * v for a, v in zip(c, x)) == t
        and is_totally_positive_codiff(CodifferentElement(OrderElement(x, field)))
    ]
    assert [g.coords for g in _trace_slice(alpha, t, _trace_setup(alpha))] == sorted(full)


def test_inventory_search_total_positivity_tests_stay_under_ceiling(monkeypatch):
    """Work counter: the region enumerator tests few points per decompose."""
    calls = [0]
    original = oracle.is_totally_positive

    def counting(x):
        calls[0] += 1
        return original(x)

    monkeypatch.setattr(oracle, "is_totally_positive", counting)
    for family, a, ceiling in ((Family.SIMPLEST_CUBIC, 12, 2000), (Family.THOMAS, 4, 500)):
        calls[0] = 0
        indecomposables_by_search(make_field(family, a))
        assert 0 < calls[0] <= ceiling, (family, a, calls[0])


def _counting(original, calls):
    def counted(*args):
        calls.append(args)
        return original(*args)

    return counted


# ---------------------------------------------------------------------------
# The pre-tested window search, the shared trace set-up and the tuple paths
# against the plain loops they replaced

SEARCH_FIELDS = (
    [make_field(Family.SIMPLEST_CUBIC, a) for a in range(-1, 9)]
    + [make_field(Family.ENNOLA, a) for a in range(3, 11)]
    + [make_field(Family.THOMAS, a) for a in range(2, 11)]
    + [make_quad_field(D) for D in range(2, 31) if is_squarefree(D)]
)


def _decompose_on_elements(alpha):
    """`decompose` as it ran on order elements: every region point built and tested."""
    field = alpha.field
    ctx, enclosures = _context(field, [alpha])
    for coords in region_points(ctx, [(0, hi) for _, hi in enclosures[alpha]]):
        if not any(coords):
            continue
        beta = OrderElement(coords, field)
        rest = alpha - beta
        if rest.is_zero():
            continue
        if is_totally_positive(beta) and is_totally_positive(rest):
            return beta, rest
    return None


def _plain_search(field):
    """The window search without the pre-test: `decompose` on every non-unit point."""
    units, indec = [], []
    for el in window_points(field):
        if norm(el) == 1:
            units.append(el)
        elif decompose(el) is None:
            indec.append(el)
    return tuple(indec), tuple(units)


@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=lambda f: f"{f.family.value}-{f.a}")
def test_pretested_search_equals_the_plain_decompose_loop(field):
    inv = indecomposables_by_search(field)
    assert (inv.indecomposables, inv.units) == _plain_search(field)


def test_pretested_search_matches_the_thomas_closed_form_up_to_a_20():
    """From a = 15 on, some Thomas pairs pass every enclosure bound of the
    pre-test with alpha - beta not totally positive, so only the exact test
    keeps the search right there."""
    for a in range(11, 21):
        assert inventory_matches_search(make_field(Family.THOMAS, a)), a


def test_the_search_decomposes_only_the_indecomposables(monkeypatch):
    """Work counter: the pre-test leaves no decomposable Thomas or Ennola
    window point for `decompose`."""
    calls = []
    monkeypatch.setattr(oracle, "decompose", _counting(decompose, calls))
    fields = [make_field(Family.THOMAS, a) for a in range(2, 11)]
    fields += [make_field(Family.ENNOLA, a) for a in range(3, 11)]
    for field in fields:
        calls.clear()
        inv = indecomposables_by_search(field)
        assert sorted(alpha.coords for alpha, in calls) == [e.coords for e in inv.indecomposables]


def test_tuple_decompose_returns_the_least_pair_of_the_element_loop():
    checked = splits = 0
    for field in SEARCH_FIELDS[::3]:
        points = window_points(field)
        for alpha in points + [x + y for x, y in zip(points, points[1:])]:
            got = decompose(alpha)
            want = _decompose_on_elements(alpha)
            assert got == want, alpha
            checked += 1
            splits += got is not None
    assert checked > 500 and splits > 300


def _slice_on_elements(alpha, t):
    """`_trace_slice` as it ran on order elements, one fresh region per call."""
    hits = [
        OrderElement(coords, alpha.field)
        for coords in region_points(*_trace_bounds(_trace_setup(alpha), t))
    ]
    return sorted(
        (g for g in hits if is_totally_positive_codiff(CodifferentElement(g))),
        key=lambda g: g.coords,
    )


ORACLE_SEARCH_FIELDS = (
    [make_field(Family.SIMPLEST_CUBIC, a) for a in (-1, 0, 1, 2, 4, 7)]
    + [make_field(Family.ENNOLA, a) for a in (3, 4, 5, 6)]
    + [make_field(Family.THOMAS, a) for a in (2, 3)]
)


def test_min_trace_with_one_set_up_equals_fresh_slices():
    checked = 0
    for field in ORACLE_SEARCH_FIELDS:
        for rec in inventory(field):
            alpha = rec.element
            want = None
            for t in range(1, 4):
                hits = _trace_slice(alpha, t, _trace_setup(alpha))
                assert hits == _slice_on_elements(alpha, t), (alpha, t)
                if hits:
                    want = (t, hits[0].coords)
                    break
            got = min_trace(alpha, t_max=3)
            assert (None if got is None else (got[0], got[1].numerator.coords)) == want, alpha
            checked += 1
    assert checked > 100


def _all_pairs_match(xs, ys):
    """`inventories_match` before the norm buckets: every pair tested."""
    return all(any(equal_mod_totally_positive_units(x, y) for y in ys) for x in xs) and all(
        any(equal_mod_totally_positive_units(x, y) for x in xs) for y in ys
    )


def test_norm_buckets_give_the_all_pairs_verdict():
    verdicts = set()
    for family, values in ((Family.THOMAS, range(2, 7)), (Family.ENNOLA, range(3, 7))):
        for a in values:
            f = make_field(family, a)
            found = list(indecomposables_by_search(f).indecomposables)
            closed = _closed_form(family, a)
            tp_unit = unit_generators(f).totally_positive[0]
            other = next(u for u in unit_generators(f).fundamental if not is_totally_positive(u))
            v1, v2, v3 = closed[-1].coords
            variants = [
                closed,
                closed + [mul(closed[0], tp_unit)],  # one orbit listed twice
                closed[:-1],
                closed[:-1] + [elem(f, v1 + 1, v2, v3)],
                closed[:-1] + [mul(closed[-1], other)],  # another orbit of the same ideal
                [],
            ]
            for xs in variants:
                for left, right in ((xs, found), (found, xs)):
                    verdict = inventories_match(left, right)
                    assert verdict == _all_pairs_match(left, right), (f, xs)
                    verdicts.add(verdict)
    assert verdicts == {True, False}
    f, g = make_field(Family.THOMAS, 4), make_field(Family.ENNOLA, 4)
    with pytest.raises(ZeroElement):
        inventories_match([elem(f, 0, 0, 0)], [one(f)])
    with pytest.raises(FieldMismatch):
        inventories_match([one(f)], [one(g)])


def test_dyadic_context_makes_no_rational_embedding(monkeypatch):
    """Work counter: `_dyadic` encloses f' and the dual basis from its integer rows."""
    embeds = []
    original = order_kernel.embed
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("indecomp") and getattr(mod, "embed", None) is original:
            monkeypatch.setattr(mod, "embed", _counting(original, embeds))
    # fields that no other test builds a context for, so that no cached context hides the work
    for field in (make_field(Family.THOMAS, 211), make_quad_field(1013)):
        contexts = [_dyadic(field, r) for r in range(4)]
        assert any(ctx is not None for ctx in contexts), field
    assert embeds == []


# ---------------------------------------------------------------------------
# The symmetric trace rule against the two rules it replaced


def _reference_context(field, el, positive):
    """The refinement of the two-list `_context`: until f' is sign-definite
    and el has positive (or else sign-definite) enclosures."""
    for rounds in range(REFINEMENT_CAP + 1):
        ctx = _dyadic(field, rounds)
        if ctx is None:
            continue
        ivs = [interval_dot(row, el.coords) for row in ctx.rows]
        if all(lo > 0 if positive else lo > 0 or hi < 0 for lo, hi in ivs):
            return ctx, ivs
    raise AssertionError("no context")


def _reference_slice(alpha, t):
    """0 < sigma_i(gamma/f') < t / sigma_i(alpha), with gamma of the sign of f'."""
    ctx, ivs = _reference_context(alpha.field, alpha, positive=True)
    bounds = []
    for (alo, _), (flo, fhi) in zip(ivs, ctx.fprime):
        if flo > 0:
            bounds.append((0, -(-(t * fhi << ctx.k) // alo)))
        else:
            bounds.append(((t * flo << ctx.k) // alo, 0))
    return ctx.k, bounds, (dual_pairing_vector(alpha.field, alpha), t)


def _reference_window(field, t):
    """0 < sigma_i(alpha) < t / sigma_i(delta), by the ratio max|f'_i| / min|gamma_i|."""
    delta = certificate_delta(field)
    ctx, ivs = _reference_context(field, delta.numerator, positive=False)
    ratios = [
        (max(-flo, fhi), min(abs(glo), abs(ghi)))
        for (glo, ghi), (flo, fhi) in zip(ivs, ctx.fprime)
    ]
    bounds = [(0, -(-(t * f << ctx.k) // g)) for f, g in ratios]
    return ctx.k, bounds, (pairing_vector(delta), t)


def _region_key(w, t):
    ctx, bounds, equality = _trace_bounds(_trace_setup(w), t)
    return ctx.k, bounds, equality


WINDOW_FIELDS = [make_field(Family.SIMPLEST_CUBIC, a) for a in range(-1, 13)] + [
    make_field(Family.ENNOLA, a) for a in range(3, 11)
]


@pytest.mark.parametrize("field", WINDOW_FIELDS, ids=lambda f: f"{f.family.value}-{f.a}")
def test_trace_region_of_the_certificate_is_the_window_ratio_rule(field):
    gamma = certificate_delta(field).numerator
    for t in range(1, 7):
        assert _region_key(gamma, t) == _reference_window(field, t), t


def _slice_elements():
    fields = (
        [make_field(Family.SIMPLEST_CUBIC, a) for a in range(-1, 9)]
        + [make_field(Family.ENNOLA, a) for a in range(3, 9)]
        + [make_field(Family.THOMAS, a) for a in range(2, 9)]
    )
    for field in fields:
        yield from (rec.element for rec in inventory(field) if rec.kind != "unit")
    for D in QUADRATIC_D_SET:
        yield from window_points(make_quad_field(D))


def test_trace_region_of_a_totally_positive_element_is_the_slice_rule():
    checked = 0
    for alpha in _slice_elements():
        for t in range(1, 4):
            assert _region_key(alpha, t) == _reference_slice(alpha, t), (alpha, t)
            checked += 1
    assert checked > 300


def test_window_elements_refuse_a_delta_that_is_not_totally_positive(monkeypatch):
    """A certificate with a negative conjugate gives a bound below 0."""
    import indecomp.forms as forms

    field = make_field(Family.SIMPLEST_CUBIC, 1)
    fake = CodifferentElement(elem(field, 1, 0, 0))  # 1/f' has conjugates of both signs
    monkeypatch.setattr(forms, "certificate_delta", lambda f: fake)
    with pytest.raises(ConsistencyError):
        forms._window_elements(field, 1)


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_oracle_reads_the_embedding_context():
    """The 2^k context format is private to `oracle`: no other module calls
    `_context` or `_dyadic`, or reads .k, .fprime or .dual of a context
    (a name bound from `_context`, `_dyadic`, `_trace_setup`, `_trace_bounds`
    or `_square_root_region`)."""
    import indecomp

    factories = {"_context", "_dyadic", "_trace_setup", "_trace_bounds", "_square_root_region"}
    modules = sorted(Path(indecomp.__file__).parent.glob("*.py"))
    assert "forms" in {m.stem for m in modules}
    for module in modules:
        if module.stem == "oracle":
            continue
        nodes = list(ast.walk(ast.parse(module.read_text())))
        calls = [n.lineno for n in nodes if isinstance(n, ast.Call) and _called(n) in {"_context", "_dyadic"}]
        contexts = set()
        for n in nodes:
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) and _called(n.value) in factories:
                for target in n.targets:
                    first = target.elts[0] if isinstance(target, ast.Tuple) else target
                    if isinstance(first, ast.Name):
                        contexts.add(first.id)
        reads = [
            n.lineno for n in nodes
            if isinstance(n, ast.Attribute)
            and (n.attr in {"fprime", "dual"} or n.attr == "k" and getattr(n.value, "id", None) in contexts)
        ]
        assert (calls, reads) == ([], []), module.name


def test_function_level_imports_are_the_two_deliberate_ones():
    """Imports belong at module level.  Two stay inside a function: `families`
    takes `quadratic` there, which breaks the oracle-families-quadratic import
    cycle, and `sq-table` loads the process pool only when it uses one."""
    import indecomp

    found = []
    for module in sorted(Path(indecomp.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(module.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    (module.stem, fn.name, node.module if isinstance(node, ast.ImportFrom)
                     else node.names[0].name)
                    for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == [
        ("cli", "cmd_sq_table", "concurrent.futures"),
        ("families", "standard_parallelepipeds", "quadratic"),
    ]


def test_every_module_level_import_is_used():
    """No module of the package imports a name it never reads.  `__init__`
    re-exports what it imports, and `norms` keeps `mul`, which
    perfbench/tests/selfcheck.py reads there to check that tracing rebinds it."""
    import indecomp

    unused = []
    for module in sorted(Path(indecomp.__file__).parent.glob("*.py")):
        if module.stem == "__init__":
            continue
        tree = ast.parse(module.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((module.stem, name))
    assert unused == [("norms", "mul")]


CLOSED_FORMS = {
    "indecomposables_simplest",
    "indecomposables_ennola",
    "indecomposables_thomas",
    "inventory",
    "certificate_delta",
}


def test_oracle_refers_to_no_closed_form():
    """The oracle checks the closed forms, so none of its steps may lean on
    one: `oracle` names no closed form, as an import, a name or an attribute."""
    import indecomp

    tree = ast.parse((Path(indecomp.__file__).parent / "oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert {"decompose", "window_points", "coords_totally_positive"} <= names
    assert names.isdisjoint(CLOSED_FORMS), names & CLOSED_FORMS


@pytest.mark.parametrize("name", ["families", "codifferent"])
def test_closed_forms_import_nothing_from_oracle(name):
    """A closed form must not call the oracle it is checked against: neither
    module imports from `oracle`, at module level or inside a function."""
    import indecomp

    tree = ast.parse((Path(indecomp.__file__).parent / f"{name}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            imported += (node.module or "").split(".") + [alias.name for alias in node.names]
    assert "codifferent" in imported or "order_kernel" in imported
    assert "oracle" not in imported
