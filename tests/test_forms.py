"""Minimal-vector table, diagonal universal forms, rank bounds, descent."""

import gc
import itertools
import operator
from fractions import Fraction
from unittest import mock

import pytest

from indecomp import forms
from indecomp.errors import GuardExceeded, IllegalRank, UnsupportedFamily
from indecomp.families import indecomposables_simplest
from indecomp.codifferent import certificate_delta, fprime_element, pairing_vector, trace_pairing
from indecomp.forms import (
    _kind_priority,
    _square_root_region,
    _unit_pairing,
    _unit_power,
    _window_elements,
    decompose_into_indecomposables,
    diagonal_universal,
    minimal_vector_bound,
    rank_report,
    sum_of_squares_witness,
    tp_unit_square_classes,
    unit_square_root,
    verify_universality_window,
)
from indecomp.oracle import region_points, search_box
from indecomp.order_kernel import (
    Family,
    OrderElement,
    elem,
    embed,
    is_totally_positive,
    make_field,
    mul,
    one,
    refine_roots,
    unit_generators,
)
from indecomp.quadratic import make_quad_field


def test_minimal_vector_table():
    table = {1: 1, 2: 3, 3: 6, 4: 12, 5: 20, 6: 36, 7: 63, 8: 120}
    for r, v in table.items():
        assert minimal_vector_bound(r) == v
    for r in (16, 17, 18, 40):
        assert minimal_vector_bound(r) == r * (r - 1)
    with pytest.raises(IllegalRank):
        minimal_vector_bound(0)


def test_minimal_vector_middle_ranks():
    # implementation-derived: E8 + best(R-8) up to rank 12, D_R beyond
    assert [minimal_vector_bound(r) for r in range(9, 16)] == [
        121, 123, 126, 132, 156, 182, 210,
    ]


def test_minimal_vector_quadratic_bound():
    for r in range(1, 65):
        assert minimal_vector_bound(r) < 2 * r * r


def test_diagonal_universal_ranks():
    for a in (1, 7, 10):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        form = diagonal_universal(f)
        assert form.rank == 3 * (a * a + 3 * a + 6)
        assert all(is_totally_positive(c) for c in form.coefficients)
    assert diagonal_universal(make_field(Family.SIMPLEST_CUBIC, 7)).rank == 228
    for a in (3, 5):
        assert diagonal_universal(make_field(Family.ENNOLA, a)).rank == 12 * a
    for a in (2, 3):
        assert diagonal_universal(make_field(Family.THOMAS, a)).rank == 12 * (2 * a + 1)


def test_unit_square_classes():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert len(tp_unit_square_classes(f)) == 1
    # both totally positive generators are squares of units
    for eps in unit_generators(f).totally_positive:
        root = unit_square_root(eps)
        assert root is not None and mul(root, root) == eps
    fe = make_field(Family.ENNOLA, 3)
    assert len(tp_unit_square_classes(fe)) == 2
    assert unit_square_root(unit_generators(fe).totally_positive[1]) is None
    ft = make_field(Family.THOMAS, 3)
    assert len(tp_unit_square_classes(ft)) == 2
    assert unit_square_root(unit_generators(ft).totally_positive[0]) is None


def test_rank_report_simplest():
    rep = rank_report(make_field(Family.SIMPLEST_CUBIC, 7))
    assert rep.upper_diag == 228
    assert rep.lower_classical == 13
    assert rep.n == 39 and rep.m == 1 and rep.s_count == 38
    assert rep.lower_diag == 1
    assert rep.lower_nonclassical_exact == "sqrt(39)/(3*sqrt(2))"


def test_rank_report_branch_switch():
    for a in range(3, 41):
        rep = rank_report(make_field(Family.SIMPLEST_CUBIC, a))
        n = (a * a + 3 * a + 8) // 2
        assert (rep.lower_nonclassical_exact == f"sqrt({n})/3") == (n >= 240) == (a >= 21)
        # rounded-up integer bound is consistent with the branch
        k = rep.lower_nonclassical
        mult = 9 if n >= 240 else 18
        assert mult * k * k >= n > mult * (k - 1) * (k - 1)


def test_rank_report_no_ternary_classical():
    for a in range(3, 40):
        assert rank_report(make_field(Family.SIMPLEST_CUBIC, a)).lower_classical >= 4


def test_rank_report_ennola_thomas():
    rep = rank_report(make_field(Family.ENNOLA, 7))
    assert rep.upper_diag == 84 and rep.m == 6 and rep.lower_diag == 1
    rep = rank_report(make_field(Family.THOMAS, 3))
    assert rep.upper_diag == 84 and rep.m == 3 and rep.lower_diag == 1


def test_rank_ratio_approaches_eighteen():
    """upper/lower -> 18: exact rational comparison of the formula ratio."""
    for a in (100, 1000):
        rep = rank_report(make_field(Family.SIMPLEST_CUBIC, a))
        exact = Fraction(3 * (a * a + 3 * a + 6)) / Fraction(a * a + 3 * a + 8, 6)
        assert exact == Fraction(18 * (a * a + 3 * a + 6), a * a + 3 * a + 8)
        assert Fraction(179, 10) < exact < 18
        assert abs(rep.upper_diag / rep.lower_classical - 18) < Fraction(1, 100)


def test_descent_singletons_and_two():
    f = make_field(Family.SIMPLEST_CUBIC, 1)
    parts = decompose_into_indecomposables(elem(f, 2, 0, 0))
    assert [(r.kind, u.coords) for r, u in parts] == [("unit", (1, 0, 0))] * 2
    for rec in indecomposables_simplest(1):
        parts = decompose_into_indecomposables(rec.element)
        assert len(parts) == 1
        assert parts[0][0].element == rec.element and parts[0][1] == one(f)


def test_descent_reassembles():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    al = elem(f, 3, 4, 2)  # nearest totally positive sample to 3 + 5 rho + 2 rho^2
    assert is_totally_positive(al)
    parts = decompose_into_indecomposables(al)
    total = elem(f, 0, 0, 0)
    for rec, unit in parts:
        total = total + mul(unit, rec.element)
        assert is_totally_positive(mul(unit, rec.element))
    assert total == al


@pytest.mark.parametrize("a", [1, 2, 4])
def test_descent_pairs_each_unit_once(a):
    """c_u . coords(e) is the certificate trace Tr(delta * u * e) of every part u * e."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    delta = certificate_delta(field)
    for j, k in itertools.product(range(-2, 3), repeat=2):
        c, unit = _unit_pairing(delta, j, k), _unit_power(field, j, k)
        for rec in indecomposables_simplest(a):
            phi = sum(u * v for u, v in zip(c, rec.element.coords))
            assert phi == trace_pairing(delta, mul(unit, rec.element)), (j, k, rec)


def test_descent_guards():
    from indecomp.errors import IllegalParameter

    with pytest.raises(UnsupportedFamily):
        decompose_into_indecomposables(one(make_field(Family.ENNOLA, 3)))
    with pytest.raises(IllegalParameter):
        decompose_into_indecomposables(
            one(make_field(Family.SIMPLEST_CUBIC, 5))
        )  # a = 5 is not certified


def test_sum_of_squares_witness():
    f = make_field(Family.SIMPLEST_CUBIC, 1)
    w = sum_of_squares_witness(elem(f, 6, 0, 0))
    assert w is not None and len(w) <= 6
    total = elem(f, 0, 0, 0)
    for x in w:
        total = total + mul(x, x)
    assert total == elem(f, 6, 0, 0)
    assert sum_of_squares_witness(elem(f, 0, 0, 0)) == []


def test_sum_of_squares_witness_guards_a_deep_target():
    """(16000, 0, 0) at a = 1 searched for over 60 s; it is refused before any
    region search, while (1000, 0, 0) stays below the guard and is answered."""
    f = make_field(Family.SIMPLEST_CUBIC, 1)
    with mock.patch.object(forms, "region_points") as search:
        with pytest.raises(GuardExceeded, match="square-root region"):
            sum_of_squares_witness(elem(f, 16000, 0, 0))
    search.assert_not_called()
    w = sum_of_squares_witness(elem(f, 1000, 0, 0))
    assert w is not None and len(w) <= 6
    assert sum((mul(x, x) for x in w), elem(f, 0, 0, 0)) == elem(f, 1000, 0, 0)


def test_sum_of_squares_witness_leaves_no_cyclic_garbage():
    """The depth-first search keeps no self-referencing closures alive."""
    f = make_field(Family.SIMPLEST_CUBIC, 2)
    beta = elem(f, 7, 1, 1)
    want = sum_of_squares_witness(beta)  # warms the field's caches
    forms._witness_cache.clear()  # so that the checked call searches
    gc.collect()
    gc.disable()
    try:
        assert sum_of_squares_witness(beta) == want
        assert gc.collect() == 0
    finally:
        gc.enable()


def _squares_reference(target, budget, memo):
    """The per-call-memo search: up to `budget` elements whose squares sum to
    target, or None; memo maps (coords, budget) to the answer."""
    if target.is_zero():
        return []
    if budget == 0:
        return None
    key = (target.coords, budget)
    if key in memo:
        return memo[key]
    result = None
    for coords in region_points(*_square_root_region(target)):
        if coords <= (0, 0, 0):
            continue
        x = OrderElement(coords, target.field)
        rest = target - mul(x, x)
        if rest.is_zero() or is_totally_positive(rest):
            tail = _squares_reference(rest, budget - 1, memo)
            if tail is not None:
                result = [x] + tail
                break
    memo[key] = result
    return result


def _find_part_reference(alpha, records, delta):
    """The descent step that ranks each ring's candidates afresh on every call."""
    field = alpha.field
    phi_alpha = trace_pairing(delta, alpha)
    for radius in range(0, forms._DESCENT_RADIUS_CAP + 1):
        candidates = []
        for j in range(-radius, radius + 1):
            for k in range(-radius, radius + 1):
                if max(abs(j), abs(k)) != radius:
                    continue
                c = _unit_pairing(delta, j, k)
                for idx, rec in enumerate(records):
                    phi = sum(map(operator.mul, c, rec.element.coords))
                    if 1 <= phi <= phi_alpha:
                        candidates.append((_kind_priority(rec.kind), -phi, idx, j, k, rec))
        candidates.sort(key=lambda c: c[:5])
        for _, _, _, j, k, rec in candidates:
            unit = _unit_power(field, j, k)
            term = mul(unit, rec.element)
            rest = alpha - term
            if rest.is_zero() or is_totally_positive(rest):
                return rec, unit, term
    return None


@pytest.mark.parametrize("a, bound", [(1, 4), (2, 2)])
def test_cached_descent_and_witnesses_match_the_references(a, bound):
    """Over a benchmark window, the ranked-parts descent gives the same parts
    and the cached search the same witnesses as the per-call references."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    records = indecomposables_simplest(a)
    elements = _window_elements(field, bound)
    assert elements
    for alpha in elements:
        assert sum_of_squares_witness(alpha) == _squares_reference(alpha, 6, {}), alpha
    parts = [decompose_into_indecomposables(alpha) for alpha in elements]

    delta = certificate_delta(field)

    def reference(field, alpha, c):
        assert c == pairing_vector(delta)
        return _find_part_reference(OrderElement(alpha, field), records, delta)

    with mock.patch.object(forms, "_find_part", reference):
        assert parts == [decompose_into_indecomposables(alpha) for alpha in elements]


def test_witness_lists_are_fresh_copies():
    """Mutating a returned witness leaves the cached answer intact."""
    beta = elem(make_field(Family.SIMPLEST_CUBIC, 2), 7, 1, 1)
    want = sum_of_squares_witness(beta)
    got = sum_of_squares_witness(beta)
    assert got == want and got is not want
    got.clear()
    assert sum_of_squares_witness(beta) == want and want


def _clear_forms_caches():
    """Empty every per-process cache of `forms`: its `lru_cache`d functions
    and the witness answers."""
    forms._witness_cache.clear()
    for value in vars(forms).values():
        if hasattr(value, "cache_clear") and value.__module__ == forms.__name__:
            value.cache_clear()


def test_a_window_searches_each_square_root_region_once():
    """Work counter: with the square-root and witness searches cached per
    process and remainders inheriting their parent's candidates, a cold
    window at a = 2, bound 4 encloses at most 45 square-root regions (1,530
    with a fresh search per call, 63 with one per remainder), and searches
    each distinct unit for a square root once."""
    _clear_forms_caches()
    regions, units = [], set()
    region, root = forms._square_root_region, forms.unit_square_root

    def counting_region(target):
        regions.append(target)
        return region(target)

    def counting_root(eps):
        units.add(eps)
        return root(eps)

    with mock.patch.object(forms, "_square_root_region", counting_region), \
            mock.patch.object(forms, "unit_square_root", counting_root):
        report = verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 2), 4)
    assert report.checked > 0 and not report.failures
    assert 0 < len(regions) <= 45, len(regions)
    assert root.cache_info().misses == len(units) > 1


def test_only_top_level_targets_search_a_square_root_region():
    """Work counter: in a cold window every square-root region is enclosed
    for the argument of the innermost `sum_of_squares_witness` or
    `unit_square_root` call in progress, never for a remainder inside the
    witness descent."""
    _clear_forms_caches()
    active, regions, remainders = [], [], []
    region = forms._square_root_region

    def counting_region(target):
        regions.append(target)
        if target != active[-1]:
            remainders.append((active[-1], target))
        return region(target)

    def top_level(search):
        def wrapped(target):
            active.append(target)
            try:
                return search(target)
            finally:
                active.pop()
        return wrapped

    with mock.patch.object(forms, "_square_root_region", counting_region), \
            mock.patch.object(forms, "unit_square_root", top_level(forms.unit_square_root)), \
            mock.patch.object(forms, "sum_of_squares_witness",
                              top_level(forms.sum_of_squares_witness)):
        report = verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 2), 4)
    assert report.checked > 0 and not report.failures
    assert regions and not active and remainders == [], remainders[:3]


def test_a_warm_descent_step_multiplies_nothing():
    """Work counter: `_ranked_parts` carries each candidate's unit and term,
    and the remainder is a coordinate tuple, so once a field's rings are
    ranked `_find_part` calls `mul` 0 times and builds no element."""
    field = make_field(Family.SIMPLEST_CUBIC, 2)
    c = pairing_vector(certificate_delta(field))
    elements = _window_elements(field, 4)
    want = [forms._find_part(field, alpha.coords, c) for alpha in elements]  # warm
    calls, built = [], []

    def counting_mul(x, y):
        calls.append((x, y))
        return mul(x, y)

    def counting_element(coords, field):
        built.append(coords)
        return OrderElement(coords, field)

    with mock.patch.object(forms, "mul", counting_mul), \
            mock.patch.object(forms, "OrderElement", counting_element):
        assert [forms._find_part(field, alpha.coords, c) for alpha in elements] == want
    assert all(hit is not None for hit in want)
    assert calls == [] and built == []


def _benchmark_witness_targets():
    """Every distinct sum of one or two squares of nonzero x in {-1, 0, 1}^3
    at simplest a in {1, 2}, and every single such square at a in {4, 7, 8}."""
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=3) if v > (0, 0, 0)]
    targets = set()
    for a in (1, 2, 4, 7, 8):
        field = make_field(Family.SIMPLEST_CUBIC, a)
        squares = [mul(x, x) for x in (OrderElement(v, field) for v in vectors)]
        targets.update(squares)
        if a <= 2:
            targets.update(p + q for p, q in itertools.combinations_with_replacement(squares, 2))
    return sorted(targets, key=lambda e: (e.field.a, e.coords))


def test_inherited_witnesses_match_the_region_search_reference():
    """From cold caches, the candidate-inheriting search returns the same
    first witness as the search that encloses a region per remainder, over
    the benchmark's witness set and one deep target."""
    _clear_forms_caches()
    targets = _benchmark_witness_targets()
    assert len(targets) == 247
    targets.append(elem(make_field(Family.SIMPLEST_CUBIC, 8), 100, 0, 0))
    for beta in targets:
        assert sum_of_squares_witness(beta) == _squares_reference(beta, 6, {}), beta


def test_each_witness_call_tests_positivity_once():
    """Work counter: from cold caches, every `sum_of_squares_witness` call
    over the benchmark's 247 witness targets makes exactly one
    `is_totally_positive` call, its entry check; the search itself decides
    positivity on coordinates with `coords_totally_positive`."""
    _clear_forms_caches()
    targets = _benchmark_witness_targets()
    assert len(targets) == 247
    calls, leaves = [], []
    positive, predicate = forms.is_totally_positive, forms.coords_totally_positive

    def counting(z):
        calls.append(z)
        return positive(z)

    def counting_predicate(coords, minpoly):
        leaves.append(coords)
        return predicate(coords, minpoly)

    with mock.patch.object(forms, "is_totally_positive", counting), \
            mock.patch.object(forms, "coords_totally_positive", counting_predicate):
        for beta in targets:
            calls.clear()
            assert sum_of_squares_witness(beta) is not None, beta
            assert calls == [beta], beta
    assert leaves


def test_a_budget_one_leaf_tests_no_positivity():
    """Work counter: a budget-1 remainder target - x^2 is a square exactly
    when some candidate y of target has target - y^2 == x^2, so a budget-2
    search over a ready candidate list makes 0 `coords_totally_positive`
    calls, and finds the reference's first witness, or none."""
    _clear_forms_caches()
    field = make_field(Family.SIMPLEST_CUBIC, 2)
    x, y = elem(field, 1, 1, 0), elem(field, 2, -1, 1)
    targets = [mul(x, x) + mul(y, y), mul(x, x) + 4, elem(field, 7, 0, 0), elem(field, 8, 0, 0)]
    calls = []
    predicate = forms.coords_totally_positive

    def counting(coords, minpoly):
        calls.append(coords)
        return predicate(coords, minpoly)

    answers = []
    for beta in targets:
        candidates = tuple(forms._square_candidates(beta))
        with mock.patch.object(forms, "coords_totally_positive", counting):
            got = forms._squares_summing_to(field, beta.coords, 2, candidates)
        want = _squares_reference(beta, 2, {})
        assert got == (None if want is None else tuple(w.coords for w in want)), beta
        answers.append(got)
    assert calls == []
    assert None in answers and any(answers)


def test_witnesses_over_a_quadratic_field_and_ennola():
    """The search is degree-generic: over Q(sqrt 2), 5 + sqrt 2 >> 0 has no
    witness, as every square (x + y sqrt 2)^2 has the even sqrt 2 coordinate
    2xy, and 3 + 2 sqrt 2 = (1 + sqrt 2)^2 has one; Ennola a = 3 keeps its
    three-square witness of 7 + rho + rho^2."""
    field = make_quad_field(2)
    assert sum_of_squares_witness(OrderElement((5, 1), field)) is None
    beta = OrderElement((3, 2), field)
    w = sum_of_squares_witness(beta)
    assert w and sum((mul(x, x) for x in w), OrderElement((0, 0), field)) == beta
    assert w == _squares_reference(beta, 6, {})
    ennola = make_field(Family.ENNOLA, 3)
    w = sum_of_squares_witness(elem(ennola, 7, 1, 1))
    assert [x.coords for x in w] == [(0, 1, 0), (1, 1, 0), (2, -2, -1)]


def test_universality_window_small():
    rep = verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 1), 3)
    assert rep.failures == () and rep.checked > 0


def test_universality_window_guards():
    with pytest.raises(GuardExceeded):
        verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 9), 4)
    with pytest.raises(GuardExceeded):
        verify_universality_window(make_field(Family.SIMPLEST_CUBIC, 1), 7)


@pytest.mark.parametrize("a", [-1, 0, 1, 2, 4])
def test_window_elements_equal_a_full_scan_of_an_exact_box(a):
    """Every x >> 0 with Tr(delta x) <= 3 lies in the box of 0 < sigma_i(x) < 3/sigma_i(delta)."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    delta = certificate_delta(field)
    for rounds in range(20):
        r = refine_roots(field, rounds)
        gs, fs = embed(delta.numerator, r), embed(fprime_element(field), r)
        if all(iv.lo > 0 or iv.hi < 0 for iv in gs + fs):
            break
    # the least sigma_i(delta) = sigma_i(gamma)/sigma_i(f') allowed by the enclosures
    least = [min(u / v for u in (g.lo, g.hi) for v in (f.lo, f.hi)) for g, f in zip(gs, fs)]
    box = search_box(field, [(0, Fraction(3) / q) for q in least])
    c = pairing_vector(delta)
    full = [
        x for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
        if any(x) and 1 <= sum(u * v for u, v in zip(c, x)) <= 3
        and is_totally_positive(OrderElement(x, field))
    ]
    assert [el.coords for el in _window_elements(field, 3)] == full
