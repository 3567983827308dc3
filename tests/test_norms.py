"""Norm counting: fast pairs, HNF ideals, brute force, squarefree table rows."""

import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indecomp import families, hnf, integers, norms, order_kernel, verify
from indecomp.errors import (
    BoundTooLarge,
    ConsistencyError,
    GuardExceeded,
    IllegalParameter,
    ZeroElement,
)
from indecomp.families import TrianglePoint, fundamental_triangle, indecomposables_simplest
from indecomp.integers import is_squarefree
from indecomp.norms import (
    count_bruteforce,
    count_exact,
    count_fast,
    ideal_hnf,
    max_norm_indecomposable,
    sq_count,
    sum_ideal_rows,
    sum_norm,
)
from indecomp.order_kernel import (
    Family,
    conjugate,
    elem,
    make_field,
    mul,
    norm,
    one,
    unit_generators,
)

RNG = random.Random(77007)


def test_sum_norm_closed_form():
    for a in (3, 7, 50):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert sum_norm(a, 1, 0) == 1
        assert sum_norm(a, 1, 1) == 2 * a + 3
        for w in range(0, 12):
            assert sum_norm(a, 1, w) == -w**3 + a * w * w + (a + 3) * w + 1
        for _ in range(100):
            k, w = RNG.randint(1, 9), RNG.randint(0, 30)
            assert sum_norm(a, k, w) == norm(elem(f, 0, -w, k))


def test_count_fast_thresholds():
    a = 7
    assert count_fast(a, 2 * a + 2) == ()
    assert count_fast(a, 2 * a + 3) == ((1, 1),)
    assert count_fast(a, 1) == ()
    assert count_fast(a, 1, include_unit=True) == ((1, 0),)
    with pytest.raises(BoundTooLarge):
        count_fast(a, a * a + 1)


@pytest.mark.parametrize("a", [3, 5, 7, 10, 16, 30])
def test_lemmermeyer_petho_norm_gap(a):
    """No primitive principal ideal has norm in [2, 2a + 2] (Lemmermeyer and
    Petho, Math. Comp. 64, 1995), and at 2a + 3 there are exactly three: the
    ideal of rho^2 - rho and its two conjugates.  The closed-form count and
    the brute force agree on both sides of the gap."""
    assert count_exact(a, 2 * a + 2) == count_bruteforce(a, 2 * a + 2) == 0
    assert count_exact(a, 2 * a + 3) == count_bruteforce(a, 2 * a + 3) == 3


def test_verify_flags_a_missing_norm_gap(monkeypatch):
    """`verify`'s count-ground-truth check fails when the closed-form count
    and the brute force agree but show no gap below norm 2a + 3."""
    def shifted(a, X):
        return 0 if X < 2 * a + 2 else 3

    monkeypatch.setattr(norms, "count_exact", shifted)
    monkeypatch.setattr(norms, "count_bruteforce", shifted)
    result = verify.check_count_ground_truth()
    assert not result.passed and "norm gap" in result.details


def test_count_fast_pairs_are_primitive_tp():
    from indecomp.order_kernel import is_totally_positive
    import math

    for a in (7, 50):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        for k, w in count_fast(a, a * a):
            assert math.gcd(k, w) == 1
            el = elem(f, 0, -w, k)
            assert is_totally_positive(el)
            assert 1 <= norm(el) <= a * a
            assert a * k * k * w < a * a and a * k * w * w < a * a


def test_ideal_hnf_basics():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert ideal_hnf(one(f)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    beta = elem(f, 0, -1, 1)
    for eps in unit_generators(f).totally_positive + unit_generators(f).fundamental:
        assert ideal_hnf(beta) == ideal_hnf(mul(beta, eps))
    assert ideal_hnf(beta) != ideal_hnf(conjugate(beta))
    assert ideal_hnf(beta).det == abs(norm(beta)) == 17
    with pytest.raises(ZeroElement):
        ideal_hnf(elem(f, 0, 0, 0))
    for _ in range(100):
        x = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9), RNG.randint(-9, 9))
        if x.is_zero():
            continue
        h = ideal_hnf(x)
        assert h.det == abs(norm(x))
        assert h.rows[0][1] == h.rows[0][2] == h.rows[1][2] == 0


def test_count_exact_spot_values():
    assert count_exact(7, 1) == 0
    assert count_exact(7, 1, include_unit=True) == 1
    assert count_exact(7, 17) == 3  # the norm-17 ideal and its two conjugates
    assert count_exact(7, 16) == 0


def _hnf_rows_of_sum_and_conjugates(field, k, w):
    beta = elem(field, 0, -w, k)
    return tuple(ideal_hnf(x).rows for x in (beta, conjugate(beta, 1), conjugate(beta, 2)))


def test_sum_ideal_rows_equal_the_hnf_of_every_count_fast_candidate():
    for a in range(1, 61):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        for k, w in count_fast(a, a * a, include_unit=True):
            assert sum_ideal_rows(f, k, w) == _hnf_rows_of_sum_and_conjugates(f, k, w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=-1, max_value=400),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=400),
)
def test_sum_ideal_rows_equal_the_hnf_outside_the_fast_cuts(a, k, w):
    """Any coprime (k, w), totally positive or not, within the cuts or not."""
    assume(math.gcd(k, w) == 1)
    f = make_field(Family.SIMPLEST_CUBIC, a)
    assert sum_ideal_rows(f, k, w) == _hnf_rows_of_sum_and_conjugates(f, k, w)


def test_sum_ideal_rows_rejects_imprimitive_and_negative_input():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    for k, w in ((2, 4), (3, 3), (0, 1), (1, -1)):
        with pytest.raises(IllegalParameter):
            sum_ideal_rows(f, k, w)


def test_count_exact_certificate_is_live(monkeypatch):
    """A wrong norm or a wrong residue raises instead of miscounting."""
    assert count_exact(40, 1600) == 3 * len(count_fast(40, 1600))
    with monkeypatch.context() as m:
        m.setattr(norms, "sum_norm", lambda a, k, w: sum_norm(a, k, w) + 1)
        with pytest.raises(ConsistencyError):
            count_exact(40, 1600)
    residue = norms._sum_residue
    with monkeypatch.context() as m:
        m.setattr(norms, "_sum_residue", lambda n, k, w: (residue(n, k, w) + 1) % n)
        with pytest.raises(ConsistencyError):
            count_exact(40, 1600)


def test_count_exact_builds_no_hnf_and_no_conjugate(monkeypatch):
    hnfs = _wrap_everywhere(monkeypatch, norms, "ideal_hnf")
    rows = _wrap_everywhere(monkeypatch, hnf, "row_hnf_lower")
    conjugates = _wrap_everywhere(monkeypatch, order_kernel, "conjugate")
    assert count_exact(40, 1600) > 0
    assert (hnfs, rows, conjugates) == ([], [], [])


def test_count_exact_isolates_no_roots(monkeypatch):
    """Work counter: the Galois placement on a new field is exact, so
    count_exact isolates and refines no root interval."""
    isolations = _wrap_everywhere(monkeypatch, order_kernel, "isolate_roots")
    refinements = _wrap_everywhere(monkeypatch, order_kernel, "refine_roots")
    misses = order_kernel.galois_conjugation_matrix.cache_info().misses
    assert count_exact(1013, 1013 * 1013 // 2) > 0  # a field no other test builds
    assert order_kernel.galois_conjugation_matrix.cache_info().misses == misses + 1
    assert (isolations, refinements) == ([], [])


def _count_fast_by_elements(a, X, include_unit=False):
    """The element-based count_fast loop: sym_funcs on each candidate element."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    pairs = [(1, 0)] if include_unit else []
    k = 1
    while a * k * k < X:
        for w in range(1, (X - 1) // (a * k * k) + 1):
            if a * k * w * w >= X:
                break
            if math.gcd(k, w) != 1:
                continue
            n = sum_norm(a, k, w)
            if not 1 <= n <= X:
                continue
            e1, e2, e3 = order_kernel.sym_funcs(elem(field, 0, -w, k))
            assert e3 == n
            if e1 > 0 and e2 > 0:
                pairs.append((k, w))
        k += 1
    return pairs


def _count_exact_by_rows(a, X, include_unit=False):
    """The row-keyed count_exact: the HNF rows of every candidate and its conjugates."""
    field = make_field(Family.SIMPLEST_CUBIC, a)
    seen = set()
    for k, w in _count_fast_by_elements(a, X, include_unit):
        seen.update(sum_ideal_rows(field, k, w))
    return len(seen)


def _count_grid():
    for a in range(1, 13):
        for X in range(1, a * a + 1):
            yield a, X
    for a in (50, 137, 400):
        for X in sorted({1, 2 * a + 2, 2 * a + 3, *(1 + j * a * a // 16 for j in range(17))}):
            yield a, min(X, a * a)


@pytest.mark.parametrize("include_unit", [False, True])
def test_counts_equal_the_element_and_row_references(include_unit):
    for a, X in _count_grid():
        assert count_fast(a, X, include_unit) == tuple(_count_fast_by_elements(a, X, include_unit)), (a, X)
        assert count_exact(a, X, include_unit) == _count_exact_by_rows(a, X, include_unit), (a, X)


def _norm_passing(a, X):
    """(k, w) within the cuts, coprime, with 1 <= sum_norm <= X."""
    return [(k, w) for k in range(1, math.isqrt(X // a) + 2) for w in range(1, X // a + 2)
            if a * k * k * w < X and a * k * w * w < X
            and math.gcd(k, w) == 1 and 1 <= sum_norm(a, k, w) <= X]


@pytest.mark.parametrize("count", [count_fast, count_exact])
def test_counts_build_no_element_and_call_the_kernel_once_per_candidate(count, monkeypatch):
    """Work counter: one `cubic_sym_funcs` call per candidate that passes the
    norm cut, and no `sym_funcs` or `elem` call and no element built."""
    a, X = 40, 1600
    count(a, X, include_unit=True)  # the field and its conjugation are cached
    kernel = _wrap_everywhere(monkeypatch, order_kernel, "cubic_sym_funcs")
    sym = _wrap_everywhere(monkeypatch, order_kernel, "sym_funcs")
    elems = _wrap_everywhere(monkeypatch, order_kernel, "elem")
    built = []
    init = order_kernel.OrderElement.__init__
    monkeypatch.setattr(order_kernel.OrderElement, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    count(a, X, include_unit=True)
    assert [(k, -w) for _, w, k, _ in kernel] == _norm_passing(a, X)
    assert (sym, elems, built) == ([], [], [])
    assert not hasattr(norms, "_sum_element")


@pytest.mark.parametrize("count", [count_fast, count_exact])
def test_a_tampered_kernel_norm_raises(count, monkeypatch):
    kernel = order_kernel.cubic_sym_funcs

    def tampered(*args):
        e1, e2, e3 = kernel(*args)
        return e1, e2, e3 + 1

    monkeypatch.setattr(norms, "cubic_sym_funcs", tampered)
    with pytest.raises(ConsistencyError):
        count(40, 1600)


def test_the_total_positivity_filter_is_live(monkeypatch):
    """A candidate with e2 <= 0 is dropped: with every e2 zeroed nothing is left."""
    kernel = order_kernel.cubic_sym_funcs
    def no_e2(*args):
        e1, _, e3 = kernel(*args)
        return e1, 0, e3

    monkeypatch.setattr(norms, "cubic_sym_funcs", no_e2)
    assert len(count_fast(40, 1600)) == count_exact(40, 1600) == 0
    assert count_exact(40, 1600, include_unit=True) == 1


def test_count_exact_refuses_a_candidate_over_x(monkeypatch):
    candidates = norms._candidates

    def over(a, X, include_unit):
        for k, w, n in candidates(a, X, include_unit):
            yield k, w, n + X

    monkeypatch.setattr(norms, "_candidates", over)
    with pytest.raises(ConsistencyError, match="exceeds X"):
        count_exact(40, 1600)


def test_count_ratio_guard_bounds_x_over_a(monkeypatch):
    """X // a above COUNT_RATIO_GUARD is refused by every count, at the boundary."""
    assert norms.COUNT_RATIO_GUARD >= 800  # verify and the benchmark stay inside it
    monkeypatch.setattr(norms, "COUNT_RATIO_GUARD", 100)
    assert count_exact(200, 200 * 100 + 199) > 0
    for count in (count_fast, count_exact):
        with pytest.raises(GuardExceeded, match="X // a <= 100, got 101"):
            count(200, 200 * 101)
    monkeypatch.setattr(norms, "COUNT_RATIO_GUARD", 1)
    with pytest.raises(GuardExceeded):
        count_bruteforce(7, 14)


def test_bruteforce_builds_an_element_only_for_a_kept_point(monkeypatch):
    """Cone points are filtered by the kernel on coordinate tuples; only the
    points that pass reach `ideal_hnf` as elements."""
    built, points = [], []
    element = norms.OrderElement
    monkeypatch.setattr(norms, "OrderElement", lambda *args: built.append(args) or element(*args))
    hnfs = _wrap_everywhere(monkeypatch, norms, "ideal_hnf")
    kernel = _wrap_everywhere(monkeypatch, order_kernel, "cubic_sym_funcs")
    lattice = norms.lattice_points

    def listed(*args):
        points.append(list(lattice(*args)))
        return points[-1]

    monkeypatch.setattr(norms, "lattice_points", listed)
    ideals = norms._bruteforce_ideals.__wrapped__(6)
    assert len(built) == len(hnfs) >= len(ideals) > 0
    assert sum(map(len, points)) > len(kernel) > len(built)


def test_count_bruteforce_guard_and_monotone():
    with pytest.raises(GuardExceeded):
        count_bruteforce(31, 10)
    with pytest.raises(BoundTooLarge):
        count_bruteforce(7, 50)
    a = 7
    assert count_bruteforce(a, 2 * a + 2) == 0
    prev = 0
    for X in range(1, a * a + 1):
        cur = count_bruteforce(a, X)
        assert cur >= prev
        prev = cur


def test_count_exact_bracketed_by_fast():
    """count_fast <= count_exact <= 3*count_fast + 1 (conjugate multiplicity)."""
    for a in (7, 8, 50, 100):
        for X in {2 * a + 3, a * a // 2, a * a}:
            cf = len(count_fast(a, X))
            ce = count_exact(a, X)
            assert cf <= ce <= 3 * cf + 1, (a, X, cf, ce)


def test_sq_count_table_rows():
    for a, want in ((-1, 2), (0, 2), (1, 5), (2, 8), (7, 38), (25, 341), (50, 1166)):
        assert sq_count(a) == want, a


def test_sq_count_bounded_by_inventory():
    for a in (-1, 0, 1, 2, 4, 7, 11):
        total = len(indecomposables_simplest(a))
        assert sq_count(a) <= total
        if a in (-1, 1):
            assert sq_count(a) == total


def _sq_count_reference(a):
    """The inventory count: every record's norm through `sym_funcs`."""
    records = indecomposables_simplest.__wrapped__(a)  # uncached: a up to 80
    return sum(1 for rec in records if is_squarefree(norm(rec.element)))


def test_sq_count_matches_the_inventory_count():
    """One point per rotation orbit gives the inventory's count, certified a or not."""
    for a in range(-1, 81):
        assert sq_count(a) == _sq_count_reference(a), a


def _wrap_everywhere(monkeypatch, module, name):
    """Wrap every binding of `module.name` in the loaded indecomp modules;
    returns the list of calls made through them."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("indecomp") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_sq_count_work_is_one_squarefree_test_per_orbit(monkeypatch):
    inventories = _wrap_everywhere(monkeypatch, families, "indecomposables_simplest")
    tests = _wrap_everywhere(monkeypatch, integers, "is_squarefree")
    sq_count(40)
    assert inventories == []
    assert len(tests) == 1 + len(fundamental_triangle(40))


@pytest.mark.parametrize("a", [-1, 0, 3, 7, 50, 60])
def test_sq_count_tests_each_orbit_once_and_builds_no_point(monkeypatch, a):
    """One squarefree test per orbit plus one for the exceptional element, on
    integers: no TrianglePoint is constructed."""
    orbits = len(fundamental_triangle(a)) if a >= 0 else 0
    tests = _wrap_everywhere(monkeypatch, integers, "is_squarefree")
    points = _wrap_everywhere(monkeypatch, families, "TrianglePoint")
    sq_count(a)
    assert len(tests) == orbits + 1
    assert points == []


def _triangle_norm_parent(a, v, W):
    """The seventeen-term triangle norm that the row cubic replaced."""
    return (
        a * a * v * W - a * v * v * W - a * v * W * W + a * a * v - 2 * a * v * v
        + a * v * W + a * W * W + v**3 - 3 * v * W * W - W**3 + 3 * a * v
        + 3 * a * W - 3 * v * v - 3 * v * W - 3 * W * W + 2 * a + 3
    )


def _sq_count_parent(a):
    """The former sq_count: one TrianglePoint walk of the fundamental third."""
    count = 1 + is_squarefree(a * a + 3 * a + 9)
    if a < 0:
        return count
    bigA, a0 = divmod(a, 3)
    top = bigA - 1 if a0 == 0 else bigA
    points = [TrianglePoint(v, W) for v in range(top + 1) for W in range(v, a - 2 * v)]
    if a0 == 0:
        points.append(TrianglePoint(bigA, bigA))
    for p in points:
        if is_squarefree(_triangle_norm_parent(a, p.v, p.W)):
            count += 1 if 3 * p.v == 3 * p.W == a else 3
    return count


def test_sq_count_equals_the_former_point_walk():
    for a in range(-1, 121):
        assert sq_count(a) == _sq_count_parent(a), a


def _max_norm_parent(a):
    """The former max-norm scan: one key tuple per triangle point."""
    best_key = best_point = None
    for v in range(0, a + 1):
        for W in range(0, a - v + 1):
            n = _triangle_norm_parent(a, v, W)
            key = (-n, abs(3 * v - a) + abs(3 * W - a), v, W)
            if best_key is None or key < best_key:
                best_key, best_point = key, TrianglePoint(v, W)
    return best_point, -best_key[0]


def test_max_norm_equals_the_former_scan():
    for a in range(4, 121):
        assert max_norm_indecomposable(a) == _max_norm_parent(a), a


def test_sq_count_walks_the_triangle_without_building_it(monkeypatch):
    """The traced peak of sq_count(601) is far below the size of its
    60,501-point fundamental triangle.  The squarefree test is stubbed out:
    it sets the time, not the memory, and each point still counts once with
    weight 3 (601 % 3 != 0, so there is no fixed centre)."""
    monkeypatch.setattr(norms, "is_squarefree", lambda n: True)
    tracemalloc.start()
    try:
        count = sq_count(601)
        walked = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        points = fundamental_triangle(601)
        listed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 + 3 * len(points)
    assert 100 * walked < listed


def test_sq_guard_counts_the_orbits_of_the_triangle(monkeypatch):
    """sq_guard(a) refuses exactly the a whose fundamental triangle holds more
    than SQ_ORBIT_GUARD points, checked under smaller limits; 2447 is the
    last a under the limit of 10^6, so tables far past a = 60 still run."""
    sizes = [len(fundamental_triangle(a)) for a in range(200)]
    for limit in (0, 1, 2, 100, 1000, 6000):
        monkeypatch.setattr(norms, "SQ_ORBIT_GUARD", limit)
        for a, size in enumerate(sizes):
            if size > limit:
                with pytest.raises(GuardExceeded, match=f"visits {size} triangle orbits"):
                    norms.sq_guard(a)
            else:
                norms.sq_guard(a)
    monkeypatch.undo()
    norms.sq_guard(2447)
    for a in (2448, 100000):
        with pytest.raises(GuardExceeded, match="triangle orbits"):
            sq_count(a)


def test_max_norm_examples():
    pt, mx = max_norm_indecomposable(4)
    assert (pt, mx) == (TrianglePoint(1, 1), 47)
    for a in range(10, 31):
        pt, mx = max_norm_indecomposable(a)
        assert abs(3 * pt.v - a) + abs(3 * pt.W - a) <= 6  # L1 distance <= 2
        # the argmax is the closest point to the center (ties broken toward it)
        best = min(
            (
                (abs(3 * v - a) + abs(3 * W - a), v, W)
                for v in range(a + 1)
                for W in range(a - v + 1)
            ),
        )
        assert (abs(3 * pt.v - a) + abs(3 * pt.W - a)) == best[0]


def test_max_norm_band():
    """27 * max / a^4 band over 20 <= a <= 30, frozen from measurement."""
    for a in range(20, 31):
        _, mx = max_norm_indecomposable(a)
        assert 12 * a**4 <= 10 * 27 * mx <= 14 * a**4  # ratio in [1.2, 1.4]
    # the ratio drifts down toward 1 as a grows
    _, mx = max_norm_indecomposable(200)
    assert 27 * mx < 1.04 * 200**4


@pytest.mark.parametrize("a", [3, 4, 5, 6])
def test_bruteforce_simplex_hull_matches_full_parallelepiped_hull(a):
    """The brute-force scan covers the simplex {sum u_j <= X^(1/3)}; scanning the
    coordinate hull of the whole scaled parallelepiped finds the same ideals."""
    from indecomp.families import standard_parallelepipeds
    from indecomp.integers import icbrt
    from indecomp.norms import _bruteforce_ideals
    from indecomp.order_kernel import OrderElement, sym_funcs

    field = make_field(Family.SIMPLEST_CUBIC, a)
    X = a * a
    bound = icbrt(X) + 1
    found = {}
    for gens in standard_parallelepipeds(field):
        coords = [g.coords for g in gens]
        lo = [bound * sum(min(0, c[i]) for c in coords) for i in range(3)]
        hi = [bound * sum(max(0, c[i]) for c in coords) for i in range(3)]
        for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if x == (0, 0, 0) or math.gcd(*x) != 1:
                continue
            el = OrderElement(x, field)
            e1, e2, e3 = sym_funcs(el)  # totally positive with 1 < N(el) <= X
            if e1 <= 0 or e2 <= 0 or not 1 < e3 <= X:
                continue
            h = ideal_hnf(el)
            found[h.rows] = h.det
    assert tuple(sorted(zip(found.values(), found.keys()))) == _bruteforce_ideals(a)
