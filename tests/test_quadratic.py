"""Continued fractions, semiconvergents, quadratic certificates and counts."""

import collections
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy

from indecomp import quadratic, verify
from indecomp.codifferent import (
    CodifferentElement,
    fprime_element,
    is_totally_positive_codiff,
    pairing_vector,
    trace_pairing,
)
from indecomp.errors import (
    CertificateFailure,
    IndexOutOfRange,
    NotSquarefree,
    IllegalParameter,
    ZeroElement,
)
from indecomp.integers import is_squarefree
from indecomp.hnf import parallelepiped_points
from indecomp.oracle import _dyadic, indecomposables_by_search, inventories_match
from indecomp.order_kernel import (
    OrderElement,
    elem,
    is_totally_positive,
    isolate_roots,
    norm,
    refine_roots,
    trace,
)
from indecomp.quadratic import (
    _delta_checks,
    cf_expand,
    conj,
    decompose_quadratic,
    fundamental_tp_unit,
    indecomposables_quadratic,
    make_quad_field,
    quad_counts,
    quad_ideal_hnf,
    search_indecomposables,
    semiconvergent,
    trace_one_delta,
    trace_one_delta_scalings,
    trace_one_numerator,
)
from indecomp.verify import QUADRATIC_D_SET

RNG = random.Random(424242)
TESTED_D = (2, 3, 5, 6, 7, 10, 13)


def test_make_quad_field_checks():
    with pytest.raises(NotSquarefree):
        make_quad_field(12)
    with pytest.raises(IllegalParameter):
        make_quad_field(1)
    assert make_quad_field(5).one_mod_four
    assert not make_quad_field(7).one_mod_four


def test_element_arithmetic():
    f = make_quad_field(13)
    w = elem(f, 0, 1)
    # omega^2 = omega + (D-1)/4 for D = 1 mod 4
    assert (w * w).coords == (3, 1)
    assert trace(w) == 1 and norm(w) == -3
    f2 = make_quad_field(2)
    w2 = elem(f2, 0, 1)
    assert (w2 * w2).coords == (2, 0)
    for _ in range(300):
        x = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9))
        y = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9))
        assert norm(x * y) == norm(x) * norm(y)
        assert trace(x + y) == trace(x) + trace(y)
        assert x * y == y * x
        assert norm(conj(x)) == norm(x)
        assert (x + conj(x)).coords == (trace(x), 0)
        assert (x * conj(x)).coords == (norm(x), 0)


def test_cf_examples():
    assert (cf_expand(2).u0, cf_expand(2).period) == (1, (2,))
    for t in (1, 3, 5):
        cf = cf_expand(t * t + 1)
        assert cf.u0 == t and cf.period == (2 * t,)
    assert cf_expand(3).period == (1, 2)
    assert cf_expand(13).period == (3,)
    assert cf_expand(5).u0 == 0 and cf_expand(5).period == (1,)


def test_cf_against_rational_euclid():
    """Partial quotients agree with the plain Euclidean algorithm applied to
    a 30-digit rational approximation of xi_D."""

    def terms_from_rational(x: Fraction, k: int):
        out = []
        for _ in range(k):
            fl = x.numerator // x.denominator
            out.append(fl)
            if x == fl:
                break
            x = 1 / (x - fl)
        return out

    for D in TESTED_D + (26,):
        s = math.isqrt(D * 10**60)
        approx = Fraction(s, 10**30)
        field = make_quad_field(D)
        xi = (approx - 1) / 2 if field.one_mod_four else approx
        want = terms_from_rational(xi, 12)[:11]
        cf = cf_expand(D)
        assert want == [cf.u(i) for i in range(11)], D


def test_cf_period_primitive():
    for D in TESTED_D:
        period = cf_expand(D).period
        s = len(period)
        for d in range(1, s):
            if s % d == 0:
                assert any(period[i] != period[i % d] for i in range(s))


def test_convergent_determinant_identity():
    for D in TESTED_D:
        cf = cf_expand(D)
        for i in range(0, 2 * cf.period_length + 2):
            p_i, q_i = cf.convergent_pair(i)
            p_m, q_m = cf.convergent_pair(i - 1)
            assert p_i * q_m - p_m * q_i == (-1) ** (i - 1)


def test_semiconvergent_examples():
    cf = cf_expand(2)
    assert semiconvergent(2, -1, 0).coords == (1, 0)
    # alpha_{-1,1} = alpha_{-1} + alpha_0 = 1 + (1 + omega)
    assert semiconvergent(2, -1, 1).coords == (2, 1)
    assert semiconvergent(2, -1, cf.u(1)) == cf.convergent(1)
    for D in TESTED_D:
        cf = cf_expand(D)
        for i in range(-1, 4, 2):
            assert semiconvergent(D, i, 0) == cf.convergent(i)
            assert semiconvergent(D, i, cf.u(i + 2)) == cf.convergent(i + 2)
    with pytest.raises(IndexOutOfRange):
        semiconvergent(2, -1, cf_expand(2).u(1) + 1)
    with pytest.raises(IndexOutOfRange):
        semiconvergent(2, -2, 0)


def test_indecomposables_quadratic_d2():
    recs = indecomposables_quadratic(2, 50)
    coords = {r.element.coords for r in recs}
    assert (1, 0) in coords  # i = -1, r = 0
    assert (2, 1) in coords  # the norm-2 indecomposable 2 + sqrt(2)
    assert (1, 1) not in coords  # 1 + sqrt(2) has norm -1
    for r in recs:
        assert is_totally_positive(r.element)
        assert norm(r.element) <= 50


def test_indecomposables_quadratic_d5():
    # Q(sqrt 5): every totally positive semiconvergent is a unit
    recs = indecomposables_quadratic(5, 100)
    assert recs and all(norm(r.element) == 1 for r in recs)
    assert search_indecomposables(5, 100) == []


def test_indecomposables_quadratic_d26():
    # D = t^2 + 1 with t = 5: counts n = 2t+1 and #S = 2t
    assert quad_counts(26) == (11, 10)
    recs = indecomposables_quadratic(26, 200)
    orbits = {quad_ideal_hnf(r.element) for r in recs if abs(norm(r.element)) != 1}
    assert len(orbits) >= 4


def test_quad_counts_examples():
    for t in (1, 3, 5):
        assert quad_counts(t * t + 1) == (2 * t + 1, 2 * t)
    # period of sqrt(3) is (1, 2): n = u_1 + 1 = 2, #S = 2*u_1 = 2
    assert quad_counts(3) == (2, 2)
    # s odd: n = 2*u_{s-1} + 1
    assert quad_counts(13) == (3, 3)


def test_trace_one_delta_all_odd_indices():
    for D in TESTED_D:
        cf = cf_expand(D)
        for i in range(-1, 2 * cf.period_length, 2):
            delta = trace_one_delta(D, i)
            assert is_totally_positive_codiff(delta)
            for r in range(0, cf.u(i + 2) + 1):
                assert trace_pairing(delta, semiconvergent(D, i, r)) == 1
    with pytest.raises(IndexOutOfRange):
        trace_one_delta(2, 0)
    with pytest.raises(IndexOutOfRange):  # not the wrapped-around table entry
        _delta_checks(cf_expand(2), *trace_one_delta(2, -1).numerator.coords, -3)


def _delta_checks_reference(delta, i):
    """The per-semiconvergent loop: one trace pairing with each alpha_{i,r}."""
    cf = cf_expand(delta.field.D)
    for r in range(0, cf.u(i + 2) + 1):
        if trace_pairing(delta, semiconvergent(delta.field.D, i, r)) != 1:
            return False
    return is_totally_positive_codiff(delta)


def test_delta_checks_match_the_per_semiconvergent_loop():
    for D in range(2, 501):
        if not is_squarefree(D):
            continue
        cf = cf_expand(D)
        field = cf.field
        for i in range(-1, 2 * cf.period_length, 2):
            p, q = cf.convergent_pair(i + 1)
            g0 = -p - q if field.one_mod_four else -p
            delta = CodifferentElement(elem(field, g0, q))
            got = (_delta_checks(cf, g0, q, i), _delta_checks_reference(delta, i))
            assert got == (True, True), (D, i)
            perturbed = CodifferentElement(elem(field, g0 + 1, q))
            got = (_delta_checks(cf, g0 + 1, q, i), _delta_checks_reference(perturbed, i))
            assert got == (False, False), (D, i)


@functools.lru_cache(maxsize=None)
def _convergents_on_elements(D):
    """The tables (p_j), (q_j) for j = -1..4s+1, one `u(k)` call per entry."""
    cf = cf_expand(D)
    P, Q = [1, cf.u0], [0, 1]
    for k in range(1, 4 * cf.period_length + 2):
        P.append(cf.u(k) * P[-1] + P[-2])
        Q.append(cf.u(k) * Q[-1] + Q[-2])
    return P, Q


def _delta_checks_on_elements(delta, i):
    """The element-based checks: one `pairing_vector` of delta against the
    convergents i and i + 1, then the positivity test of gamma*f' by `mul`."""
    if i < -1:
        raise IndexOutOfRange("convergents start at i = -1")
    P, Q = _convergents_on_elements(delta.field.D)
    c0, c1 = pairing_vector(delta)
    return (
        c0 * P[i + 1] + c1 * Q[i + 1] == 1
        and c0 * P[i + 2] + c1 * Q[i + 2] == 0
        and is_totally_positive_codiff(delta)
    )


def _trace_one_delta_on_elements(D, i):
    if i < -1 or i % 2 == 0:
        raise IndexOutOfRange("certificates exist for odd i >= -1")
    cf = cf_expand(D)
    P, Q = _convergents_on_elements(D)
    p, q = P[i + 2], Q[i + 2]
    delta = CodifferentElement(elem(cf.field, -p - q if cf.field.one_mod_four else -p, q))
    if not _delta_checks_on_elements(delta, i):
        raise CertificateFailure(f"certificate checks failed for D={D}, i={i}")
    return delta


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - compared, type and message
        return type(exc), str(exc)


def test_integer_certificates_equal_the_element_checks():
    """Over squarefree D <= 2000 and every odd i in -1..4s, the integer route
    and the element-based checks give the same numerator and the same table
    entries; perturbed numerators fail on both sides, and so does 0, whose
    pairing t_i = 0 fails before the positivity test could raise."""
    for D in range(2, 2001):
        if not is_squarefree(D):
            continue
        cf = cf_expand(D)
        field, last = cf.field, 4 * cf.period_length
        for i in range(-1, last + 1, 2):
            want = _trace_one_delta_on_elements(D, i)
            g0, q = want.numerator.coords
            assert trace_one_numerator(D, i) == (g0, q), (D, i)
            assert trace_one_delta(D, i) == want, (D, i)
            for wrong in ((g0 + 1, q), (g0 - 1, q), (g0, q + 1), (g0, q - 1), (-g0, -q), (0, 0)):
                delta = CodifferentElement(OrderElement(wrong, field))
                got = (_delta_checks(cf, *wrong, i), _delta_checks_on_elements(delta, i))
                assert got == (False, False), (D, i, wrong)
        cf._ensure(last + 1)
        assert (cf._p[: last + 3], cf._q[: last + 3]) == _convergents_on_elements(D), D
        for i in (-3, -2, 0, last):
            got = _outcome(trace_one_numerator, D, i)
            assert got == _outcome(_trace_one_delta_on_elements, D, i), (D, i)
    with pytest.raises(ZeroElement):
        is_totally_positive_codiff(CodifferentElement(elem(make_quad_field(7), 0, 0)))


def test_trace_one_delta_d2_explicit():
    delta = trace_one_delta(2, -1)
    # delta = (-p_0 + q_0 sqrt(2)) / (2 sqrt(2)) with (p_0, q_0) = (1, 1)
    assert delta.numerator.coords == (-1, 1)


def test_scaling_resolution_one_mod_four():
    """The literal display is D times the working certificate."""
    for D in (5, 13):
        rec = trace_one_delta_scalings(D, 1)
        assert rec["passing"] == "literal/D"
        assert rec["literal_trace"] == D
        assert rec["literal_totally_positive"] is True
    rec = trace_one_delta_scalings(2, 1)
    assert rec["passing"] == "direct" and rec["literal_trace"] == 1


def test_the_quadratic_suite_checks_each_certificate_once():
    """Work counter: `verify.check_quadratic_suite` runs `_delta_checks` once
    per (D, odd i): the scaling record checks i = 1, so the loop skips it."""
    calls = collections.Counter()

    def counting(cf, g0, g1, i):
        calls[cf.field.D, i] += 1
        return _delta_checks(cf, g0, g1, i)

    with mock.patch.object(quadratic, "_delta_checks", counting):
        result = verify.check_quadratic_suite()
    assert result.passed
    want = {(D, i) for D in QUADRATIC_D_SET
            for i in range(-1, 2 * cf_expand(D).period_length, 2)}
    assert set(calls) == want and set(calls.values()) == {1}


def test_quad_pairing_integrality():
    for D in TESTED_D:
        f = make_quad_field(D)
        s = fprime_element(f)  # sqrt(Delta)
        assert (s * s).coords == (f.discriminant, 0)
        for _ in range(200):
            g = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9))
            x = elem(f, RNG.randint(-9, 9), RNG.randint(-9, 9))
            got = trace_pairing(CodifferentElement(g), x)
            # independent route: Tr(g*x*conj(s))/N(s) must equal it
            prod = g * x * conj(s)
            assert Fraction(trace(prod), norm(s)) == got


def test_fundamental_tp_unit():
    eps = fundamental_tp_unit(2)
    assert eps.coords == (3, 2)  # (1 + sqrt 2)^2
    for D in TESTED_D:
        eps = fundamental_tp_unit(D)
        assert norm(eps) == 1 and is_totally_positive(eps)
        assert eps.coords != (1, 0)


def test_decompose_quadratic():
    f = make_quad_field(2)
    two = elem(f, 2, 0)
    got = decompose_quadratic(two)
    assert got == (elem(f, 1, 0), elem(f, 1, 0))
    el = elem(f, 2, 1)
    assert decompose_quadratic(el) is None  # 2 + sqrt(2) is indecomposable


def test_search_vs_closed_inventories():
    for D in TESTED_D:
        window = 4 * D
        closed = [
            r.element for r in indecomposables_quadratic(D, window) if abs(norm(r.element)) != 1
        ]
        found = search_indecomposables(D, window)
        assert inventories_match(closed, found), D


def _retired_search(D, norm_bound):
    """The scan `search_indecomposables` ran before it shared the oracle's window."""
    field = make_quad_field(D)
    points, _ = parallelepiped_points(((1, 0), fundamental_tp_unit(D).coords))
    out = []
    for coords in points:
        el = elem(field, *coords)
        if el.is_zero() or not is_totally_positive(el):
            continue
        if abs(norm(el)) == 1 or norm(el) > norm_bound:
            continue
        if decompose_quadratic(el) is None:
            out.append(el)
    return out


def test_search_matches_the_retired_scan():
    for D in range(2, 41):
        if is_squarefree(D):
            assert search_indecomposables(D, 4 * D) == _retired_search(D, 4 * D), D


def test_oracle_search_on_quadratic_fields():
    for D in TESTED_D:
        inv = indecomposables_by_search(make_quad_field(D))
        closed = [
            r.element for r in indecomposables_quadratic(D, 4 * D) if abs(norm(r.element)) != 1
        ]
        assert inventories_match(closed, inv.indecomposables), D
        assert inv.units and all(norm(u) == 1 for u in inv.units), D


def test_quad_ideal_hnf_unit_invariance():
    f = make_quad_field(10)
    eps = fundamental_tp_unit(10)
    el = elem(f, 4, 1)  # norm 6
    assert quad_ideal_hnf(el) == quad_ideal_hnf(el * eps)
    assert quad_ideal_hnf(el) != quad_ideal_hnf(conj(el))


# ---------------------------------------------------------------------------
# Root isolation and the dyadic embedding context, shared with cubic fields


def _minpoly_value(f, t):
    """x^2 + c1 x + c0 at a Fraction t, independent of the integer sign kernel."""
    c1, c0 = f.minpoly
    return t * t + c1 * t + c0


@pytest.mark.parametrize("D", QUADRATIC_D_SET)
def test_quadratic_root_intervals_are_disjoint_descending_and_isolating(D):
    f = make_quad_field(D)
    for rounds in (0, 3):
        hi_iv, lo_iv = refine_roots(f, rounds).intervals
        assert lo_iv.hi < hi_iv.lo  # (omega, omega'), descending
        for iv in (hi_iv, lo_iv):
            assert _minpoly_value(f, iv.lo) * _minpoly_value(f, iv.hi) < 0
    assert refine_roots(f, 0) is isolate_roots(f)


@pytest.mark.parametrize("D", QUADRATIC_D_SET)
def test_dyadic_context_encloses_the_embeddings_of_one_and_omega(D):
    f = make_quad_field(D)
    s = sympy.sqrt(D)
    omega = (1 + s) / 2 if f.one_mod_four else s
    conjugates = (omega, 1 - omega if f.one_mod_four else -omega)  # descending
    c1 = f.minpoly[0]
    for rounds in (0, 2):
        ctx = _dyadic(f, rounds)
        assert len(ctx.rows) == 2
        for i, (row, w) in enumerate(zip(ctx.rows, conjugates)):
            (one_lo, one_hi), (w_lo, w_hi) = row
            assert one_lo <= 2**ctx.k <= one_hi
            assert w_lo <= w * 2**ctx.k <= w_hi
            # f = x^2 + c1 x + c0, so f' = 2x + c1 and f(x)/(x - w) = x + (w + c1)
            fprime = 2 * w + c1
            assert ctx.fprime[i][0] <= fprime * 2**ctx.k <= ctx.fprime[i][1]
            for (lo, hi), b in zip((ctx.dual[0][i], ctx.dual[1][i]), (w + c1, 1)):
                assert lo <= b / fprime * 2**ctx.k <= hi
