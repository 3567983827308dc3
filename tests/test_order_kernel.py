"""Field construction, exact arithmetic, root isolation, conjugation, units."""

import dataclasses
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indecomp import order_kernel
from indecomp.codifferent import CodifferentElement, pairing_matrix, trace_pairing
from indecomp.errors import (
    ConsistencyError,
    FieldMismatch,
    IllegalParameter,
    IndecompError,
    NotGalois,
    NotTotallyReal,
    Reducible,
    RefinementLimit,
    ZeroElement,
)
from indecomp.norms import ideal_hnf
from indecomp.oracle import _context
from indecomp.order_kernel import (
    REFINEMENT_CAP,
    Family,
    FieldSpec,
    OrderElement,
    conjugate,
    elem,
    embed,
    galois_conjugation_matrix,
    is_totally_positive,
    isolate_roots,
    make_custom_field,
    make_field,
    mul,
    multiplication_matrix,
    norm,
    one,
    refine_roots,
    rho,
    sym_funcs,
    trace,
    unit_generators,
    unit_inverse,
    _integer_root,
    _seed_intervals,
)
from indecomp.integers import is_squarefree
from indecomp.intervals import Interval
from indecomp.quadratic import conj, fundamental_tp_unit, make_quad_field

RNG = random.Random(987123)


def poly_eval(field, t):
    """f(t) for the monic f = field.minpoly, by Horner's rule in Fractions:
    the reference that the integer sign kernel is checked against."""
    acc = t + field.minpoly[0]
    for c in field.minpoly[1:]:
        acc = acc * t + c
    return acc


def rand_elem(field, lim=9):
    return OrderElement(tuple(RNG.randint(-lim, lim) for _ in field.minpoly), field)


def test_make_field_families():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert f.minpoly == (-7, -10, -1)
    f = make_field(Family.ENNOLA, 3)
    assert f.minpoly == (2, -3, -1)
    f = make_field(Family.THOMAS, 3)
    assert f.minpoly == (-8, 15, -1)


def test_make_field_ranges():
    with pytest.raises(IllegalParameter):
        make_field(Family.SIMPLEST_CUBIC, -2)
    with pytest.raises(IllegalParameter):
        make_field(Family.ENNOLA, 2)
    with pytest.raises(IllegalParameter):
        make_field(Family.THOMAS, 1)


def test_custom_field_checks():
    with pytest.raises(Reducible):
        make_custom_field(0, 0, -8)  # x^3 - 8 has the rational root 2
    with pytest.raises(NotTotallyReal):
        make_custom_field(0, 0, -2)  # irreducible but one real root
    f = make_custom_field(0, -4, 1)  # x^3 - 4x + 1: three real roots
    assert f.discriminant > 0


def test_mul_reduction():
    for a in (-1, 0, 1, 7):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        r = rho(f)
        assert mul(r, r * r).coords == (1, a + 3, a)
        x = rand_elem(f)
        assert mul(x, one(f)) == x
    f1 = make_field(Family.SIMPLEST_CUBIC, 1)
    x = elem(f1, 1, 1, 0)
    assert mul(x, x).coords == (1, 2, 1)


def test_field_mismatch():
    x = one(make_field(Family.SIMPLEST_CUBIC, 1))
    y = one(make_field(Family.SIMPLEST_CUBIC, 2))
    with pytest.raises(FieldMismatch):
        mul(x, y)


def test_bad_operands_raise_library_errors():
    """Floats are not order elements, degrees 2 and 3 never mix, and neither
    do two different fields of one degree."""
    cubic, quad = rho(make_field(Family.SIMPLEST_CUBIC, 1)), rho(make_quad_field(5))
    for x in (cubic, quad):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, 0.5)
            with pytest.raises(TypeError):
                op(0.5, x)
    other_fields = (
        (rho(make_field(Family.THOMAS, 5)), rho(make_field(Family.THOMAS, 6))),
        (quad, rho(make_quad_field(6))),
    )
    for x, y in ((cubic, quad), (quad, cubic)) + other_fields:
        for op in (operator.add, operator.sub, mul):
            with pytest.raises(FieldMismatch):
                op(x, y)
    for x, y in ((cubic, quad), (quad, cubic)):
        with pytest.raises(FieldMismatch):
            trace_pairing(CodifferentElement(x), y)


def test_elements_immutable():
    """Slotted and frozen: no instance dict, and no field can be set or deleted."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    x = elem(f, 1, 2, 3)
    assert not hasattr(x, "__dict__")
    for name, value in (("coords", (0, 0, 0)), ("field", make_quad_field(5))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    # the frozen __setattr__ of a slotted dataclass fails in super() for other
    # names (TypeError on Python 3.10-3.13); either way nothing is stored
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1
    assert repr(x) == "OrderElement(1, 2, 3)" and x.coords == (1, 2, 3) and x.field is f
    with pytest.raises(ValueError, match="coords must have 3 entries"):
        OrderElement((1, 2), f)
    with pytest.raises(ValueError, match="coords must have 2 entries"):
        OrderElement((1, 2, 3), make_quad_field(5))
    with pytest.raises(IndecompError, match="coords must have 3 entries"):
        OrderElement((1, 2, 3, 4), f)


def test_sym_funcs_examples():
    for a in (-1, 0, 2, 7, 19):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert sym_funcs(rho(f)) == (a, -(a + 3), 1)
        assert sym_funcs(one(f)) == (3, 3, 1)
        assert sym_funcs(elem(f, 1, 1, 1))[2] == a * a + 3 * a + 9
    # omega = (1 + sqrt 13)/2 and sqrt 2: (Tr, N)
    assert sym_funcs(rho(make_quad_field(13))) == (1, -3)
    assert sym_funcs(rho(make_quad_field(2))) == (0, -2)


def test_ring_axioms_random():
    f = make_field(Family.SIMPLEST_CUBIC, 4)
    for _ in range(2000):
        x, y, z = rand_elem(f), rand_elem(f), rand_elem(f)
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y + z) == mul(x, y) + mul(x, z)


def test_norm_trace_homomorphisms():
    for family, a in ((Family.SIMPLEST_CUBIC, 7), (Family.ENNOLA, 5), (Family.THOMAS, 4)):
        f = make_field(family, a)
        for _ in range(4000):
            x, y = rand_elem(f), rand_elem(f)
            assert norm(mul(x, y)) == norm(x) * norm(y)
            assert trace(x + y) == trace(x) + trace(y)
            assert trace(x) == sym_funcs(x)[0]


def test_total_positivity_examples():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert is_totally_positive(elem(f, 1, 1, 1))
    assert not is_totally_positive(rho(f))
    with pytest.raises(ZeroElement):
        is_totally_positive(elem(f, 0, 0, 0))
    for _ in range(300):
        x = rand_elem(f)
        if not x.is_zero():
            assert is_totally_positive(mul(x, x))


def test_totally_positive_closed_under_ring_ops():
    f = make_field(Family.SIMPLEST_CUBIC, 2)
    tps = []
    while len(tps) < 30:
        x = rand_elem(f, 4)
        if not x.is_zero():
            tps.append(mul(x, x))
    for _ in range(300):
        x, y = RNG.choice(tps), RNG.choice(tps)
        assert is_totally_positive(x + y)
        assert is_totally_positive(mul(x, y))


def test_totally_positive_matches_embedding_signs():
    for family, a in ((Family.SIMPLEST_CUBIC, 7), (Family.ENNOLA, 4), (Family.THOMAS, 3)):
        f = make_field(family, a)
        for _ in range(1000):
            x = rand_elem(f, 6)
            if x.is_zero():
                continue
            _, enclosures = _context(f, [x])
            assert is_totally_positive(x) == all(lo > 0 for lo, _ in enclosures[x])
    for D in (2, 3, 5, 13, 21):
        f = make_quad_field(D)
        roots = sympy.Poly([1, *f.minpoly], X).all_roots()  # exact, in sqrt(D)
        for _ in range(100):
            x = rand_elem(f, 6)
            if x.is_zero():
                continue
            want = all(sympy.sign(x.coords[0] + x.coords[1] * r) > 0 for r in roots)
            assert is_totally_positive(x) == want


def test_root_isolation_seeded_windows():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    ri = isolate_roots(f)
    big, second, third = ri.intervals
    assert all(iv.width <= Fraction(1, 64) for iv in ri.intervals)
    assert Fraction(8) <= big.lo and big.hi <= 8 + Fraction(2, 7)
    assert -1 - Fraction(1, 7) <= second.lo and second.hi <= -1 - Fraction(1, 14)
    assert Fraction(-1, 9) <= third.lo and third.hi <= Fraction(-1, 10)


def test_root_isolation_generic_descending():
    for family, a in ((Family.ENNOLA, 3), (Family.THOMAS, 3), (Family.SIMPLEST_CUBIC, 1)):
        f = make_field(family, a)
        ri = isolate_roots(f)
        mids = [(iv.lo + iv.hi) / 2 for iv in ri.intervals]
        if family is Family.SIMPLEST_CUBIC:
            # convention (rho, rho', rho''): largest, in (-2,-1), in (-1,0)
            assert mids[0] > 0 > mids[2] > -1 > mids[1] > -2
        else:
            assert mids[0] > mids[1] > mids[2]
        # sign change across each interval
        for iv in ri.intervals:
            assert poly_eval(f, iv.lo) * poly_eval(f, iv.hi) < 0
    # the simplest order, bracketed for a < 7 and seeded above, which the
    # exact placement in galois_conjugation_matrix relies on
    for a in (*range(-1, 61), 400):
        big, second, third = isolate_roots(make_field(Family.SIMPLEST_CUBIC, a)).intervals
        assert 1 < big.lo and -2 < second.lo and second.hi < -1 < third.lo and third.hi < 0, a


_REFINED_FAMILIES = [
    *((Family.SIMPLEST_CUBIC, a) for a in range(-1, 31)),
    *((Family.ENNOLA, a) for a in range(3, 12)),
    *((Family.THOMAS, a) for a in range(2, 12)),
]


@pytest.mark.parametrize("family, a", _REFINED_FAMILIES)
def test_refinement_rounds_nest(family, a):
    """Each round is bisected cold, on the halving path of the round before:
    every round-r interval lies inside the round-(r - 1) interval of the same
    root, and none is wider than the width of round r."""
    f = make_field(family, a)
    previous = refine_roots(f, 0).intervals
    for rounds in range(1, 31):
        refined = refine_roots(f, rounds)
        width = order_kernel._default_width(f, rounds)
        assert refined.width == width
        for inner, outer in zip(refined.intervals, previous):
            assert outer.lo <= inner.lo and inner.hi <= outer.hi, rounds
            assert inner.width <= width, rounds
        previous = refined.intervals


def test_refinement_round_zero_reuses_the_isolation(monkeypatch):
    """Work counter: refine_roots(f, 0) is isolate_roots(f), each newly
    computed round hands the bisection loop the 3 seed pieces once, and a
    cached round hands it none."""
    calls = [0]
    original = order_kernel._bisect

    def counting(field, pieces, width):
        calls[0] += len(pieces)
        return original(field, pieces, width)

    monkeypatch.setattr(order_kernel, "_bisect", counting)
    f = make_field(Family.SIMPLEST_CUBIC, 977)  # a field no other test refines
    r0 = isolate_roots(f)
    assert calls[0] == 3
    assert refine_roots(f, 0) is r0 and calls[0] == 3
    refine_roots(f, 5)
    assert calls[0] == 3 + 3
    refine_roots(f, 5)
    assert calls[0] == 3 + 3
    refine_roots(f, REFINEMENT_CAP)
    assert calls[0] == 3 + 3 + 3
    with pytest.raises(RefinementLimit):
        refine_roots(f, REFINEMENT_CAP + 1)
    with pytest.raises(IllegalParameter):
        refine_roots(f, -1)


def test_embed_examples():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    ri = isolate_roots(f)
    for iv in embed(one(f), ri):
        assert iv.lo <= 1 <= iv.hi
    assert embed(rho(f), ri) == ri.intervals
    for iv in embed(elem(f, 0, -1, 1), ri):
        assert iv.lo > 0


def test_conjugation_matrix():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    m = galois_conjugation_matrix(f)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m != ident
    rp = conjugate(rho(f))
    # exact root check: f(rho') = 0
    c2, c1, c0 = f.minpoly
    val = rp ** 3 + c2 * mul(rp, rp) + c1 * rp + c0 * one(f)
    assert val.is_zero()
    assert conjugate(rho(f), 3) == rho(f)
    assert conjugate(one(f)) == one(f)
    for _ in range(200):
        x = rand_elem(f)
        assert sym_funcs(conjugate(x)) == sym_funcs(x)


def test_conjugation_placement_needs_no_refinement(monkeypatch):
    """Work counter: the exact sign f(1) < 0 places rho' without isolating
    or refining the roots."""
    calls = []
    refine = order_kernel.refine_roots

    def counting(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)

        return wrapper

    for name in ("isolate_roots", "refine_roots"):
        monkeypatch.setattr(order_kernel, name, counting(getattr(order_kernel, name)))
    for a in (*range(-1, 11), 50, 400):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        calls.clear()
        m = galois_conjugation_matrix.__wrapped__(f)
        assert calls == [], a
        # the interval embedding of rho' itself, refined until it lands in (-2, -1)
        rp = OrderElement(tuple(r[1] for r in m), f)
        assert any(-2 < iv.lo and iv.hi < -1
                   for iv in (embed(rp, refine(f, k))[0] for k in range(0, 40, 4))), a


def test_conjugation_not_galois_families():
    with pytest.raises(NotGalois):
        galois_conjugation_matrix(make_field(Family.ENNOLA, 3))
    with pytest.raises(NotGalois):
        galois_conjugation_matrix(make_field(Family.THOMAS, 2))


def test_unit_generators_simplest():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    us = unit_generators(f)
    assert us.totally_positive[0] == mul(rho(f), rho(f))
    assert us.totally_positive[1].coords == (1, 2, 1)
    for u in us.fundamental + us.totally_positive:
        assert norm(u) in (1, -1)
    rp = conjugate(rho(f))
    assert (unit_inverse(rp) ** 2).coords == (-1 - 7, -(49 + 21 + 3), 7 + 2)


def test_unit_generators_other_families():
    ue = unit_generators(make_field(Family.ENNOLA, 3))
    assert ue.fundamental[1].coords == (-1, 1, 0)
    assert ue.totally_positive[1].coords == (0, -1, 1)  # rho(rho-1)
    ut = unit_generators(make_field(Family.THOMAS, 3))
    assert ut.fundamental[1].coords == (-3, 1, 0)
    assert is_totally_positive(ut.totally_positive[0])  # rho itself


def test_unit_conjugate_growth():
    """Every unit rho^k rho'^l with small exponents except 1 has a conjugate
    of absolute value exceeding a (checked for a = 7 and 11)."""
    for a in (7, 11):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        r = rho(f)
        rp = conjugate(r)
        for k in range(-4, 5):
            for l in range(-4, 5):
                if k == 0 and l == 0:
                    continue
                u = mul(r ** k, rp ** l)
                ctx, enclosures = _context(f, [u])
                big = a << ctx.k  # a at the scale 2^k of the integer enclosures
                assert any(lo > big or hi < -big for lo, hi in enclosures[u]), (a, k, l)


def test_unit_inverse():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    us = unit_generators(f)
    for u in us.fundamental + us.totally_positive:
        assert mul(u, unit_inverse(u)) == one(f)
    from indecomp.errors import NotAUnit

    with pytest.raises(NotAUnit):
        unit_inverse(elem(f, 2, 0, 0))


# ---------------------------------------------------------------------------
# Property tests of the kernel against sympy (test-only dependencies)

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
X = sympy.Symbol("X")

FAMILY_FIELDS = st.one_of(
    st.integers(-1, 80).map(lambda a: make_field(Family.SIMPLEST_CUBIC, a)),
    st.integers(3, 80).map(lambda a: make_field(Family.ENNOLA, a)),
    st.integers(2, 80).map(lambda a: make_field(Family.THOMAS, a)),
)


def _custom_or_none(c):
    try:
        return make_custom_field(*c)
    except IndecompError:
        return None


def _custom_fields(c0=st.integers(-12, 12)):
    coeffs = st.tuples(st.integers(-12, 12), st.integers(-60, -1), c0)
    return coeffs.map(_custom_or_none).filter(lambda f: f is not None)


def _quadratic_fields(top):
    squarefree = st.integers(2, top).filter(lambda D: max(sympy.factorint(D).values()) == 1)
    return squarefree.map(make_quad_field)


FIELDS = st.one_of(FAMILY_FIELDS, _custom_fields(), _quadratic_fields(10**4))


@st.composite
def elements(draw, n):
    f = draw(FIELDS)
    coords = st.tuples(*[st.integers(-(10**6), 10**6)] * len(f.minpoly))
    return [OrderElement(draw(coords), f) for _ in range(n)]


def _sym_minpoly(f):
    return X ** len(f.minpoly) + sum(c * X**k for k, c in enumerate(reversed(f.minpoly)))


def _sym_elem(x):
    return sum(v * X**k for k, v in enumerate(x.coords))


@PROPERTY
@given(elements(1))
def test_sym_funcs_is_sympy_charpoly(xs):
    (x,) = xs
    coeffs = sympy.Matrix(multiplication_matrix(x)).charpoly().all_coeffs()
    assert coeffs == [1] + [(-1) ** k * e for k, e in enumerate(sym_funcs(x), 1)]


@PROPERTY
@given(elements(1))
def test_norm_is_sympy_resultant(xs):
    (x,) = xs
    assert norm(x) == sympy.resultant(_sym_minpoly(x.field), _sym_elem(x), X)


@PROPERTY
@given(elements(2))
def test_mul_is_polynomial_product_mod_minpoly(xs):
    x, y = xs
    r = sympy.Poly(sympy.rem(_sym_elem(x) * _sym_elem(y), _sym_minpoly(x.field), X), X)
    assert mul(x, y).coords == tuple(int(r.coeff_monomial(X**k)) for k in range(len(x.coords)))


@PROPERTY
@given(elements(3))
def test_mul_ring_axioms_and_norm_multiplicative(xs):
    x, y, z = xs
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y + z) == mul(x, y) + mul(x, z)
    assert norm(mul(x, y)) == norm(x) * norm(y)
    m = multiplication_matrix(x)
    assert tuple(zip(*m)) == tuple(mul(x, rho(x.field) ** j).coords for j in range(len(m)))


@st.composite
def element_and_unit(draw):
    """(x, u) with u a unit: products of fundamental units, powers of rho in
    a custom cubic with constant coefficient +-1, or powers of the totally
    positive fundamental unit of a real quadratic field."""
    kind = draw(st.sampled_from(("family", "custom", "quadratic")))
    if kind == "family":
        f = draw(FAMILY_FIELDS)
        u1, u2 = unit_generators(f).fundamental
        u = u1 ** draw(st.integers(-3, 3)) * u2 ** draw(st.integers(-3, 3))
    elif kind == "custom":
        f = draw(_custom_fields(st.sampled_from((-1, 1))))
        u = rho(f) ** draw(st.integers(-4, 4))
    else:
        f = draw(_quadratic_fields(200))
        u = fundamental_tp_unit(f.a) ** draw(st.integers(-3, 3))
    return OrderElement(draw(st.tuples(*[st.integers(-50, 50)] * len(f.minpoly))), f), u


@PROPERTY
@given(element_and_unit())
def test_ideal_hnf_invariant_under_units(pair):
    x, u = pair
    assume(not x.is_zero())
    assert norm(u) in (1, -1)
    h = ideal_hnf(x)
    assert ideal_hnf(mul(x, u)) == h
    assert h.det == abs(norm(x))


def test_field_check_is_identity_first_but_value_based():
    f = make_field(Family.THOMAS, 5)
    twin = FieldSpec(f.family, f.a, f.minpoly)
    assert twin is not f
    x, y = elem(f, 1, 2, 3), elem(twin, -4, 0, 7)
    assert mul(x, y) == mul(y, x) and (x + y).coords == (-3, 2, 10)
    assert embed(y, isolate_roots(f)) == embed(x - x + y, isolate_roots(f))
    with pytest.raises(FieldMismatch):
        mul(x, elem(make_field(Family.THOMAS, 6), 1, 0, 0))


# ---------------------------------------------------------------------------
# Irreducibility check and root isolation


def test_custom_field_huge_coefficients_return_quickly():
    start = time.perf_counter()
    with pytest.raises(NotTotallyReal):
        make_custom_field(0, -3 * 10**10, 10**18 + 1)
    assert time.perf_counter() - start < 1


def test_custom_field_large_integer_root_is_reducible():
    r = 10**9  # (x - r)(x^2 - 3x + 1)
    start = time.perf_counter()
    with pytest.raises(Reducible, match=f"rational root {r}"):
        make_custom_field(-3 - r, 1 + 3 * r, -r)
    assert time.perf_counter() - start < 1
    # the same cubic shifted off the root stays irreducible and totally real
    f = make_custom_field(-3 - r, 1 + 3 * r, -r + 1)
    assert f.discriminant > 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.tuples(*[st.integers(-(10**6), 10**6)] * 3),
        # (x - r)(x^2 + p x + q): reducible by construction
        st.tuples(*[st.integers(-(10**6), 10**6)] * 3).map(
            lambda t: (t[1] - t[0], t[2] - t[0] * t[1], -t[0] * t[2])
        ),
    )
)
def test_integer_root_agrees_with_sympy(c):
    c2, c1, c0 = c
    linear = [p for p, _ in sympy.factor_list(X**3 + c2 * X**2 + c1 * X + c0)[1]
              if sympy.degree(p, X) == 1]
    r = _integer_root(c2, c1, c0)
    assert (r is not None) == bool(linear)
    if r is not None:
        assert ((r + c2) * r + c1) * r + c0 == 0


# ---------------------------------------------------------------------------
# Root brackets against a Sturm-sequence reference


def _sturm_intervals(field):
    """Independent oracle: isolating brackets of the roots by Sturm counts.

    The Sturm chain f, f', -rem(f, f'), ... of Fraction polynomials counts
    the roots in (lo, hi] as V(lo) - V(hi), V the sign variations along the
    chain; [-B, B], B = `_root_bound`, is bisected until each piece holds
    one root.
    """

    def rem(num, den):
        num = list(num)
        while len(num) >= len(den) and any(num):
            if num[-1] == 0:
                num.pop()
                continue
            k = len(num) - len(den)
            c = num[-1] / den[-1]
            for i, d in enumerate(den):
                num[i + k] -= c * d
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return tuple(num)

    # polynomials as coefficient tuples, low degree first
    coeffs = (*reversed(field.minpoly), 1)
    chain = [
        tuple(map(Fraction, coeffs)),
        tuple(Fraction(k * c) for k, c in enumerate(coeffs) if k),
    ]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))

    def variations(t):
        values = [sum(c * t**i for i, c in enumerate(p)) for p in chain]
        signs = [v > 0 for v in values if v != 0]
        return sum(map(operator.ne, signs, signs[1:]))

    bound = order_kernel._root_bound(field.minpoly)
    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, variations(lo) - variations(hi))]
    isolated = []
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid, variations(lo) - variations(mid)))
        stack.append((mid, hi, variations(mid) - variations(hi)))
    assert len(isolated) == len(field.minpoly)
    return isolated


_BRACKET_FAMILIES = [
    *((Family.SIMPLEST_CUBIC, a) for a in range(-1, 61)),
    *((Family.ENNOLA, a) for a in range(3, 61)),
    *((Family.THOMAS, a) for a in range(2, 61)),
]


def _bracketed_isolation(field):
    """A cold round 0, which bisects [-B, B] from its root counts,
    sorted by lower endpoint, and the Sturm brackets bisected in Fractions to
    the same width."""
    got = sorted(refine_roots.__wrapped__(field, 0).intervals, key=lambda iv: iv.lo)
    width = order_kernel._default_width(field, 0)
    want = [_fraction_bisection(field, lo, hi, width) for lo, hi in _sturm_intervals(field)]
    return got, sorted(want, key=lambda iv: iv.lo)


def test_critical_point_brackets_equal_sturm_brackets_on_the_families(monkeypatch):
    """The bisection of [-B, B] by critical-point counts isolates the roots
    in the same brackets as the Sturm bisection, with the simplest-family
    seeds switched off."""
    monkeypatch.setattr(order_kernel, "_seed_intervals", lambda field: None)
    for family, a in _BRACKET_FAMILIES:
        got, want = _bracketed_isolation(make_field(family, a))
        assert got == want, (family, a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.integers(-200, 200)] * 3))
def test_critical_point_brackets_equal_sturm_brackets_on_custom_cubics(c):
    f = _custom_or_none(c)
    assume(f is not None)
    got, want = _bracketed_isolation(f)
    assert got == want


def _count_calls(monkeypatch, counts):
    """Replace `_root_count` with `counts(call_index)`; returns the list of calls."""
    calls = []

    def fake(minpoly, lo, hi, den):
        calls.append((Fraction(lo, den), Fraction(hi, den)))
        return counts(len(calls) - 1)

    monkeypatch.setattr(order_kernel, "_root_count", fake)
    return calls


@pytest.mark.parametrize("field", [make_field(Family.THOMAS, 9), make_quad_field(94)])
def test_bracket_roots_stop_at_the_root_separation_bound(monkeypatch, field):
    """A count of 2 on every piece raises once the piece is narrower than
    Mahler's separation bound, after a bounded number of splits."""
    calls = _count_calls(monkeypatch, lambda k: 2)
    with pytest.raises(ConsistencyError, match="root separation"):
        refine_roots.__wrapped__(field, 0)
    assert len(calls) < 100


@pytest.mark.parametrize("counts", [[2, 3], [4]])
def test_bracket_roots_reject_counts_outside_the_degree(monkeypatch, counts):
    """A left half with more roots than its piece leaves `count - left` < 0;
    a count above the degree is rejected too."""
    _count_calls(monkeypatch, counts.__getitem__)
    with pytest.raises(ConsistencyError, match="outside"):
        refine_roots.__wrapped__(make_field(Family.THOMAS, 9), 0)


@pytest.mark.parametrize("family, a", [(Family.THOMAS, 1024), (Family.ENNOLA, 2**20)])
def test_touching_brackets_are_isolating(family, a):
    """Two brackets narrower than the default width may share an endpoint;
    each interval still isolates one root, in every refinement round."""
    f = make_field(family, a)
    for rounds in (0, 1, 5):
        intervals = sorted(refine_roots(f, rounds).intervals, key=lambda iv: iv.lo)
        for iv in intervals:
            assert poly_eval(f, iv.lo) * poly_eval(f, iv.hi) < 0, rounds
        assert all(u.hi <= v.lo for u, v in zip(intervals, intervals[1:]))
        if rounds == 0:
            assert any(u.hi == v.lo for u, v in zip(intervals, intervals[1:]))


def _seed_brackets(field):
    """The `_seed_intervals` pieces (n, gap, den, 1) as Fraction brackets, or None."""
    pieces = _seed_intervals(field)
    return pieces and [(Fraction(n, den), Fraction(n + gap, den)) for n, gap, den, _ in pieces]


def test_seeded_and_sturm_brackets_isolate_the_same_roots():
    for a in range(7, 61):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        seeded = sorted(_seed_brackets(f))
        sturm = sorted(_sturm_intervals(f))
        assert len(seeded) == len(sturm) == 3
        for (slo, shi), (tlo, thi) in zip(seeded, sturm):
            # both brackets isolate one root; a sign change on their
            # intersection puts that root in both
            lo, hi = max(slo, tlo), min(shi, thi)
            assert lo < hi and poly_eval(f, lo) * poly_eval(f, hi) < 0, a


def test_quadratic_root_bound_encloses_the_roots():
    """For Q(sqrt(D)), D <= 2000 squarefree, both roots of the minimal
    polynomial of omega lie in (-B, B), B = `_root_bound`, decided in
    integers: sqrt(D) < B for omega = sqrt(D), and (1 + sqrt(D)) / 2 < B for
    omega = (1 + sqrt(D)) / 2.  B stays near sqrt(D), where Cauchy's
    1 + max |c_k| is about D / 4 or D."""
    for D in range(2, 2001):
        if not is_squarefree(D):
            continue
        bound = order_kernel._root_bound(make_quad_field(D).minpoly)
        if D % 4 == 1:
            assert D < (2 * bound - 1) ** 2, D
        else:
            assert D < bound**2, D
        assert bound <= 2 + math.isqrt(D), D


# ---------------------------------------------------------------------------
# The integer sign kernel against Fraction evaluation


def _fraction_bisection(field, lo, hi, width):
    """Independent reference for the one-root halving of `order_kernel._bisect`:
    Fraction endpoints and `poly_eval` at every midpoint."""
    neg_at_lo = poly_eval(field, lo) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (poly_eval(field, mid) < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def _reference_rounds(field, last):
    """Sorted reference intervals of rounds 0..last: round 0 bisects the
    seeds or the Sturm brackets, round r bisects on from round r - 1."""
    brackets = _seed_brackets(field) or _sturm_intervals(field)
    rounds = []
    for r in range(last + 1):
        width = order_kernel._default_width(field, r)
        brackets = [_fraction_bisection(field, lo, hi, width) for lo, hi in brackets]
        brackets.sort(key=lambda iv: iv.lo)
        rounds.append(brackets)
        brackets = [(iv.lo, iv.hi) for iv in brackets]
    return rounds


def _assert_isolation_matches_reference(field):
    reference = _reference_rounds(field, 30)
    cold = refine_roots.__wrapped__(field, 0)
    assert sorted(cold.intervals, key=lambda iv: iv.lo) == reference[0], field
    for r, want in enumerate(reference):
        got = refine_roots(field, r)
        assert sorted(got.intervals, key=lambda iv: iv.lo) == want, (field, r)
        assert got.width == order_kernel._default_width(field, r)


_SQUAREFREE_D = [D for D in range(2, 41) if is_squarefree(D)]


@pytest.mark.parametrize(
    "field",
    [make_field(family, a) for family, a in _REFINED_FAMILIES]
    + [make_quad_field(D) for D in _SQUAREFREE_D],
    ids=str,
)
def test_integer_bisection_equals_the_fraction_reference(field):
    """`isolate_roots` and every `refine_roots` round up to 30 give the
    intervals of the Fraction bisection, endpoint for endpoint."""
    _assert_isolation_matches_reference(field)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_custom_fields())
def test_integer_bisection_equals_the_fraction_reference_on_custom_cubics(field):
    _assert_isolation_matches_reference(field)


def _fraction_sign(field, t):
    value = poly_eval(field, t)
    return (value > 0) - (value < 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(FIELDS, st.integers(-(10**12), 10**12), st.integers(1, 10**12))
def test_integer_sign_is_the_sign_of_the_fraction_value(field, n, d):
    assert order_kernel._sign_at(field.minpoly, n, d) == _fraction_sign(field, Fraction(n, d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(FIELDS, st.integers(0, 2), st.integers(1, 2**80), st.integers(-2, 2))
def test_integer_sign_next_to_a_root_is_the_sign_of_the_fraction_value(field, k, d, step):
    """n/d within a few steps 1/d of a root, on both sides of it."""
    iv = isolate_roots(field).intervals[k % len(field.minpoly)]
    n = math.floor(iv.lo * d) + step
    assert order_kernel._sign_at(field.minpoly, n, d) == _fraction_sign(field, Fraction(n, d))


def test_a_rational_root_is_never_passed_silently():
    """f = (x - 1)(x^2 + 1) is reducible, which `make_custom_field` rejects,
    so the kernel is called on a FieldSpec built directly: the root 1 is the
    first midpoint of [0, 2] and the second of [0, 4], and an endpoint of a
    root count."""
    minpoly = (-1, 1, -1)
    f = FieldSpec(Family.CUSTOM_CUBIC, None, minpoly)
    assert [order_kernel._sign_at(minpoly, n, n) for n in (1, 2, 7)] == [0, 0, 0]
    assert order_kernel._sign_at((0, -4), -6, 3) == 0  # x^2 - 4 at -2
    for hi in (2, 4):
        with pytest.raises(ConsistencyError, match="midpoint 1 "):
            order_kernel._bisect(f, [(0, hi, 1, 1)], Fraction(1, 4))
    with pytest.raises(ConsistencyError, match="root endpoint"):
        order_kernel._bisect(f, [(1, 1, 1, 1)], Fraction(1, 4))
    with pytest.raises(ConsistencyError, match="root endpoint"):
        order_kernel._root_count(minpoly, 0, 1, 1)
    # a piece [0, 2] of two roots is split at its midpoint 1 by a root count
    with pytest.raises(ConsistencyError, match="root endpoint"):
        order_kernel._bisect(f, [(0, 2, 1, 2)], Fraction(1, 4))


_FRACTION_ARITHMETIC = [
    f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r")
]


def test_root_isolation_does_no_fraction_arithmetic(monkeypatch):
    """Work counter: a cold round 0 and a cold round 3 of `refine_roots`
    decide every sign and every width in integers, with 0 calls of Fraction
    addition, subtraction, multiplication or division, on bracketed Thomas,
    quadratic, simplest and Ennola fields (the last with touching brackets)."""
    fields = [
        make_field(Family.THOMAS, 9),
        make_quad_field(94),
        make_field(Family.SIMPLEST_CUBIC, 3),
        make_field(Family.ENNOLA, 2**20),
    ]
    warm = [refine_roots(field, 3) for field in fields]
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls == ["__add__"]
    calls.clear()
    for field, want in zip(fields, warm):
        refine_roots.__wrapped__(field, 0)
        assert refine_roots.__wrapped__(field, 3) == want
        assert calls == [], field


def test_galois_placement_makes_one_product(monkeypatch):
    """Work counter: a cold `galois_conjugation_matrix` multiplies in the
    order once, for rho'^2; rho'^3 and rho * rho' are read off the
    multiplication matrix of rho'."""
    calls = [0]
    original = order_kernel.mul

    def counting(x, y):
        calls[0] += 1
        return original(x, y)

    monkeypatch.setattr(order_kernel, "mul", counting)
    for a in (-1, 3, 50, 977):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        cached = galois_conjugation_matrix(f)
        calls[0] = 0
        assert galois_conjugation_matrix.__wrapped__(f) == cached
        assert calls[0] == 1, a


# ---------------------------------------------------------------------------
# The element value type: hashes, operands, immutability, staged positivity

CONTRACT = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _twin(field):
    """An equal field that is not the same object."""
    return FieldSpec(field.family, field.a, field.minpoly)


@st.composite
def field_and_coords(draw):
    f = draw(FIELDS)
    coords = st.tuples(*[st.integers(-(10**6), 10**6)] * len(f.minpoly))
    return f, draw(coords), draw(coords)


@CONTRACT
@given(field_and_coords())
def test_hashes_are_the_dataclass_hashes(case):
    """Cached field hashes and the element hash have the values that the
    generated dataclass hashes had, so no set or dict order moves."""
    f, u, v = case
    twin = _twin(f)
    want = hash((f.family, f.a, f.minpoly))
    assert twin is not f and twin == f and hash(f) == hash(twin) == want
    x = OrderElement(u, f)
    assert hash(x) == hash(OrderElement(u, twin)) == hash((u, f))
    assert x == OrderElement(u, twin) and len({x, OrderElement(u, twin), OrderElement(v, f)}) == 1 + (u != v)


@CONTRACT
@given(field_and_coords())
def test_sum_and_difference_of_equal_fields(case):
    """The shortcut for one field object must leave equal, distinct fields working."""
    f, u, v = case
    twin = _twin(f)
    x, y = OrderElement(u, f), OrderElement(v, twin)
    total, diff = tuple(map(operator.add, u, v)), tuple(map(operator.sub, u, v))
    assert (x + y).coords == (y + x).coords == total
    assert (x - y).coords == diff and (y - x).coords == tuple(-c for c in diff)
    assert (x + y).field is f and (y - x).field is twin
    k = v[0]
    pad = (0,) * (len(u) - 1)
    assert (x + k).coords == (k + x).coords == tuple(map(operator.add, u, (k,) + pad))
    assert (x - k).coords == tuple(map(operator.sub, u, (k,) + pad))
    assert (k - x).coords == tuple(map(operator.sub, (k,) + pad, u))


def test_field_pickles_rebuild_the_hash():
    """A pickled FieldSpec carries no hash: Family hashes are str hashes,
    which differ between interpreter processes.  Quadratic fields included,
    whose hash now holds their Family too.  The rebuilt fields carry f' too."""
    code = (
        "import pickle, sys\n"
        "from indecomp.order_kernel import Family, make_field\n"
        "from indecomp.quadratic import make_quad_field\n"
        "fields = [make_field(Family.ENNOLA, 5), make_quad_field(13)]\n"
        "if sys.argv[1] == 'dump':\n"
        "    sys.stdout.buffer.write(pickle.dumps(fields))\n"
        "else:\n"
        "    loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "    for f, g in zip(loaded, fields, strict=True):\n"
        "        assert hash(f) == hash((f.family, f.a, f.minpoly)) == hash(g)\n"
        "        assert f in {g} and f.minpoly == g.minpoly\n"
        "        assert f.fprime_coords == g.fprime_coords\n"
        "    assert [f.minpoly for f in loaded] == [(4, -5, -1), (-1, -3)]\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(order_kernel.__file__).resolve().parents[1])}
    dumped = subprocess.run([sys.executable, "-c", code, "dump"], capture_output=True, check=True,
                            env={**env, "PYTHONHASHSEED": "1"}).stdout
    subprocess.run([sys.executable, "-c", code, "load"], input=dumped, check=True,
                   env={**env, "PYTHONHASHSEED": "2"})


@st.composite
def near_boundary_elements(draw):
    """Units, their negatives, conjugates and units moved by a small integer."""
    family = draw(st.sampled_from([Family.SIMPLEST_CUBIC, Family.ENNOLA, Family.THOMAS, None]))
    i, j = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    if family is None:
        x = fundamental_tp_unit(draw(st.integers(2, 400).filter(is_squarefree))) ** i
        if draw(st.booleans()):
            x = conj(x)
    else:
        f = make_field(family, draw(st.integers(order_kernel._FAMILY_RANGES[family], 60)))
        u1, u2 = unit_generators(f).fundamental
        x = mul(u1**i, u2**j)
        if family is Family.SIMPLEST_CUBIC:
            x = conjugate(x, draw(st.integers(0, 2)))
    x = x * draw(st.sampled_from([1, -1])) + draw(st.integers(-2, 2))
    assume(not x.is_zero())
    return x


def _staged_positivity_agrees(x):
    assert is_totally_positive(x) == (min(sym_funcs(x)) > 0), x


@CONTRACT
@given(elements(1))
def test_staged_positivity_equals_all_symmetric_functions(xs):
    assume(not xs[0].is_zero())
    _staged_positivity_agrees(xs[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_boundary_elements())
def test_staged_positivity_near_the_boundary(x):
    _staged_positivity_agrees(x)


def test_hashing_reads_no_family_hash(monkeypatch):
    """Work counter: hashing 1,000 elements and 1,000 `pairing_matrix`
    lookups hash no Family member; the field hashes are computed once."""
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    xs = [elem(f, k, -k, 1) for k in range(1000)]
    pairing_matrix(f)
    calls = [0]
    original = Family.__hash__

    def counting(member):
        calls[0] += 1
        return original(member)

    monkeypatch.setattr(Family, "__hash__", counting)
    hashes = {hash(x) for x in xs}
    for _ in range(1000):
        pairing_matrix(f)
    assert calls[0] == 0 and len(hashes) == 1000
