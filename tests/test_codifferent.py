"""Trace pairing, the canonical certificate delta, monogenicity certificates."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indecomp import codifferent, order_kernel, quadratic
from indecomp.codifferent import (
    CodifferentElement,
    MonogenicityStatus,
    _fprime_inverse_parts,
    certificate_delta,
    certified_simplest,
    euler_pairing,
    fprime_element,
    is_totally_positive_codiff,
    monogenicity_certificate,
    numerator_totally_positive,
    pairing_matrix,
    trace_pairing,
)
from indecomp.errors import IndecompError, UnsupportedFamily, ZeroElement
from indecomp.families import indecomposables_simplest
from indecomp.oracle import _context
from indecomp.order_kernel import (
    Family,
    OrderElement,
    elem,
    make_field,
    mul,
    multiplication_matrix,
    one,
    rho,
    make_custom_field,
)
from indecomp.quadratic import make_quad_field, trace_one_delta

RNG = random.Random(555001)


def rand_elem(field, lim=8):
    return OrderElement(tuple(RNG.randint(-lim, lim) for _ in range(3)), field)


def _pairing_by_rational_route(field, gamma, x):
    """Independent Tr(gamma*x/f'(rho)) via exact rational linear algebra."""
    adj, det = _fprime_inverse_parts(field)
    prod = mul(gamma, x)
    inv_coords = [
        Fraction(sum(adj[i][k] * prod.coords[k] for k in range(3)), det) for i in range(3)
    ]
    c2, c1, _ = field.minpoly
    tr = 3 * inv_coords[0] - c2 * inv_coords[1] + (c2 * c2 - 2 * c1) * inv_coords[2]
    assert tr.denominator == 1
    return int(tr)


def test_pairing_integral_and_matches_rational_route():
    for family, a in ((Family.SIMPLEST_CUBIC, 7), (Family.ENNOLA, 4), (Family.THOMAS, 3)):
        f = make_field(family, a)
        for _ in range(400):
            gamma, x = rand_elem(f), rand_elem(f)
            got = trace_pairing(CodifferentElement(gamma), x)
            assert got == _pairing_by_rational_route(f, gamma, x)


def test_pairing_bilinear():
    f = make_field(Family.SIMPLEST_CUBIC, 4)
    for _ in range(300):
        g1, g2, x, y = (rand_elem(f) for _ in range(4))
        d1, d2, d12 = (CodifferentElement(g) for g in (g1, g2, g1 + g2))
        assert trace_pairing(d12, x) == trace_pairing(d1, x) + trace_pairing(d2, x)
        assert trace_pairing(d1, x + y) == trace_pairing(d1, x) + trace_pairing(d1, y)


def test_certificate_delta_closed_form():
    """Tr(delta * (v1 + v2 rho + v3 rho^2)) = v1 + v3 for both families."""
    for field in (make_field(Family.SIMPLEST_CUBIC, 7), make_field(Family.ENNOLA, 5)):
        delta = certificate_delta(field)
        for _ in range(300):
            x = rand_elem(field)
            assert trace_pairing(delta, x) == x.coords[0] + x.coords[2]


def test_certificate_delta_examples():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    delta = certificate_delta(f)
    assert trace_pairing(delta, one(f)) == 1
    assert trace_pairing(delta, rho(f)) == 0
    assert trace_pairing(delta, elem(f, 1, 1, 1)) == 2
    # triangle elements -v - w rho + (v+1) rho^2 pair to 1
    for v, w in ((0, 1), (2, 20), (7, 64)):
        assert trace_pairing(delta, elem(f, -v, -w, v + 1)) == 1


def test_certificate_delta_char_poly_display():
    """(a^2+3a+9)*delta is a root of x^3 - n x^2 + 2n x - n, n = a^2+3a+9."""
    for a in (-1, 0, 1, 2, 4, 7):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        n = a * a + 3 * a + 9
        scaled = CodifferentElement(certificate_delta(f).numerator * n)
        adj, det = _fprime_inverse_parts(f)
        mg = multiplication_matrix(scaled.numerator)
        m = [
            [Fraction(sum(mg[i][k] * adj[k][j] for k in range(3)), det) for j in range(3)]
            for i in range(3)
        ]
        e1 = m[0][0] + m[1][1] + m[2][2]
        e2 = (
            m[0][0] * m[1][1] - m[0][1] * m[1][0]
            + m[0][0] * m[2][2] - m[0][2] * m[2][0]
            + m[1][1] * m[2][2] - m[1][2] * m[2][1]
        )
        e3 = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert (e1, e2, e3) == (n, 2 * n, n)


def test_certificate_delta_totally_positive():
    for a in (-1, 0, 1, 2, 4, 7):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        assert is_totally_positive_codiff(certificate_delta(f))


def test_inverse_fprime_not_totally_positive():
    f = make_field(Family.SIMPLEST_CUBIC, 7)
    assert not is_totally_positive_codiff(CodifferentElement(one(f)))
    # embedding-sign confirmation: f'(rho) has a negative conjugate
    fp = fprime_element(f)
    _, enclosures = _context(f, [fp])
    signs = [1 if lo > 0 else -1 for lo, _ in enclosures[fp]]
    assert -1 in signs and 1 in signs


def test_squares_are_totally_positive_codiff():
    f = make_field(Family.SIMPLEST_CUBIC, 4)
    fp = fprime_element(f)
    for _ in range(100):
        x = rand_elem(f, 4)
        if x.is_zero():
            continue
        # x^2 * f' / f' = x^2 is a totally positive codifferent member
        assert is_totally_positive_codiff(CodifferentElement(mul(mul(x, x), fp)))


def test_codiff_zero_rejected():
    f = make_field(Family.SIMPLEST_CUBIC, 4)
    with pytest.raises(ZeroElement):
        is_totally_positive_codiff(CodifferentElement(elem(f, 0, 0, 0)))


def test_pairing_matrix_shape():
    f = make_field(Family.ENNOLA, 3)
    b = pairing_matrix(f)
    assert b[0][0] == b[0][1] == b[1][0] == 0
    assert b[0][2] == b[1][1] == b[2][0] == 1


def test_monogenicity_certificate():
    cert = MonogenicityStatus.CERTIFIED_MONOGENIC
    unv = MonogenicityStatus.UNVERIFIED
    cases = {7: cert, 0: cert, 5: unv, 6: cert, 3: unv, 9: cert, 12: unv, 41: unv, 2: cert}
    for a, want in cases.items():
        assert monogenicity_certificate(make_field(Family.SIMPLEST_CUBIC, a)) is want, a
    certified = [a for a in range(-1, 51) if certified_simplest(a)]
    assert len(certified) == 44
    assert set(range(-1, 51)) - set(certified) == {3, 5, 12, 21, 30, 39, 41, 48}
    with pytest.raises(UnsupportedFamily):
        monogenicity_certificate(make_field(Family.ENNOLA, 3))


def test_one_pairing_vector_per_certificate(monkeypatch):
    """A loop that pairs one delta with many elements builds its vector once;
    a quadratic trace-one certificate reads the pairing matrix once and
    multiplies no elements."""
    certificate_delta(make_field(Family.SIMPLEST_CUBIC, 40))  # its own checks pair 3 times
    calls = []
    inner = codifferent.dual_pairing_vector

    def counting(field, x):
        calls.append(x)
        return inner(field, x)

    monkeypatch.setattr(codifferent, "dual_pairing_vector", counting)
    indecomposables_simplest.cache_clear()
    assert len(indecomposables_simplest(40)) == 863
    assert len(calls) == 1
    calls.clear()
    products = []

    def counting_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(codifferent, "mul", counting_mul)
    monkeypatch.setattr(order_kernel, "mul", counting_mul)
    rows = []
    monkeypatch.setattr(
        quadratic, "pairing_matrix", lambda field: rows.append(field) or pairing_matrix(field)
    )
    trace_one_delta(94, 1)  # u_3 + 1 = 4 semiconvergents
    assert (len(rows), len(calls), len(products)) == (1, 0, 0)


def test_certificate_delta_unsupported():
    with pytest.raises(UnsupportedFamily):
        certificate_delta(make_field(Family.THOMAS, 2))
    with pytest.raises(UnsupportedFamily):
        certificate_delta(make_custom_field(0, -4, 1))


# ---------------------------------------------------------------------------
# Euler's lemma pairing and the gamma*f' positivity tests, against exact oracles

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
X = sympy.Symbol("X")


@PROPERTY
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=3))
def test_euler_pairing_is_sympy_trace_of_rho_power_over_fprime(minpoly):
    """t_(i+j) = Tr(rho^(i+j)/f'(rho)), computed as a trace of companion-matrix powers;
    the f' of a FieldSpec on that minpoly is sympy's derivative."""
    d = len(minpoly)
    f = sympy.Poly([1, *minpoly], X)
    assume(f.is_irreducible)
    companion = sympy.zeros(d, d)
    for k in range(1, d):
        companion[k, k - 1] = 1
    for k, c in enumerate(reversed(minpoly)):
        companion[k, d - 1] = -c
    fp = f.diff(X).all_coeffs()[::-1]
    family = Family.CUSTOM_CUBIC if d == 3 else Family.QUADRATIC
    assert order_kernel.FieldSpec(family, None, tuple(minpoly)).fprime_coords == tuple(fp)
    inv_fp = sum((c * companion**k for k, c in enumerate(fp)), sympy.zeros(d, d)).inv()
    b = euler_pairing(tuple(minpoly))
    for i in range(d):
        for j in range(d):
            assert b[i][j] == (companion ** (i + j) * inv_fp).trace()


def _custom_or_none(c):
    try:
        return make_custom_field(*c)
    except IndecompError:
        return None


CUBIC_FIELDS = st.one_of(
    st.integers(-1, 60).map(lambda a: make_field(Family.SIMPLEST_CUBIC, a)),
    st.integers(3, 60).map(lambda a: make_field(Family.ENNOLA, a)),
    st.integers(2, 60).map(lambda a: make_field(Family.THOMAS, a)),
    st.tuples(st.integers(-9, 9), st.integers(-40, -1), st.integers(-9, 9))
    .map(_custom_or_none)
    .filter(lambda f: f is not None),
)


def _assert_zero_numerator(field):
    zero = (0,) * len(field.minpoly)
    assert numerator_totally_positive(zero, field) is False
    with pytest.raises(ZeroElement):
        is_totally_positive_codiff(CodifferentElement(OrderElement(zero, field)))


@PROPERTY
@given(CUBIC_FIELDS, st.tuples(*[st.integers(-50, 50)] * 3))
def test_codiff_positivity_matches_embedding_signs(field, coords):
    """gamma/f' >> 0 exactly when every sigma_i(gamma) has the sign of sigma_i(f'),
    by `is_totally_positive_codiff` and by `numerator_totally_positive`; on zero
    the first raises and the second reads False."""
    _assert_zero_numerator(field)
    assume(any(coords))
    gamma = OrderElement(coords, field)
    fp = fprime_element(field)
    _, enclosures = _context(field, [gamma, fp])
    want = all((g > 0) == (f > 0) for (g, _), (f, _) in zip(enclosures[gamma], enclosures[fp]))
    assert is_totally_positive_codiff(CodifferentElement(gamma)) == want
    assert numerator_totally_positive(coords, field) == want


@PROPERTY
@given(
    st.integers(2, 400).filter(lambda D: all(e == 1 for e in sympy.factorint(D).values())),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_quad_codiff_positivity_matches_embedding_signs(D, coords):
    """gamma/sqrt(Delta) >> 0 exactly when sigma_1(gamma) > 0 > sigma_2(gamma),
    by both tests, as in the cubic property."""
    field = make_quad_field(D)
    _assert_zero_numerator(field)
    assume(any(coords))
    x, y = coords
    root = sympy.sqrt(D)
    w, wc = ((1 + root) / 2, (1 - root) / 2) if D % 4 == 1 else (root, -root)
    want = sympy.sign(x + y * w) > 0 and sympy.sign(x + y * wc) < 0
    got = is_totally_positive_codiff(CodifferentElement(OrderElement(coords, field)))
    assert got == bool(want) == numerator_totally_positive(coords, field)
