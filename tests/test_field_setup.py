"""The cold field set-up against its element-based references, and its work counters.

The set-up of a field isolates its roots, builds its unit system and
certifies its trace-one delta.  The references below are the element-based
implementations that the coordinate-tuple code replaced: Fraction seed
brackets, products of order elements and a trace per power of rho.  Each
must give the same result, or raise the same error with the same message.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from indecomp import codifferent, order_kernel
from indecomp.codifferent import (
    CodifferentElement,
    _fprime_inverse_parts,
    certificate_delta,
    checked_delta,
    euler_pairing,
    fprime_element,
    is_totally_positive_codiff,
    monogenicity_certificate,
    MonogenicityStatus,
    pairing_matrix,
    trace_pairing,
)
from indecomp.errors import (
    ConsistencyError,
    NonIntegralTrace,
    NotGalois,
    UnsupportedFamily,
)
from indecomp.integers import is_squarefree
from indecomp.order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    UnitSystem,
    apply_matrix,
    conjugate,
    elem,
    galois_conjugation_matrix,
    is_totally_positive,
    isolate_roots,
    make_custom_field,
    make_field,
    mul,
    norm,
    one,
    rho,
    trace,
    unit_generators,
)
from indecomp.quadratic import make_quad_field

# ---------------------------------------------------------------------------
# References: the element-based set-up


def _seed_intervals_reference(field):
    """Fraction seed brackets for the SimplestCubic roots, a >= 7, or None."""
    if getattr(field, "family", None) is not Family.SIMPLEST_CUBIC or field.a < 7:
        return None
    a = field.a
    seeds = [
        (Fraction(a + 1), Fraction(a * a + a + 2, a)),
        (Fraction(-a - 1, a), Fraction(-2 * a - 1, 2 * a)),
        (Fraction(-1, a + 2), Fraction(-1, a + 3)),
    ]
    for lo, hi in seeds:
        at_lo = order_kernel._sign_at(field.minpoly, lo.numerator, lo.denominator)
        if at_lo * order_kernel._sign_at(field.minpoly, hi.numerator, hi.denominator) >= 0:
            return None
    return seeds


def isolate_roots_reference(field):
    seeds = _seed_intervals_reference(field)
    if seeds:
        pieces = [order_kernel._piece(lo, hi) for lo, hi in seeds]
    else:
        bound = order_kernel._root_bound(field.minpoly)
        pieces = [(-bound, 2 * bound, 1, order_kernel._root_count(field.minpoly, -bound, bound, 1))]
    return order_kernel._root_intervals(field, pieces, order_kernel._default_width(field, 0))


def galois_conjugation_matrix_reference(field):
    if field.family is not Family.SIMPLEST_CUBIC:
        raise NotGalois(f"{field.family.value} family is not handled as Galois")
    a = field.a
    unit, r = one(field), rho(field)
    rp = OrderElement((a + 2, a, -1), field)
    rp2 = mul(rp, rp)
    val = mul(rp2, rp) + field.c2 * rp2 + field.c1 * rp + field.c0 * unit
    if not val.is_zero():
        raise NotGalois("conjugate candidate is not a root")
    cols = [unit.coords, rp.coords, rp2.coords]
    m = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    if apply_matrix(m, apply_matrix(m, rp)) != r:
        raise NotGalois("conjugation matrix does not have order 3")
    if not (mul(r, rp) + r + unit).is_zero():
        raise NotGalois("conjugate candidate is not -1 - 1/rho")
    if order_kernel._sign_at(field.minpoly, 1, 1) >= 0:
        raise NotGalois("conjugate candidate outside (-2,-1)")
    return m


def unit_generators_reference(f):
    a = f.a
    if f.family is Family.SIMPLEST_CUBIC:
        u1 = rho(f)
        u2 = conjugate(u1)
        e1 = u1 * u1
        e2 = OrderElement((1, 2, 1), f)
        rpp = conjugate(u1, 2)
        if mul(OrderElement((1, 1, 0), f), rpp).coords != (-1, 0, 0):
            raise ConsistencyError("(1+rho) * rho'' != -1")
    elif f.family is Family.ENNOLA:
        u1, u2 = rho(f), OrderElement((-1, 1, 0), f)
        e1, e2 = u1 * u1, u1 * u2
    elif f.family is Family.THOMAS:
        u1, u2 = rho(f), OrderElement((-a, 1, 0), f)
        e1, e2 = u1, u2 * u2
    else:
        raise UnsupportedFamily("no unit system for custom cubics")
    for u in (u1, u2):
        if norm(u) not in (1, -1):
            raise ConsistencyError(f"fundamental unit {u} has norm {norm(u)}")
    for e in (e1, e2):
        if norm(e) != 1 or not is_totally_positive(e):
            raise ConsistencyError(f"{e} is not a totally positive unit")
    return UnitSystem((u1, u2), (e1, e2))


def pairing_matrix_reference(field):
    b = euler_pairing(field.minpoly)
    t = b[0] + b[-1][1:]
    adj, det = codifferent._fprime_inverse_parts(field)
    power = one(field)
    for m in range(len(t)):
        tr = trace(apply_matrix(adj, power))
        if tr != t[m] * det:
            raise NonIntegralTrace(f"pairing base Tr(rho^{m}/f') = {Fraction(tr, det)} != {t[m]}")
        power = mul(power, rho(field))
    return b


def certificate_delta_reference(field):
    if field.family is Family.SIMPLEST_CUBIC:
        a = field.a
        scale = a * a + 3 * a + 9
        first = elem(field, -4 - a, -1 - 2 * a, 2)
        second = elem(field, -(a + 2), -a, 1)
        if mul(first, fprime_element(field)).coords != (scale, 0, 0):
            raise NonIntegralTrace("codifferent display identity failed")
        delta = CodifferentElement(second)
    elif field.family is Family.ENNOLA:
        a = field.a
        delta = CodifferentElement(elem(field, -(a - 1), a - 1, 1))
    else:
        raise UnsupportedFamily(f"no certificate delta for {field.family.value}")
    for i, expected in enumerate((1, 0, 1)):
        got = trace_pairing(delta, elem(field, *[1 if j == i else 0 for j in range(3)]))
        if got != expected:
            raise NonIntegralTrace(f"Tr(delta*rho^{i}) = {got}, expected {expected}")
    if not is_totally_positive_codiff(delta):
        raise ConsistencyError(f"certificate delta {delta} is not totally positive")
    return delta


# ---------------------------------------------------------------------------
# Equal results, equal errors

FAMILY_FIELDS = [
    *(make_field(Family.SIMPLEST_CUBIC, a) for a in range(-1, 401)),
    *(make_field(Family.ENNOLA, a) for a in range(3, 61)),
    *(make_field(Family.THOMAS, a) for a in range(2, 61)),
]
CUSTOM_FIELDS = [make_custom_field(*c) for c in ((0, -4, 1), (0, -7, 7), (1, -9, 1), (-3, -17, 41))]
QUAD_FIELDS = [make_quad_field(D) for D in range(2, 201) if is_squarefree(D)]
# FieldSpecs that no constructor builds: a wrong coefficient, or the simplest
# polynomial at a = -2, where f(1) = 1 > 0
TAMPERED = [
    FieldSpec(Family.SIMPLEST_CUBIC, 5, -5, -9, -1),
    FieldSpec(Family.SIMPLEST_CUBIC, 5, -6, -8, -1),
    FieldSpec(Family.SIMPLEST_CUBIC, -2, 2, -1, -1),
    FieldSpec(Family.ENNOLA, 5, 3, -5, -2),
]

CASES = [
    ("isolate_roots", isolate_roots, isolate_roots_reference,
     FAMILY_FIELDS + CUSTOM_FIELDS + QUAD_FIELDS),
    ("galois_conjugation_matrix", galois_conjugation_matrix, galois_conjugation_matrix_reference,
     FAMILY_FIELDS + CUSTOM_FIELDS + TAMPERED),
    ("unit_generators", unit_generators, unit_generators_reference,
     FAMILY_FIELDS + CUSTOM_FIELDS + TAMPERED),
    ("pairing_matrix", pairing_matrix, pairing_matrix_reference,
     FAMILY_FIELDS + CUSTOM_FIELDS + QUAD_FIELDS + TAMPERED),
    ("certificate_delta", certificate_delta, certificate_delta_reference,
     FAMILY_FIELDS + CUSTOM_FIELDS + TAMPERED),
]


def _outcome(fn, field):
    try:
        return "value", fn(field)
    except (ConsistencyError, NonIntegralTrace, NotGalois, UnsupportedFamily) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, cached, reference, fields", CASES, ids=[c[0] for c in CASES])
def test_cold_setup_equals_the_element_reference(name, cached, reference, fields):
    """A cold call gives the reference's result, or its error and message."""
    for field in fields:
        assert _outcome(cached.__wrapped__, field) == _outcome(reference, field), (name, field)


def test_tampered_fields_reach_the_error_paths():
    galois = {_outcome(galois_conjugation_matrix.__wrapped__, f)[1] for f in TAMPERED[:3]}
    assert galois == {"conjugate candidate is not a root", "conjugate candidate outside (-2,-1)"}
    assert _outcome(certificate_delta.__wrapped__, TAMPERED[3])[0] is NonIntegralTrace


def test_checked_delta_fails_as_certificate_delta():
    """The one closed-form check fails with certificate_delta's errors and
    messages: on a tampered field, on a tampered expected vector (simplest,
    Ennola, and the Thomas row-2 vector (1, 3, 3a+6)), and on a numerator
    that is not totally positive."""
    bad = TAMPERED[3]
    ennola = lambda f: checked_delta(elem(f, -(f.a - 1), f.a - 1, 1), (1, 0, 1))
    assert _outcome(ennola, bad) == _outcome(certificate_delta.__wrapped__, bad)
    a = 7
    thomas = make_field(Family.THOMAS, a)
    cases = [
        (certificate_delta(make_field(Family.SIMPLEST_CUBIC, a)).numerator, (1, 0, 1)),
        (certificate_delta(make_field(Family.ENNOLA, a)).numerator, (1, 0, 1)),
        (elem(thomas, a * (a - 1), -(2 * a - 1), 1), (1, 3, 3 * a + 6)),
    ]
    for numerator, vector in cases:
        assert checked_delta(numerator, vector) == CodifferentElement(numerator)
        with pytest.raises(NonIntegralTrace) as tampered:
            checked_delta(numerator, (*vector[:2], vector[2] + 1))
        assert str(tampered.value) == f"Tr(delta*rho^2) = {vector[2]}, expected {vector[2] + 1}"
        with pytest.raises(ConsistencyError) as negated:
            checked_delta(-numerator, tuple(-c for c in vector))
        delta = CodifferentElement(-numerator)
        assert str(negated.value) == f"certificate delta {delta} is not totally positive"


@pytest.mark.parametrize("scale, got", [(2, "1/2"), (-1, "-1")])
def test_pairing_cross_check_fails_alike(monkeypatch, scale, got):
    """A wrong (adjugate, det) of f'(rho) fails both pairing cross-checks at
    the same power with the same message: det doubled, or adj negated."""
    parts = _fprime_inverse_parts.__wrapped__

    def wrong(field):
        adj, det = parts(field)
        return (adj, 2 * det) if scale == 2 else (tuple(tuple(-v for v in row) for row in adj), det)

    monkeypatch.setattr(codifferent, "_fprime_inverse_parts", wrong)
    for field in (make_field(Family.SIMPLEST_CUBIC, 5), make_field(Family.THOMAS, 4), make_quad_field(7)):
        outcome = _outcome(pairing_matrix.__wrapped__, field)
        assert outcome == _outcome(pairing_matrix_reference, field)
        d = len(field.minpoly)  # t_m = 0 for m < d - 1 and t_(d-1) = 1 is the first to fail
        assert outcome == (NonIntegralTrace, f"pairing base Tr(rho^{d - 1}/f') = {got} != 1")


def test_seed_pieces_are_the_reference_brackets():
    """The integer seed pieces (n, gap, den, 1) span the Fraction brackets of
    the reference, and the simplest fields with a < 7 have no seeds."""
    for a in range(7, 401):
        f = make_field(Family.SIMPLEST_CUBIC, a)
        pieces = order_kernel._seed_intervals(f)
        brackets = [(Fraction(n, den), Fraction(n + gap, den)) for n, gap, den, _ in pieces]
        assert brackets == _seed_intervals_reference(f), a
        assert all(count == 1 and den > 0 and gap > 0 for _, gap, den, count in pieces)
    for a in range(-1, 7):
        assert order_kernel._seed_intervals(make_field(Family.SIMPLEST_CUBIC, a)) is None


# ---------------------------------------------------------------------------
# Work counters of one cold set-up

_CACHED = [
    (order_kernel, "make_field"),
    (order_kernel, "isolate_roots"),
    (order_kernel, "galois_conjugation_matrix"),
    (order_kernel, "unit_generators"),
    (codifferent, "fprime_element"),
    (codifferent, "_fprime_inverse_parts"),
    (codifferent, "euler_pairing"),
    (codifferent, "pairing_matrix"),
    (codifferent, "certificate_delta"),
]


def _cold_setup_counts(monkeypatch, family, a):
    """`_sign_at` evaluations and `mul` calls of one set-up with empty caches:
    the field, its roots, its units and, for Ennola and certified simplest
    fields, its certificate delta."""
    for module, name in _CACHED:
        monkeypatch.setattr(module, name, lru_cache(maxsize=None)(getattr(module, name).__wrapped__))
    counts = {"_sign_at": 0, "mul": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(order_kernel, "_sign_at", counting("_sign_at", order_kernel._sign_at))
    wrapped_mul = counting("mul", order_kernel.mul)
    monkeypatch.setattr(order_kernel, "mul", wrapped_mul)
    monkeypatch.setattr(codifferent, "mul", wrapped_mul)
    f = order_kernel.make_field(family, a)
    order_kernel.isolate_roots(f)
    order_kernel.unit_generators(f)
    certified = family is Family.SIMPLEST_CUBIC and (
        monogenicity_certificate(f) is MonogenicityStatus.CERTIFIED_MONOGENIC
    )
    if family is Family.ENNOLA or certified:
        codifferent.certificate_delta(f)
    return counts


@pytest.mark.parametrize(
    "family, a, ceiling",
    [
        (Family.SIMPLEST_CUBIC, 50, {"_sign_at": 42, "mul": 3}),
        (Family.SIMPLEST_CUBIC, 3, {"_sign_at": 79, "mul": 1}),
        (Family.ENNOLA, 5, {"_sign_at": 78, "mul": 3}),
        (Family.THOMAS, 3, {"_sign_at": 76, "mul": 1}),
    ],
    ids=["simplest-50", "simplest-3", "ennola-5", "thomas-3"],
)
def test_cold_setup_work_counts(monkeypatch, family, a, ceiling):
    """Work counter: a cold set-up evaluates f at most this many times and
    multiplies in the order at most this many times; the counts repeat
    exactly on every machine.  The element-based set-up made 56, 84, 83 and
    85 evaluations and 12, 5, 8 and 1 products."""
    counts = _cold_setup_counts(monkeypatch, family, a)
    assert all(0 < counts[k] <= ceiling[k] for k in ceiling), counts
