"""Real quadratic fields Q(sqrt(D)): continued fractions, semiconvergents,
indecomposables, trace-one certificates, and the period-based counts.

The field is `make_quad_field(D)`, the order_kernel.FieldSpec of family
QUADRATIC with a = D, and elements are OrderElement pairs over the basis
(1, omega_D), omega_D a root of x^2 - Tr(omega) x + N(omega); the codifferent is
(1/sqrt(Delta)) Z[omega_D] = (1/f'(omega_D)) Z[omega_D], so order_kernel,
codifferent, oracle and norms.ideal_hnf serve these fields as they serve
the cubic ones; the ground-truth search filters the inventory of
`oracle.indecomposables_by_search` over the parallelepiped (1, eps).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .codifferent import (
    CodifferentElement,
    is_totally_positive_codiff,
    numerator_totally_positive,
    pairing_matrix,
    trace_pairing,
)
from .errors import (
    CertificateFailure,
    ConsistencyError,
    IllegalParameter,
    IndexOutOfRange,
    NotSquarefree,
    RefinementLimit,
)
from .families import KIND_CONJUGATE, KIND_SEMICONVERGENT, IndecomposableRecord
from .integers import is_squarefree
from .norms import ideal_hnf
from .oracle import decompose, indecomposables_by_search
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    is_totally_positive,
    norm,
)

__all__ = [
    "CFExpansion",
    "make_quad_field",
    "conj",
    "cf_expand",
    "semiconvergent",
    "indecomposables_quadratic",
    "trace_one_numerator",
    "trace_one_delta",
    "trace_one_delta_scalings",
    "quad_counts",
    "decompose_quadratic",
    "search_indecomposables",
    "quad_ideal_hnf",
]


@lru_cache(maxsize=None)
def make_quad_field(D: int) -> FieldSpec:
    """Z[omega_D] for squarefree D > 1, omega = sqrt(D) or (1+sqrt(D))/2: the
    FieldSpec of family QUADRATIC with a = D, omega a root of
    x^2 - Tr(omega) x + N(omega), so minpoly = (-Tr, N)."""
    if D <= 1:
        raise IllegalParameter("D must exceed 1")
    if not is_squarefree(D):
        raise NotSquarefree(f"D = {D} is not squarefree")
    return FieldSpec(Family.QUADRATIC, D, (-1, (1 - D) // 4) if D % 4 == 1 else (0, -D))


def conj(alpha: OrderElement) -> OrderElement:
    """The Galois conjugate: x + y*omega' = (x + Tr(omega)*y) - y*omega."""
    x, y = alpha.coords
    return OrderElement((x - alpha.field.minpoly[0] * y, -y), alpha.field)


# ---------------------------------------------------------------------------
# Periodic continued fractions of xi_D


class CFExpansion:
    """Periodic continued fraction of xi_D = -omega'_D, with convergent tables.

    xi_D = [u0; period] is purely periodic after u0; convergents alpha_i =
    p_i + q_i * omega_D start at i = -1 with (p, q) = (1, 0).
    """

    def __init__(self, field: FieldSpec, u0: int, period: tuple[int, ...]):
        self.field = field
        self.u0 = u0
        self.period = period
        self._p = [1, u0]
        self._q = [0, 1]

    @property
    def period_length(self) -> int:
        return len(self.period)

    def u(self, i: int) -> int:
        if i < 0:
            raise IndexOutOfRange("partial quotients start at index 0")
        if i == 0:
            return self.u0
        return self.period[(i - 1) % len(self.period)]

    def _ensure(self, i: int) -> None:
        """Fill the tables up to the convergent i, which is entry i + 1."""
        P, Q, period = self._p, self._q, self.period
        for k in range(len(P) - 2, i):  # entry k + 2 is the convergent k + 1, by u_{k+1}
            u = period[k % len(period)]
            P.append(u * P[-1] + P[-2])
            Q.append(u * Q[-1] + Q[-2])

    def convergent_pair(self, i: int) -> tuple[int, int]:
        if i < -1:
            raise IndexOutOfRange("convergents start at i = -1")
        self._ensure(i)
        return self._p[i + 1], self._q[i + 1]

    def convergent(self, i: int) -> OrderElement:
        return OrderElement(self.convergent_pair(i), self.field)

    def __repr__(self):
        return f"CF(xi_{self.field.a} = [{self.u0}; {list(self.period)} repeating])"


@lru_cache(maxsize=None)
def cf_expand(D: int) -> CFExpansion:
    """Exact periodic expansion via the integer quadratic-surd recurrence."""
    field = make_quad_field(D)
    s = math.isqrt(D)
    # xi = (p + sqrt(D))/q: (sqrt(D) - 1)/2 or sqrt(D)
    p, q = (-1, 2) if D % 4 == 1 else (0, 1)
    terms, first_state = [], None
    for _ in range(4 * D + 11):
        if q <= 0 or (D - p * p) % q:
            raise ConsistencyError(f"surd recurrence left its invariant at D={D}")
        u = (p + s) // q
        terms.append(u)
        p = u * q - p
        q = (D - p * p) // q
        if first_state is None:
            first_state = (p, q)
        elif (p, q) == first_state:
            return CFExpansion(field, terms[0], tuple(terms[1:]))
    raise RefinementLimit("continued fraction failed to close")


def semiconvergent(D: int, i: int, r: int) -> OrderElement:
    """alpha_{i,r} = alpha_i + r*alpha_{i+1}; r may equal u_{i+2}."""
    cf = cf_expand(D)
    if i < -1:
        raise IndexOutOfRange("semiconvergents start at i = -1")
    if not 0 <= r <= cf.u(i + 2):
        raise IndexOutOfRange(f"r = {r} outside [0, u_{i+2} = {cf.u(i + 2)}]")
    p_i, q_i = cf.convergent_pair(i)
    p_n, q_n = cf.convergent_pair(i + 1)
    return OrderElement((p_i + r * p_n, q_i + r * q_n), cf.field)


def indecomposables_quadratic(D: int, norm_bound: int) -> list[IndecomposableRecord]:
    """Totally positive semiconvergents (i odd) and conjugates, norm <= bound,
    each indexed by its (i, r).

    Semiconvergent indices run over two full periods (odd i from -1), which
    covers every orbit under totally positive units at least once.
    """
    if norm_bound < 1:
        raise IllegalParameter("norm_bound must be >= 1")
    cf = cf_expand(D)
    out = []
    i_max = 4 * cf.period_length
    for i in range(-1, i_max + 1, 2):
        for r in range(0, cf.u(i + 2)):
            el = semiconvergent(D, i, r)
            if el.is_zero() or not is_totally_positive(el) or norm(el) > norm_bound:
                continue
            out.append(IndecomposableRecord(el, KIND_SEMICONVERGENT, (i, r), None))
            cj = conj(el)
            if cj != el:
                out.append(IndecomposableRecord(cj, KIND_CONJUGATE, (i, r), None))
    return out


# ---------------------------------------------------------------------------
# Codifferent and trace-one certificates


def _delta_checks(cf: CFExpansion, g0: int, g1: int, i: int) -> bool:
    """Tr(alpha_{i,r} * delta) = 1 for all 0 <= r <= u_{i+2}, and delta >> 0, for
    delta = (g0 + g1*omega)/f'(omega), in integers on the convergent tables.

    alpha_{i,r} = alpha_i + r*alpha_{i+1} pairs to t_i + r*t_{i+1}, with t_j the
    pairing (rows of `pairing_matrix`) with (p_j, q_j); as u_{i+2} >= 1, that is
    1 for every r iff t_i = 1 and t_{i+1} = 0; delta >> 0 is
    `numerator_totally_positive`, the rule of every search.
    """
    field = cf.field
    (p0, q0), (p1, q1) = cf.convergent_pair(i), cf.convergent_pair(i + 1)
    (b00, b01), (b10, b11) = pairing_matrix(field)
    c0, c1 = b00 * g0 + b01 * g1, b10 * g0 + b11 * g1
    if c0 * p0 + c1 * q0 != 1 or c0 * p1 + c1 * q1 != 0:
        return False
    return numerator_totally_positive((g0, g1), field)


def trace_one_numerator(D: int, i: int) -> tuple[int, int]:
    """The numerator coordinates of the certificate delta_i, checked.

    For D = 2,3 mod 4: delta = (-p_{i+1} + q_{i+1}*sqrt(D)) / (2*sqrt(D)).
    For D = 1 mod 4 the right scaling of the analogous element is fixed by
    requiring both certificate checks; see trace_one_delta_scalings.
    """
    if i < -1 or i % 2 == 0:
        raise IndexOutOfRange("certificates exist for odd i >= -1")
    cf = cf_expand(D)
    p, q = cf.convergent_pair(i + 1)
    g0 = -p - q if D % 4 == 1 else -p
    if not _delta_checks(cf, g0, q, i):
        raise CertificateFailure(f"certificate checks failed for D={D}, i={i}")
    return g0, q


def trace_one_delta(D: int, i: int) -> CodifferentElement:
    """delta_i for the odd-index semiconvergent family, built once it is checked."""
    return CodifferentElement(OrderElement(trace_one_numerator(D, i), make_quad_field(D)))


def trace_one_delta_scalings(D: int, i: int) -> dict[str, object]:
    """Resolution record for the D = 1 mod 4 certificate scaling.

    Interpreted literally, -sqrt(D)*(p_{i+1} + q_{i+1}*(1-sqrt(D))/2) is D
    times the working certificate: it stays in the codifferent and totally
    positive but pairs to D, not 1.  The record reports both candidates.
    """
    delta = trace_one_delta(D, i)
    if D % 4 != 1:
        return {"passing": "direct", "delta": delta, "literal_trace": 1}
    # literal display times sqrt(D)/sqrt(D): numerator over sqrt(Delta)=sqrt(D)
    literal = CodifferentElement(delta.numerator * D)
    return {
        "passing": "literal/D",
        "delta": delta,
        "literal_trace": trace_pairing(literal, semiconvergent(D, i, 0)),
        "literal_totally_positive": is_totally_positive_codiff(literal),
    }


# ---------------------------------------------------------------------------
# Period-based counts


def quad_counts(D: int) -> tuple[int, int]:
    """(n, #S) from the continued fraction period."""
    cf = cf_expand(D)
    s = cf.period_length
    if s % 2 == 0:
        n = max(cf.u(i) for i in range(1, s) if i % 2 == 1) + 1
    else:
        n = 2 * cf.u(s - 1) + 1
    s_count = sum(cf.u(2 * j - 1) for j in range(1, s + 1))
    return n, s_count


# ---------------------------------------------------------------------------
# The totally positive unit and the ground-truth search


def decompose_quadratic(alpha: OrderElement) -> Optional[tuple[OrderElement, OrderElement]]:
    """oracle.decompose on a quadratic element."""
    return decompose(alpha)


@lru_cache(maxsize=None)
def fundamental_tp_unit(D: int) -> OrderElement:
    """Generator of the totally positive unit group (above the roots of unity)."""
    cf = cf_expand(D)
    eps = cf.convergent(cf.period_length - 1)
    if norm(eps) not in (1, -1):
        raise ConsistencyError(f"period convergent of D={D} is not a unit")
    if norm(eps) == -1:
        eps = eps * eps
    if norm(eps) != 1 or not is_totally_positive(eps):
        raise ConsistencyError(f"unit of D={D} is not totally positive")
    return eps


def quad_ideal_hnf(beta: OrderElement):
    """Canonical HNF rows of the ideal beta * Z[omega]."""
    return ideal_hnf(beta).rows


def search_indecomposables(D: int, norm_bound: int) -> list[OrderElement]:
    """Ground-truth inventory: the indecomposables of
    `oracle.indecomposables_by_search` over the window (1, eps0), the cubic
    fields' search too, with 1 < norm <= bound, sorted by coordinates."""
    found = indecomposables_by_search(make_quad_field(D)).indecomposables
    return [el for el in found if 1 < norm(el) <= norm_bound]
