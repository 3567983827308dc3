"""Verification suites: every claim the library makes, checked end to end.

Each checker returns a CheckResult; the CLI `verify` subcommand and the
acceptance test module both run these, so test and tool cannot drift apart.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import forms, norms, oracle, quadratic
from .codifferent import certified_simplest
from .errors import CertificateFailure, ConsistencyError
from .families import (
    KIND_EXCEPTIONAL,
    KIND_UNIT,
    TrianglePoint,
    fundamental_triangle,
    indecomposables_ennola,
    indecomposables_simplest,
    inventory,
    triangle_norm,
)
from .order_kernel import (
    Family,
    OrderElement,
    conjugate,
    elem,
    make_field,
    mul,
    norm,
    trace,
)

TABLE_SQUAREFREE_COUNTS = {
    -1: 2, 0: 2, 1: 5, 2: 8, 4: 17, 6: 22, 7: 38, 8: 47, 9: 46, 10: 68, 11: 59,
    13: 101, 14: 122, 15: 118, 16: 110, 17: 158, 18: 166, 19: 209, 20: 224,
    22: 272, 23: 272, 24: 265, 25: 341, 26: 275, 27: 346, 28: 404, 29: 455,
    31: 404, 32: 539, 33: 517, 34: 593, 35: 614, 36: 496, 37: 575, 38: 755,
    40: 839, 42: 811, 43: 983, 44: 884, 45: 928, 46: 833, 47: 1157, 49: 1277,
    50: 1166,
}

INVENTORY_A_SET = (-1, 0, 1, 2, 4, 7, 8)
ORBIT_A_RANGES = {Family.ENNOLA: range(3, 9), Family.THOMAS: range(2, 9)}
QUADRATIC_D_SET = (2, 3, 5, 6, 7, 10, 13)

# implementation-derived scaling bands for count_fast(a, X)/a^(2 delta/3)
SCALING_BANDS = {Fraction(1, 2): (Fraction(6, 10), Fraction(9, 10)),
                 Fraction(1): (Fraction(1), Fraction(5, 4))}
SCALING_A_GRID = (50, 100, 200, 400, 800)
IDENTITY_PAIRS = 10**4  # random pairs per identity
IDENTITY_SEED = 20240913


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    data: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def _result(name: str, bad: list, details: str, shown=None, data=None) -> CheckResult:
    """PASS with details when bad is empty, else FAIL with the first `shown` failures."""
    return CheckResult(name, not bad, f"failures: {bad[:shown]}" if bad else details, data or {})


def check_squarefree_table() -> CheckResult:
    """Squarefree-norm counts over all monogenicity-certified a in [-1, 50]."""
    mismatches = []
    for a, expected in sorted(TABLE_SQUAREFREE_COUNTS.items()):
        if not certified_simplest(a):
            raise ConsistencyError(f"table row a = {a} is not certified maximal")
        got = norms.sq_count(a)
        if got != expected:
            mismatches.append((a, got, expected))
    uncertified = [a for a in range(-1, 51) if a not in TABLE_SQUAREFREE_COUNTS]
    extra = [a for a in uncertified if certified_simplest(a)]
    ok = not mismatches and not extra
    details = f"{len(TABLE_SQUAREFREE_COUNTS)} rows reproduced" if ok else (
        f"mismatches {mismatches[:5]}, extra certified {extra}")
    return CheckResult("squarefree-table", ok, details)


def inventory_matches_search(field) -> bool:
    """The closed-form inventory of a cubic field equals the window search.

    Simplest inventories must equal the searched indecomposables as sets of
    coordinates; Ennola and Thomas ones orbit by orbit
    (`oracle.inventories_match`), since the search may pick other unit
    multiples.  Every unit the search lists must have norm +-1.
    """
    inv = oracle.indecomposables_by_search(field)
    closed = [rec.element for rec in inventory(field) if rec.kind != KIND_UNIT]
    if field.family is Family.SIMPLEST_CUBIC:
        ok = sorted(e.coords for e in inv.indecomposables) == sorted(e.coords for e in closed)
    else:
        ok = oracle.inventories_match(closed, inv.indecomposables)
    return ok and all(abs(norm(u)) == 1 for u in inv.units)


def check_inventory_vs_search() -> CheckResult:
    """`inventory_matches_search` for simplest a in INVENTORY_A_SET and
    Ennola and Thomas a in ORBIT_A_RANGES."""
    fields = [make_field(Family.SIMPLEST_CUBIC, a) for a in INVENTORY_A_SET] + [
        make_field(family, a) for family, r in ORBIT_A_RANGES.items() for a in r
    ]
    bad = [(f.family.value, f.a) for f in fields if not inventory_matches_search(f)]
    orbits = ", ".join(f"{f.value} a in {r.start}..{r.stop - 1}" for f, r in ORBIT_A_RANGES.items())
    details = f"exact set equality for a in {INVENTORY_A_SET}; orbit match for {orbits}"
    return _result("inventory-vs-search", bad, details, 2)


def check_trace_certificates() -> CheckResult:
    """Triangle elements have minimal trace 1; the exceptional element has 2."""
    bad = []
    for a in INVENTORY_A_SET:
        for rec in indecomposables_simplest(a):
            got = oracle.min_trace(rec.element, t_max=3)
            want = 2 if rec.kind == KIND_EXCEPTIONAL else 1
            if got is None or got[0] != want:
                bad.append((a, rec.element.coords, got, want))
    return _result("trace-certificates", bad, f"min traces over a in {INVENTORY_A_SET}", 3)


def check_family_traces() -> CheckResult:
    """Ennola a=3: non-units have minimal trace 2; Thomas a=3: 11*rho-2*rho^2 has 3."""
    bad = []
    for rec in indecomposables_ennola(3):
        want = 1 if rec.kind == KIND_UNIT else 2
        got = oracle.min_trace(rec.element, t_max=3)
        if got is None or got[0] != want:
            bad.append(("ennola", rec.element.coords, got))
    ft = make_field(Family.THOMAS, 3)
    got = oracle.min_trace(elem(ft, 0, 11, -2), t_max=4)
    if got is None or got[0] != 3:
        bad.append(("thomas", (0, 11, -2), got))
    return _result("family-traces", bad, "ennola a=3 all 2, thomas a=3 trace 3")


def check_count_ground_truth() -> CheckResult:
    """count_exact equals count_bruteforce for a in 7..16, all X <= a^2, and
    shows the Lemmermeyer-Petho gap: no primitive principal ideal of norm in
    [2, 2a + 2], exactly three of norm 2a + 3."""
    bad = []
    for a in range(7, 17):
        exact = {X: norms.count_exact(a, X) for X in range(1, a * a + 1)}
        for X, ce in exact.items():
            cb = norms.count_bruteforce(a, X)
            if ce != cb:
                bad.append((a, X, ce, cb))
        if (exact[2 * a + 2], exact[2 * a + 3]) != (0, 3):
            bad.append((a, "norm gap", exact[2 * a + 2], exact[2 * a + 3]))
    details = ("full sweep a in 7..16, X in 1..a^2; Lemmermeyer-Petho gap: "
               "0 ideals of norm <= 2a+2, 3 of norm <= 2a+3")
    return _result("count-ground-truth", bad, details, 5)


def check_count_scaling() -> CheckResult:
    """count_fast(a, a^(1+delta)) / a^(2 delta/3) stays in a narrow band.

    a^(2 delta/3) is irrational, so the band membership lo <= cnt/a^(2d/3)
    <= hi is decided exactly by cubing: lo^3 a^(2d) <= cnt^3 <= hi^3 a^(2d).
    """
    bad = []
    observed = {}
    for delta, (lo, hi) in SCALING_BANDS.items():
        two_delta = int(2 * delta)  # 1 or 2
        counts = []
        for a in SCALING_A_GRID:
            X = min(a * a, math.isqrt(a ** (2 + two_delta)))  # floor(a^(1+delta))
            cnt = len(norms.count_fast(a, X))
            counts.append((a, cnt))
            if not (lo**3 * a**two_delta <= cnt**3 <= hi**3 * a**two_delta):
                bad.append((str(delta), a, cnt))
        for (a1, c1) in counts:  # band ratio <= 10, pairwise, exact
            for (a2, c2) in counts:
                if c1**3 * a2**two_delta > 1000 * c2**3 * a1**two_delta:
                    bad.append((str(delta), "band ratio exceeds 10", a1, a2))
        observed[str(delta)] = {
            "counts": counts,
            "band": (float(lo), float(hi)),
            "ratios": [round(c / a ** (2 * float(delta) / 3), 4) for a, c in counts],
        }
    details = f"derived bands held: { {k: v['band'] for k, v in observed.items()} }"
    return _result("count-scaling", bad, details, data=observed)


def check_rank_formulas() -> CheckResult:
    """Rank report values and the nonclassical branch switch at a = 21."""
    bad = []
    rep = forms.rank_report(make_field(Family.SIMPLEST_CUBIC, 7))
    if rep.upper_diag != 228 or rep.lower_classical != 13:
        bad.append(("a=7", rep.upper_diag, rep.lower_classical))
    for a in range(3, 41):
        r = forms.rank_report(make_field(Family.SIMPLEST_CUBIC, a))
        n = (a * a + 3 * a + 8) // 2
        main_branch = r.lower_nonclassical_exact == f"sqrt({n})/3"
        if main_branch != (n >= 240) or (n >= 240) != (a >= 21):
            bad.append(("branch", a))
        if a >= 3 and r.lower_classical < 4:
            bad.append(("ternary", a, r.lower_classical))
    return _result("rank-formulas", bad, "upper 228 / lower 13 at a=7; branch switches at a=21")


def check_quadratic_suite() -> CheckResult:
    """Semiconvergent inventory vs the lattice search, orbit by orbit; certificates for all odd i."""
    bad = []
    for D in QUADRATIC_D_SET:
        window = 4 * D
        closed = [
            r.element
            for r in quadratic.indecomposables_quadratic(D, window)
            if abs(norm(r.element)) != 1
        ]
        found = quadratic.search_indecomposables(D, window)
        if not oracle.inventories_match(closed, found):
            bad.append((D, "inventory mismatch"))
        cf = quadratic.cf_expand(D)
        for i in range(-1, 2 * cf.period_length, 2):
            if i == 1:
                continue  # checked once, by the scaling record below
            try:
                quadratic.trace_one_delta(D, i)
            except CertificateFailure as exc:
                bad.append((D, i, repr(exc)))
        # a refused i = 1 certificate raises CertificateFailure here, as before
        record = quadratic.trace_one_delta_scalings(D, 1)
        if cf.field.one_mod_four and record["literal_trace"] != D:
            bad.append((D, "scaling record", record["literal_trace"]))
    details = f"inventories and certificates for D in {QUADRATIC_D_SET}"
    return _result("quadratic-suite", bad, details, 4)


def check_identities() -> CheckResult:
    """Exact identity suites: norm-of-sum expansion, superadditivity,
    row-norm monotonicity, convergent determinants."""
    rng = random.Random(IDENTITY_SEED)
    bad = []
    field = make_field(Family.SIMPLEST_CUBIC, 7)
    # norm-of-sum expansion via conjugates (Galois family)
    for _ in range(IDENTITY_PAIRS):
        x = OrderElement(tuple(rng.randint(-9, 9) for _ in range(3)), field)
        y = OrderElement(tuple(rng.randint(-9, 9) for _ in range(3)), field)
        lhs = norm(x + y)
        rhs = (
            norm(x)
            + norm(y)
            + trace(mul(mul(x, conjugate(y)), conjugate(y, 2)))
            + trace(mul(mul(x, conjugate(x)), conjugate(y, 2)))
        )
        if lhs != rhs:
            bad.append(("nsum", x.coords, y.coords))
            break
    # superadditivity on random totally positive pairs (squares are tp)
    for _ in range(IDENTITY_PAIRS):
        x = OrderElement(tuple(rng.randint(-5, 5) for _ in range(3)), field)
        y = OrderElement(tuple(rng.randint(-5, 5) for _ in range(3)), field)
        if x.is_zero() or y.is_zero():
            continue
        x2, y2 = mul(x, x), mul(y, y)
        if not oracle.norms_superadditive(norm(x2), norm(y2), norm(x2 + y2)):
            bad.append(("superadd", x.coords, y.coords))
            break
    # row-norm monotonicity inside the fundamental triangle
    for a in range(3, 31):
        domain = set(fundamental_triangle(a))
        for p in domain:
            if TrianglePoint(p.v + 1, p.W) in domain:
                if not triangle_norm(a, p.v, p.W) < triangle_norm(a, p.v + 1, p.W):
                    bad.append(("monotone", a, (p.v, p.W)))
    # convergent determinant identity over two periods
    for D in QUADRATIC_D_SET:
        cf = quadratic.cf_expand(D)
        for i in range(0, 2 * cf.period_length + 2):
            p_i, q_i = cf.convergent_pair(i)
            p_m, q_m = cf.convergent_pair(i - 1)
            if p_i * q_m - p_m * q_i != (-1) ** (i - 1):
                bad.append(("detid", D, i))
    detail = f"{IDENTITY_PAIRS} random pairs per identity, monotonicity to a=30"
    return _result("identity-suites", bad, detail, 3)


def check_universality_windows() -> CheckResult:
    """Window universality checks at (a, trace_bound) in {(1, 6), (2, 4)}."""
    bad = []
    reports = []
    for a, bound in ((1, 6), (2, 4)):
        rep = forms.verify_universality_window(make_field(Family.SIMPLEST_CUBIC, a), bound)
        reports.append((a, bound, rep.checked))
        if rep.failures:
            bad.append((a, bound, rep.failures[:3]))
    return _result("universality-windows", bad, f"windows {reports} with zero counterexamples")


ALL_CHECKS = {
    "squarefree-table": check_squarefree_table,
    "inventory-vs-search": check_inventory_vs_search,
    "trace-certificates": check_trace_certificates,
    "family-traces": check_family_traces,
    "count-ground-truth": check_count_ground_truth,
    "count-scaling": check_count_scaling,
    "rank-formulas": check_rank_formulas,
    "quadratic-suite": check_quadratic_suite,
    "identity-suites": check_identities,
    "universality-windows": check_universality_windows,
}

SUITES = {
    "inventory": ("inventory-vs-search",),
    "traces": ("trace-certificates", "family-traces"),
    "counts": ("squarefree-table", "count-ground-truth", "count-scaling", "identity-suites"),
    "quadratic": ("quadratic-suite",),
    "forms": ("rank-formulas", "universality-windows"),
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        names = list(ALL_CHECKS)
    elif name in SUITES:
        names = list(SUITES[name])
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [ALL_CHECKS[n]() for n in names]
