"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every check runs at its stated tolerance (exact unless noted as a derived
band); the implementations live in indecomp.verify so the CLI `verify`
subcommand runs the identical code.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from indecomp import oracle, verify
from indecomp.order_kernel import Family, make_field, mul, unit_generators


def _run(check):
    result = check()
    print(result.line())
    assert result.passed, result.details
    return result


def test_acceptance_01_squarefree_table():
    """Squarefree-norm table over all 44 certified a in [-1, 50], exact."""
    _run(verify.check_squarefree_table)


def test_acceptance_02_inventory_equals_search():
    """Closed-form inventories equal the exhaustive window search: simplest
    a in {-1, 0, 1, 2, 4, 7, 8} by exact set equality up to unit corners,
    Ennola a = 3..8 and Thomas a = 2..8 orbit by orbit."""
    _run(verify.check_inventory_vs_search)


def test_inventory_rule_compares_simplest_fields_by_coordinates(monkeypatch):
    """`verify.inventory_matches_search`, the one rule of `verify` and of
    `indecomposables --verify-oracle`: a searched element moved to another
    representative of its orbit fails a simplest field, compared by
    coordinates, and passes an Ennola field, compared orbit by orbit; a
    searched unit of norm other than +-1 fails both."""
    search = oracle.indecomposables_by_search
    for family, a, moved_ok in ((Family.SIMPLEST_CUBIC, 2, False), (Family.ENNOLA, 4, True)):
        field = make_field(family, a)
        found = search(field)
        unit = unit_generators(field).totally_positive[0]
        moved = dataclasses.replace(
            found, indecomposables=found.indecomposables[:-1] + (mul(unit, found.indecomposables[-1]),))
        bad_unit = dataclasses.replace(found, units=found.units + found.indecomposables[:1])
        for inv, want in ((found, True), (moved, moved_ok), (bad_unit, False)):
            monkeypatch.setattr(oracle, "indecomposables_by_search", lambda f, inv=inv: inv)
            assert verify.inventory_matches_search(field) is want, (family, inv)


def test_acceptance_03_trace_certificates():
    """Triangle elements have minimal trace 1, the exceptional element 2."""
    _run(verify.check_trace_certificates)


def test_acceptance_04_family_traces():
    """Ennola a=3: every non-unit indecomposable has minimal trace 2;
    Thomas a=3: 11*rho - 2*rho^2 has minimal trace 3."""
    _run(verify.check_family_traces)


def test_acceptance_05_count_ground_truth():
    """count_exact == count_bruteforce for a in 7..16 and every X <= a^2,
    with the Lemmermeyer-Petho gap: 0 ideals of norm <= 2a + 2, 3 of norm
    <= 2a + 3."""
    _run(verify.check_count_ground_truth)


def test_acceptance_06_count_scaling():
    """count_fast(a, a^(1+delta)) / a^(2 delta/3) stays within the derived
    bands (ratio far below 10) over a in {50, 100, 200, 400, 800}."""
    result = _run(verify.check_count_scaling)
    for key, info in result.data.items():
        print(f"  delta={key}: counts {info['counts']} ratios {info['ratios']}")


def test_acceptance_07_rank_formulas():
    """upper 228 and classical lower 13 at a=7; nonclassical branch switches
    exactly at a = 21."""
    _run(verify.check_rank_formulas)


def test_acceptance_08_quadratic_suite():
    """Semiconvergent inventories match the rank-2 search for the tested D;
    all trace-one certificates pass, with the 1 mod 4 scaling resolved."""
    _run(verify.check_quadratic_suite)


def test_acceptance_09_identity_suites():
    """Norm-of-sum expansion and superadditivity on 10^4 random pairs,
    row-norm monotonicity to a = 30, convergent determinant identities."""
    _run(verify.check_identities)


def test_acceptance_10_universality_windows():
    """Constructive universality windows (a, bound) in {(1, 6), (2, 4)}."""
    _run(verify.check_universality_windows)


def test_benchmark_traced_names_resolve():
    """Every function the benchmark traces (TRACED in perfbench/tracer.py, 52
    names) is a callable attribute of its `indecomp` layer.  TRACED is read
    from the source, so no benchmark code is imported."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    names = [(layer, name) for layer, funcs in traced.items() for name in funcs]
    assert names
    missing = [
        f"{layer}.{name}"
        for layer, name in names
        if not callable(getattr(importlib.import_module(f"indecomp.{layer}"), name, None))
    ]
    assert missing == []
