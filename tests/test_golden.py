"""Golden CLI exports: fast invocations must reproduce their files byte for byte.

Each case runs one subcommand with ``--json`` (and ``--csv`` where the
command is tabular) and compares stdout and every exported file with the
copies under ``tests/golden/``.  After a deliberate output change, rewrite
the copies with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.  ``verify-all.json`` and ``verify-all.out`` pin ``verify --suite all
--json``; the CI workflow rewrites them and every other golden, with and
without ``python -O``, and fails on any difference.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from indecomp.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "field-info": (["field-info", "--family", "ennola", "--a", "4"], False),
    # root intervals from the simplest-family seeds (a >= 7)
    "field-info-simplest50": (["field-info", "--family", "simplest", "--a", "50"], False),
    # the simplest family below a = 7 has no seeds and is bracketed
    "field-info-simplest3": (["field-info", "--family", "simplest", "--a", "3"], False),
    # root intervals from the bracket search of [-B, B]
    "field-info-thomas9": (["field-info", "--family", "thomas", "--a", "9"], False),
    # two brackets narrower than the width share the endpoint 1074789375/1048576
    "field-info-thomas1024": (["field-info", "--family", "thomas", "--a", "1024"], False),
    "indecomposables": (
        ["indecomposables", "--family", "simplest", "--a", "4", "--verify-oracle"],
        True,
    ),
    "min-trace": (
        ["min-trace", "--family", "thomas", "--a", "3", "--elem", "0,11,-2"],
        False,
    ),
    # no element past t_max: "t" is null
    "min-trace-none": (
        ["min-trace", "--family", "thomas", "--a", "3", "--elem", "0,11,-2", "--tmax", "1"],
        False,
    ),
    "count-norms": (["count-norms", "--a", "5", "--x", "25", "--method", "brute"], False),
    # an empty "pairs" list
    "count-norms-empty": (["count-norms", "--a", "5", "--x", "1", "--method", "fast"], False),
    # six nested [k, w] pairs
    "count-norms-fast": (["count-norms", "--a", "20", "--x", "400", "--method", "fast"], False),
    "count-norms-exact": (
        ["count-norms", "--a", "400", "--x", "160000", "--method", "exact"],
        False,
    ),
    # the unit rho^2 first, then the six pairs of count-norms-fast
    "count-norms-fast-unit": (
        ["count-norms", "--a", "20", "--x", "400", "--method", "fast", "--include-unit"],
        False,
    ),
    # the unit ideal counted once beside its (k, w) ideals
    "count-norms-exact-unit": (
        ["count-norms", "--a", "137", "--x", "18769", "--method", "exact", "--include-unit"],
        False,
    ),
    "sq-table": (["sq-table", "--a-min", "-1", "--a-max", "12"], True),
    # rows above the paper's a <= 50, which verify does not check
    "sq-table-high": (["sq-table", "--a-min", "51", "--a-max", "60"], True),
    # rows past the benchmark's a <= 60
    "sq-table-wide": (["sq-table", "--a-min", "100", "--a-max", "110"], True),
    "bounds": (["bounds", "--family", "simplest", "--a", "7"], False),
    "quadratic": (["quadratic", "--d", "13", "--certify"], False),
    # D = 2 mod 4 with a 16-term period
    "quadratic-d94": (["quadratic", "--d", "94", "--certify"], False),
    # D = 3 mod 4 with a 26-term period
    "quadratic-d211": (["quadratic", "--d", "211", "--certify"], False),
    # D = 1 mod 4 with a 27-term period
    "quadratic-d409": (["quadratic", "--d", "409", "--certify"], False),
}


def _run(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case, writing its exports into out_dir; returns file name -> bytes."""
    argv, tabular = CASES[name]
    argv = argv + ["--json", str(out_dir / f"{name}.json")]
    if tabular:
        argv += ["--csv", str(out_dir / f"{name}.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != EXIT_OK:
        # a plain check, not assert: python -O would strip the call with it
        pytest.fail(f"{name} exited with {code}")
    (out_dir / f"{name}.out").write_text(stdout.getvalue())
    suffixes = (".out", ".json", ".csv") if tabular else (".out", ".json")
    return {name + s: (out_dir / (name + s)).read_bytes() for s in suffixes}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_export(name, tmp_path):
    for file_name, data in _run(name, tmp_path).items():
        assert data == (GOLDEN / file_name).read_bytes(), file_name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        _run(case, GOLDEN)
    sys.exit(0)
