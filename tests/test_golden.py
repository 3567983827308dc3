"""Golden CLI exports: fast invocations must reproduce their files byte for byte.

Each case runs one subcommand with ``--json`` (and ``--csv`` where the
command is tabular) and compares stdout and every exported file with the
copies under ``tests/golden/``.  After a deliberate output change, rewrite
the copies with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
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
    "indecomposables": (
        ["indecomposables", "--family", "simplest", "--a", "4", "--verify-oracle"],
        True,
    ),
    "min-trace": (
        ["min-trace", "--family", "thomas", "--a", "3", "--elem", "0,11,-2"],
        False,
    ),
    "count-norms": (["count-norms", "--a", "5", "--x", "25", "--method", "brute"], False),
    "sq-table": (["sq-table", "--a-min", "-1", "--a-max", "12"], True),
    "bounds": (["bounds", "--family", "simplest", "--a", "7"], False),
    "quadratic": (["quadratic", "--d", "13", "--certify"], False),
}


def _run(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case, writing its exports into out_dir; returns file name -> bytes."""
    argv, tabular = CASES[name]
    argv = argv + ["--json", str(out_dir / f"{name}.json")]
    if tabular:
        argv += ["--csv", str(out_dir / f"{name}.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == EXIT_OK
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
