"""CLI subcommands: outputs, exporters, exit codes, determinism."""

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from indecomp import cli
from indecomp.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, main


def test_field_info(capsys):
    assert main(["field-info", "--family", "simplest", "--a", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "monogenic: certified" in out


@pytest.mark.parametrize("family, a", [("thomas", "1024"), ("ennola", str(2**20))])
def test_field_info_with_touching_root_brackets(family, a, capsys):
    """Root brackets that share an endpoint are isolating, not an internal error."""
    assert main(["field-info", "--family", family, "--a", a]) == EXIT_OK
    assert "roots:" in capsys.readouterr().out


def test_bounds_json(tmp_path):
    path = tmp_path / "bounds.json"
    assert main(["bounds", "--family", "simplest", "--a", "7", "--json", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["upper_diag"] == 228
    assert data["lower_classical"] == 13


def test_min_trace_thomas(tmp_path, capsys):
    path = tmp_path / "mt.json"
    rc = main(
        ["min-trace", "--family", "thomas", "--a", "3", "--elem", "0,11,-2",
         "--json", str(path)]
    )
    assert rc == EXIT_OK
    assert "min trace: 3" in capsys.readouterr().out
    assert json.loads(path.read_text())["t"] == 3


def test_sq_table_first_block(tmp_path):
    path = tmp_path / "sq.csv"
    rc = main(["sq-table", "--a-min", "-1", "--a-max", "11", "--csv", str(path)])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    got = {int(a): int(s) for a, s in rows}
    assert got == {-1: 2, 0: 2, 1: 5, 2: 8, 4: 17, 6: 22, 7: 38, 8: 47, 9: 46, 10: 68, 11: 59}


def test_sq_table_resume_and_threads(tmp_path, monkeypatch):
    resume = tmp_path / "resume.json"
    assert main(["sq-table", "--a-min", "-1", "--a-max", "2", "--resume", str(resume)]) == EXIT_OK
    saved = json.loads(resume.read_text())
    assert saved == {"-1": 2, "0": 2, "1": 5, "2": 8}
    # stale entries are reused; a = 4 and a = 6 are left, so --threads 2 runs a real pool
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(
        ["sq-table", "--a-min", "-1", "--a-max", "6", "--resume", str(resume),
         "--threads", "2"]
    ) == EXIT_OK
    assert sizes == [2]
    saved = json.loads(resume.read_text())
    assert saved == {"-1": 2, "0": 2, "1": 5, "2": 8, "4": 17, "6": 22}


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every pool sq-table asks for; the stand-in starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_sq_table_pool_is_sized_by_the_rows_to_compute(tmp_path, pool_sizes, capsys):
    golden = (Path(__file__).parent / "golden" / "sq-table.out").read_text()
    # 11 certified a in [-1, 12]: a pool of 5000 workers is cut to 11
    assert main(["sq-table", "--a-min", "-1", "--a-max", "12", "--threads", "5000"]) == EXIT_OK
    assert capsys.readouterr().out == golden
    assert main(["sq-table", "--a-min", "-1", "--a-max", "12", "--threads", "3"]) == EXIT_OK
    assert capsys.readouterr().out == golden
    assert pool_sizes == [11, 3]
    # one row left to compute runs in this process
    resume = tmp_path / "resume.json"
    resume.write_text('{"-1": 2, "0": 2, "1": 5}\n')
    args = ["sq-table", "--a-min", "-1", "--a-max", "2", "--resume", str(resume)]
    assert main(args + ["--threads", "64"]) == EXIT_OK
    assert main(args + ["--threads", "64"]) == EXIT_OK  # nothing left to compute
    assert pool_sizes == [11, 3]
    assert json.loads(resume.read_text()) == {"-1": 2, "0": 2, "1": 5, "2": 8}


@pytest.mark.parametrize("threads", ["0", "-2", "two", "1.5"])
def test_sq_table_threads_below_one_is_usage_error(threads, pool_sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sq-table", "--a-min", "-1", "--a-max", "2", "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--threads" in err and "Traceback" not in err
    assert pool_sizes == []


@pytest.mark.parametrize(
    "content",
    ['{"-1": 2,', "[[-1, 2]]", '{"a": 2}', '{"-1": "2"}', '{"-1": 2.5}', '{"-1": true}'],
    ids=["not-json", "not-object", "key", "str-value", "float-value", "bool-value"],
)
def test_sq_table_malformed_resume_is_domain_error(tmp_path, capsys, content):
    resume = tmp_path / "resume.json"
    resume.write_text(content)
    assert main(["sq-table", "--a-min", "-1", "--a-max", "2", "--resume", str(resume)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: malformed resume file") and "Traceback" not in err
    assert resume.read_text() == content


@pytest.mark.parametrize("flag", ["--resume", "--json", "--csv"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_sq_table_unusable_path_is_domain_error(tmp_path, capsys, flag, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    assert main(["sq-table", "--a-min", "-1", "--a-max", "2", flag, str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open") and str(path) in err and "Traceback" not in err


def test_count_norms_methods(capsys):
    for method, expected in (("fast", 1), ("exact", 3), ("brute", 3)):
        assert main(["count-norms", "--a", "7", "--x", "17", "--method", method]) == EXIT_OK
        assert f"= {expected}" in capsys.readouterr().out


def test_count_norms_domain_error(capsys):
    assert main(["count-norms", "--a", "7", "--x", "50"]) == EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["fast", "exact", "brute"])
@pytest.mark.parametrize("a", ["-1", "0"])
def test_count_norms_below_a_one_is_one_domain_error(a, method, capsys):
    """Every method shares the domain a >= 1, checked before the range of X."""
    assert main(["count-norms", "--a", a, "--x", "1", "--method", method]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == "error: counting needs a >= 1\n"
    assert captured.out == ""


def test_quadratic_certify(tmp_path, capsys):
    path = tmp_path / "quad.json"
    rc = main(["quadratic", "--d", "13", "--certify", "--json", str(path)])
    assert rc == EXIT_OK
    data = json.loads(path.read_text())
    assert data["period"] == [3]
    assert data["n"] == 3 and data["s_count"] == 3
    assert all(c["ok"] for c in data["certificates"])
    assert data["scaling"]["literal_trace"] == 13


def test_indecomposables_with_oracle(tmp_path):
    path = tmp_path / "inv.json"
    rc = main(
        ["indecomposables", "--family", "ennola", "--a", "3", "--verify-oracle",
         "--json", str(path)]
    )
    assert rc == EXIT_OK
    data = json.loads(path.read_text())
    assert data["count"] == 3
    assert data["oracle_match"] is True
    assert data["records"][0]["element"] == {"coords": [1, 0, 0], "family": "ennola", "a": 3}


@pytest.mark.parametrize("family, a", [("thomas", 2), ("thomas", 3), ("ennola", 4)])
def test_indecomposables_oracle_matches_other_representatives(family, a, capsys):
    # the search returns other representatives of the Thomas unit orbits
    rc = main(["indecomposables", "--family", family, "--a", str(a), "--verify-oracle"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.endswith("oracle match: True\n")


def test_verify_suite(tmp_path, capsys):
    path = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "quadratic", "--json", str(path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] quadratic-suite" in out
    data = json.loads(path.read_text())
    assert all(r["passed"] for r in data["results"])


def test_deterministic_exports(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        main(["bounds", "--family", "simplest", "--a", "10", "--json", str(p)])
    assert p1.read_bytes() == p2.read_bytes()
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for c in (c1, c2):
        main(["sq-table", "--a-min", "-1", "--a-max", "4", "--csv", str(c)])
    assert c1.read_bytes() == c2.read_bytes()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["indecomposables", "--family", "nosuch", "--a", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["field-info", "--family", "simplest", "--a", "7"],
        ["min-trace", "--family", "simplest", "--a", "7", "--elem", "1,0,0"],
        ["count-norms", "--a", "7", "--x", "17"],
        ["bounds", "--family", "simplest", "--a", "7"],
        ["quadratic", "--d", "13"],
        ["verify", "--suite", "forms"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_on_a_non_tabular_subcommand_is_usage_error(argv, tmp_path, capsys):
    """Only indecomposables and sq-table write CSV; elsewhere --csv is not an option."""
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--csv", str(path)])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("elem", ["1,x,2", "1,2", "1,2,3,4", ""])
def test_malformed_elem_is_usage_error(elem, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["min-trace", "--family", "simplest", "--a", "7", "--elem", elem])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(field):
        raise ZeroDivisionError("simulated defect")

    monkeypatch.setattr(cli.forms, "rank_report", broken)
    assert main(["bounds", "--family", "simplest", "--a", "7"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "simulated defect" in err


def test_main_reuses_one_parser(capsys):
    """A usage error leaves the cached parser intact for the next call."""
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["quadratic", "--d", "thirteen"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["quadratic", "--d", "13", "--certify"]) == EXIT_OK
    golden = Path(__file__).parent / "golden" / "quadratic.out"
    assert capsys.readouterr().out == golden.read_text()
