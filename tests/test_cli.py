"""CLI subcommands: outputs, exporters, exit codes, determinism."""

import json

import pytest

from indecomp import cli
from indecomp.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, main


def test_field_info(capsys):
    assert main(["field-info", "--family", "simplest", "--a", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "monogenic: certified" in out


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


def test_sq_table_resume_and_threads(tmp_path):
    resume = tmp_path / "resume.json"
    assert main(["sq-table", "--a-min", "-1", "--a-max", "2", "--resume", str(resume)]) == EXIT_OK
    saved = json.loads(resume.read_text())
    assert saved == {"-1": 2, "0": 2, "1": 5, "2": 8}
    # stale entries are reused, threads > 1 exercises the pool path
    assert main(
        ["sq-table", "--a-min", "-1", "--a-max", "4", "--resume", str(resume),
         "--threads", "2"]
    ) == EXIT_OK
    saved = json.loads(resume.read_text())
    assert saved["4"] == 17


def test_count_norms_methods(capsys):
    for method, expected in (("fast", 1), ("exact", 3), ("brute", 3)):
        assert main(["count-norms", "--a", "7", "--x", "17", "--method", method]) == EXIT_OK
        assert f"= {expected}" in capsys.readouterr().out


def test_count_norms_domain_error(capsys):
    assert main(["count-norms", "--a", "7", "--x", "50"]) == EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


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
