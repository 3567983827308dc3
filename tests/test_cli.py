"""CLI subcommands: outputs, exporters, exit codes, determinism."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecomp import cli
from indecomp.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY_FAIL, main


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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


def test_importing_the_cli_loads_no_process_pool():
    """The pool machinery loads only for sq-table --threads N > 1, not on
    every CLI call: a fresh interpreter that imports the CLI has neither
    multiprocessing nor the process-pool module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, indecomp.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def test_sq_table_refuses_a_row_over_the_orbit_guard(tmp_path):
    """A row of 1.7e9 triangle orbits (a = 100000, certified) would run for
    hours: the table exits 3 before any row is computed, so it prints no row
    and writes no checkpoint."""
    resume = tmp_path / "rows.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "indecomp", "sq-table", "--a-min", "99990", "--a-max", "100000",
         "--resume", str(resume)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 3
    assert done.stdout == "" and "sq_count(100000) visits 1666716667 triangle orbits" in done.stderr
    assert not resume.exists()


def test_thomas_inventory_at_a_200_needs_no_search():
    """The Thomas row-2 certificate is a closed form, so a = 200 lists its
    401 records well inside the timeout; a run-time search for it took over
    60 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "indecomp", "indecomposables", "--family", "thomas", "--a", "200"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 0
    head, *rows = done.stdout.splitlines()
    assert head.startswith("401 indecomposable representatives") and len(rows) == 401


def test_closed_stdout_exits_141_quietly():
    """A reader that stops after one line (`| head -1`) ends the run with the
    shell's SIGPIPE code 141 and nothing on stderr.  The 279 kB of a = 3000
    overfill a 64 kB pipe, so the write that fails comes while the run prints."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "indecomp", "indecomposables", "--family", "thomas", "--a", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert first.startswith(b"6001 indecomposable representatives")
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"") and cli.EXIT_BROKEN_PIPE == 141


def test_sq_table_refuses_a_huge_range_before_certifying_it(tmp_path):
    """The guard row is found by scanning down from --a-max, so a range of
    100,001 rows is refused without certifying each of them first."""
    resume = tmp_path / "rows.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "indecomp", "sq-table", "--a-min", "1000000", "--a-max", "1100000",
         "--resume", str(resume)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 3
    assert done.stdout == "" and "sq_count(1100000) visits" in done.stderr
    assert not resume.exists()


def test_sq_table_guards_the_largest_row_not_yet_done(tmp_path, monkeypatch):
    """Rows already in the checkpoint are not guarded again: the scan from
    --a-max skips them and the rows that are not certified (a = 3)."""
    resume = tmp_path / "rows.json"
    resume.write_text(json.dumps({"4": 3}))
    guarded = []
    monkeypatch.setattr(cli.norms, "sq_guard", guarded.append)
    assert main(["sq-table", "--a-min", "-1", "--a-max", "4", "--resume", str(resume)]) == EXIT_OK
    assert guarded == [2, -1, 0, 1, 2]  # then sq_count guards each row it computes


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


@pytest.mark.parametrize("D", [2, 3, 5, 13, 17, 94, 211, 409])
def test_quadratic_scaling_record_is_that_of_trace_one_delta_scalings(D, tmp_path, capsys):
    """The record is read off the i = 1 certificate of the loop, with no second check."""
    from indecomp import quadratic

    path = tmp_path / "quad.json"
    assert main(["quadratic", "--d", str(D), "--certify", "--json", str(path)]) == EXIT_OK
    record = quadratic.trace_one_delta_scalings(D, 1)
    assert json.loads(path.read_text())["scaling"] == {
        "passing": record["passing"], "literal_trace": record["literal_trace"]}


def _failing_certificate(monkeypatch, index):
    from indecomp import quadratic

    checks = quadratic._delta_checks
    monkeypatch.setattr(quadratic, "_delta_checks",
                        lambda cf, g0, g1, i: i != index and checks(cf, g0, g1, i))


def test_quadratic_failing_first_certificate_is_a_domain_error(monkeypatch, capsys):
    """The scaling record rests on the i = 1 certificate: when it fails the
    command exits 3 with its message, after the expansion line only."""
    _failing_certificate(monkeypatch, 1)
    assert main(["quadratic", "--d", "13", "--certify"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "xi_13 = [1; [3] repeating], n = 3, #S = 3\n"
    assert captured.err == "error: certificate checks failed for D=13, i=1\n"


def test_quadratic_failing_later_certificate_is_a_verification_failure(monkeypatch, tmp_path):
    _failing_certificate(monkeypatch, -1)
    path = tmp_path / "quad.json"
    assert main(["quadratic", "--d", "13", "--certify", "--json", str(path)]) == EXIT_VERIFY_FAIL
    data = json.loads(path.read_text())
    assert [c["ok"] for c in data["certificates"]] == [False, True]
    assert data["certificates"][0]["error"] == "certificate checks failed for D=13, i=-1"
    assert data["scaling"] == {"passing": "literal/D", "literal_trace": 13}


def test_verify_reports_a_failing_first_certificate_as_a_failure(monkeypatch, capsys):
    """A refused i = 1 certificate fails the quadratic suite: every check
    still prints its line and `verify` exits 1."""
    from indecomp.errors import CertificateFailure
    from indecomp.verify import QUADRATIC_D_SET

    _failing_certificate(monkeypatch, 1)
    assert main(["verify", "--suite", "all"]) == EXIT_VERIFY_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    shown = [
        (D, 1, repr(CertificateFailure(f"certificate checks failed for D={D}, i=1")))
        for D in QUADRATIC_D_SET[:4]
    ]
    assert [line for line in lines if not line.startswith("[PASS] ")] == [
        f"[FAIL] quadratic-suite: failures: {shown}"
    ]


@pytest.mark.parametrize("faulty", [{-1}, {-1, 1}])
def test_an_internal_fault_in_a_certificate_is_an_internal_error(monkeypatch, capsys, faulty):
    """Only a failed certificate check is a certificate failure: a
    ConsistencyError raised inside the checks exits 4 from both the command
    and the verify suite, at the first index or at every one."""
    from indecomp import quadratic
    from indecomp.errors import ConsistencyError

    checks = quadratic._delta_checks

    def broken(cf, g0, g1, i):
        if i in faulty:
            raise ConsistencyError("broken certificate arithmetic")
        return checks(cf, g0, g1, i)

    monkeypatch.setattr(quadratic, "_delta_checks", broken)
    assert main(["quadratic", "--d", "13", "--certify"]) == EXIT_INTERNAL
    assert main(["verify", "--suite", "quadratic"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: broken certificate arithmetic\n" * 2


def test_count_norms_refuses_a_ratio_over_the_guard():
    """X // a = 10^9 would run for well over 20 s: the count exits 3 at once."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for method in ("exact", "fast"):
        done = subprocess.run(
            [sys.executable, "-m", "indecomp", "count-norms", "--a", "1000000000",
             "--x", "1000000000000000000", "--method", method],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert done.returncode == EXIT_DOMAIN and done.stdout == ""
        assert done.stderr == (
            "error: counting is guarded to X // a <= 100000000, got 1000000000\n")


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


def test_indecomposables_oracle_is_the_verify_rule(monkeypatch, capsys):
    """`--verify-oracle` reports `verify.inventory_matches_search` and exits 1 when it fails."""
    calls = []
    monkeypatch.setattr(cli.verify, "inventory_matches_search",
                        lambda field: calls.append((field.family.value, field.a)) or False)
    assert main(["indecomposables", "--family", "simplest", "--a", "2", "--verify-oracle"]) == (
        EXIT_VERIFY_FAIL)
    assert calls == [("simplest", 2)]
    assert capsys.readouterr().out.endswith("oracle match: False\n")


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


@pytest.mark.parametrize("family", ["custom", "quadratic"])
def test_family_choices_are_the_three_cubic_families(family, capsys):
    """Custom cubics and quadratic fields have their own constructors, so
    --family offers only the parametrized cubic families."""
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", family, "--a", "5"])
    assert exc.value.code == 2
    assert "{ennola,simplest,thomas}" in capsys.readouterr().err


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


def test_elem_with_a_leading_minus_sign_in_both_spellings(capsys):
    """A triangle element (-v, -w, v + 1) starts with a minus sign; `--elem V`
    reads it as `--elem=V` does."""
    outputs = []
    for spelling in (["--elem", "-1,-6,2"], ["--elem=-1,-6,2"]):
        assert main(["min-trace", "--family", "simplest", "--a", "3", *spelling]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("min trace: 1 ")


@pytest.mark.parametrize("elem", ["1,x,2", "1,2", "1,2,3,4", "", "-1,-6", "-1,x,2", "--tmax"])
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


JSON_VALUES = st.recursive(
    # text covers non-ASCII and control characters; floats include nan and inf
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.name
)
def test_json_writer_rewrites_every_golden(path):
    data = path.read_bytes()
    assert (cli._json_text(json.loads(data)) + "\n").encode() == data


@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": {None: 1}}, object(), [1, {"x": object()}], {1, 2}, b"x"]
)
def test_json_writer_raises_on_other_keys_and_values(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
