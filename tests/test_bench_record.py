"""tools/bench_record.py: paired medians, quartiles, wins and digests."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BENCHMARK = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def _write(directory, workload, seed, run_s, digest, commit, trace=0, source=None):
    directory.mkdir(exist_ok=True)
    metrics = {name: {"value": 1.0, "unit": "x"} for name in METRICS}
    metrics["run_s"]["value"] = run_s
    record = {"commit": commit, "source_sha256": source or f"src-{commit}", "python": "3.11",
              "nproc": 2, "digests": [digest], "metrics": metrics}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_bench_record_pairs_seeds_present_on_both_sides(tmp_path):
    parent, change, out = tmp_path / "p", tmp_path / "c", tmp_path / "BENCH.json"
    for seed, (old, new) in enumerate(((1.0, 0.5), (2.0, 0.4), (3.0, 3.5), (4.0, 0.2)), 1):
        _write(parent, "w", seed, old, f"d{seed}", "aaa")
        _write(change, "w", seed, new, f"d{seed}", "bbb")
    _write(parent, "w", 9, 9.0, "x", "aaa")  # unpaired
    _write(change, "w", 1, 99.0, "x", "bbb", trace=1)  # traced: ignored
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["parent"]["commits"] == ["aaa"] and data["change"]["commits"] == ["bbb"]
    w = data["workloads"]["w"]
    assert w["seeds"] == [1, 2, 3, 4] and w["digests_equal"]
    run = w["metrics"]["run_s"]
    assert run["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert run["change"]["median"] == 0.45 and run["change_wins"] == 3
    assert run["parent_iqr"] == 1.5 and run["claim_rule_met"] is False  # 3 of 4 won
    assert w["metrics"]["pass_ratio"]["better"] == "higher"


def test_bench_record_needs_a_common_run(tmp_path, capsys):
    _write(tmp_path / "p", "w", 1, 1.0, "d", "aaa")
    _write(tmp_path / "c", "w", 2, 1.0, "d", "bbb")
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(tmp_path / "p"), str(tmp_path / "c"), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err and not out.exists()


def test_bench_record_names_the_sources_of_each_side(tmp_path):
    """Copies made without git record no commit; the source digests still
    say which code ran on each side, every distinct one of them."""
    parent, change, out = tmp_path / "p", tmp_path / "c", tmp_path / "BENCH.json"
    for seed in (1, 2, 3):
        _write(parent, "w", seed, 1.0, "d", None, source="aaa")
        _write(change, "w", seed, 0.5, "d", None, source="ccc" if seed == 2 else "bbb")
    _write(parent, "w", 9, 1.0, "d", None, source="zzz")  # unpaired: not used
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["parent"]["commits"] == data["change"]["commits"] == ["unknown"]
    assert data["parent"]["source_sha256"] == ["aaa"]
    assert data["change"]["source_sha256"] == ["bbb", "ccc"]


@pytest.mark.parametrize(
    "pairs, shift, lost, met",
    [
        (10, -0.5, 1, True),  # 9 of 10 won, medians 0.5 apart, parent IQR 0.135
        (10, -0.5, 2, False),  # 8 of 10 won
        (10, -0.1, 0, False),  # 10 of 10 won, but the medians are closer than the IQR
        (10, 0.5, 0, False),  # every pair lost
        (9, -0.5, 0, False),  # every pair won, but fewer than ten pairs ran
    ],
)
def test_bench_record_claim_verdict(tmp_path, pairs, shift, lost, met):
    """claim_rule_met: at least ten pairs, the change wins nine tenths of them,
    ties counting for neither, and its median is better by more than the
    parent's IQR."""
    parent, change, out = tmp_path / "p", tmp_path / "c", tmp_path / "BENCH.json"
    for seed in range(pairs):
        old = 1.0 + seed / 10 * 0.3
        new = old if seed < lost else old + shift  # a tie for each lost pair
        _write(parent, "w", seed, old, "d", "aaa")
        _write(change, "w", seed, new, "d", "bbb")
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    run = json.loads(out.read_text())["workloads"]["w"]["metrics"]["run_s"]
    assert run["parent_iqr"] == pytest.approx(0.135 if pairs == 10 else 0.12)
    assert run["claim_rule_met"] is met


def test_bench_record_keeps_the_median_host_speed_of_each_side(tmp_path):
    """The median of `repetitions[].speed` over the paired runs of one side:
    a change side that ran on a slowed host shows it."""
    parent, change, out = tmp_path / "p", tmp_path / "c", tmp_path / "BENCH.json"
    for seed, (old, new) in enumerate((((1.0, 0.9), (0.5,)), ((0.8,), (0.4, 0.6, 0.45)))):
        for directory, speeds in ((parent, old), (change, new)):
            _write(directory, "w", seed, 1.0, "d", "aaa")
            path = directory / f"w-seed{seed}-trace0.json"
            record = json.loads(path.read_text())
            record["repetitions"] = [{"run_s": 1.0, "speed": s} for s in speeds]
            path.write_text(json.dumps(record))
    _write(parent, "v", 1, 1.0, "d", "aaa")  # records without repetitions
    _write(change, "v", 1, 1.0, "d", "bbb")
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["w"]["host_speed"] == {"parent": 0.9, "change": 0.475}
    assert workloads["v"]["host_speed"] == {"parent": None, "change": None}


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ((1.0, 1.0, 1.0, 1.0), (1.2, 1.2, 1.2, 1.2), "yes"),  # 20% worse, bound 25%
        ((1.0, 1.0, 1.0, 1.0), (1.3, 1.3, 1.3, 1.3), "no"),  # 30% worse
        ((1.0, 2.0, 3.0, 4.0), (2.5, 0.5, 0.6, 0.7), "unresolved"),  # parent IQR 60% of median
        ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4), "yes"),  # as wide, but every run beats
        ((1.0, 2.0, 3.0, 4.0), (4.5, 5.0, 5.5, 6.0), "unresolved"),  # and every run loses
    ],
)
def test_bench_record_no_regression_verdict(tmp_path, old, new, verdict):
    """no_regression against the metric's relative bound in BENCHMARK.json
    (0.25 for run_s): the medians decide unless the parent's own IQR is wider
    than the bound and not every change run beats every parent run."""
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bound["run_s"] == 0.25
    parent, change, out = tmp_path / "p", tmp_path / "c", tmp_path / "BENCH.json"
    for seed, (before, after) in enumerate(zip(old, new)):
        _write(parent, "w", seed, before, "d", "aaa")
        _write(change, "w", seed, after, "d", "bbb")
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    assert metrics["run_s"]["no_regression"] == verdict
    assert metrics["pass_ratio"]["no_regression"] == "yes"  # equal on both sides
