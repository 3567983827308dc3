"""Self-check of the benchmark itself, on tiny variants of every workload.

    python3 perfbench/tests/selfcheck.py

Checks, for each workload and one seed:
  * two traced runs give identical answer digests and identical .calls counts;
  * the untraced run's answers equal the traced run's answers;
  * every metric name matches [A-Za-z0-9_.-]+ and the names are exactly those
    BENCHMARK.json lists (end_to_end untraced, per_layer traced);
  * the last output line has exactly the keys correct/attempted/failed/metrics.
Also checks that the tracer restores every binding it replaced, and that the
runner fails without printing a result where no library sources exist.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+")

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def bench(workload: str, trace: int) -> tuple[int, dict | None, dict | None]:
    """(exit code, last-line result, written record) of one tiny run."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return done.returncode, None, None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(RESULTS, f"{workload}-seed{SEED}-trace{trace}-tiny.json")
    with open(path) as fh:
        return 0, result, json.load(fh)


def check_workload(workload: str, spec: dict) -> None:
    runs = [bench(workload, 1), bench(workload, 1), bench(workload, 0)]
    if any(code != 0 for code, _, _ in runs):
        check(False, f"{workload}: every run exits 0 (got {[c for c, _, _ in runs]})")
        return
    (_, t1, r1), (_, t2, r2), (_, u, ru) = runs
    for result in (t1, t2, u):
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{workload}: result line has exactly the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{workload}: answers validate ({result['failed']} of {result['attempted']} failed)")
    check(r1["digests"] == r2["digests"] and len(r1["digests"]) == 1,
          f"{workload}: traced runs give one identical answer digest")
    check(ru["digests"] == r1["digests"], f"{workload}: untraced answers equal traced answers")
    calls1 = {k: v["value"] for k, v in t1["metrics"].items() if k.endswith(".calls")}
    calls2 = {k: v["value"] for k, v in t2["metrics"].items() if k.endswith(".calls")}
    check(calls1 == calls2 and any(calls1.values()),
          f"{workload}: .calls counts repeat exactly across traced runs")
    names = list(t1["metrics"]) + list(u["metrics"])
    check(all(NAME.fullmatch(n) for n in names), f"{workload}: metric names are well formed")
    check(list(u["metrics"]) == [m["name"] for m in spec["end_to_end"]],
          f"{workload}: untraced metrics are exactly BENCHMARK.json's end_to_end")
    check(list(t1["metrics"]) == [m["name"] for m in spec["per_layer"]],
          f"{workload}: traced metrics are exactly BENCHMARK.json's per_layer")


def check_tracer_restores() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import indecomp
    from indecomp import cli, forms, norms, oracle, order_kernel, verify  # noqa: F401
    from tracer import Tracer

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "indecomp"]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    original_mul = order_kernel.mul
    with Tracer(modules) as tracer:
        rebound = {id(m) for m in (norms.mul, oracle.is_totally_positive, forms.mul, indecomp.mul)}
        check(original_mul not in (norms.mul, forms.mul, indecomp.mul),
              "tracer rebinds names imported from order_kernel in other modules")
        check(len(rebound) == 2, "each traced function has a single wrapper")
        check(order_kernel.isolate_roots.cache_info().misses >= 0,
              "lru_cache functions keep a readable cache_info() while traced")
        norms.count_exact(60, 500)
        calls = tracer.summary()["spans"]["order_kernel.mul"]["calls"]
        check(calls > 0, "calls made through norms reach the mul wrapper")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    check(before == after, "every rebound attribute is restored on exit")


def check_needs_sources() -> None:
    empty = os.path.join(RESULTS, "selfcheck-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        shutil.copytree(BENCH, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=empty, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(),
              "without library sources the runner fails and prints no result")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    check_tracer_restores()
    check_needs_sources()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
