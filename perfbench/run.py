"""Benchmark runner for indecomp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement happens in a fresh,
single-threaded interpreter (worker.py), so the library's result caches are
cold in each repetition.  With --trace 0 the runner measures set-up in
several processes, then repeats the workload for --seconds (at least three
repetitions) and prints the end-to-end metrics as medians.  With --trace 1
it runs one untraced and one traced repetition and prints per-layer metrics
from the traced one.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record with the commit,
Python version, CPU count, seed, answer digest and sample counts is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("ideal-count", "oracle-search", "universality", "tables")
SETUP_PROCESSES = 3
MIN_REPETITIONS = 3
DEADLINE_S = 170.0  # the whole run must end well inside 180 s

# per-layer metrics, in the order BENCHMARK.json lists them
CALLS_AND_SELF = (
    "order_kernel.mul", "order_kernel.sym_funcs", "order_kernel.embed", "intervals.det",
    "oracle.box_from_embedding", "oracle._context", "oracle.decompose", "oracle._trace_slice",
    "codifferent.is_totally_positive_codiff", "codifferent.trace_pairing", "norms.ideal_hnf",
    "hnf.row_hnf_lower", "forms.decompose_into_indecomposables", "forms.unit_square_root",
    "forms.sum_of_squares_witness", "integers.is_squarefree", "integers.factorize",
    "quadratic.search_indecomposables", "quadratic.decompose_quadratic",
    "quadratic.trace_one_delta", "quadratic.cf_expand",
)
CALLS_ONLY = ("order_kernel.is_totally_positive", "order_kernel.refine_roots")
SELF_ONLY = (
    "order_kernel.isolate_roots", "norms._bruteforce_ideals", "norms.count_fast",
    "forms._window_elements", "families.indecomposables_simplest",
    "families.parallelepiped_candidates", "cli._emit",
)
LAYERS = tuple(TRACED)
SWEEPS = ("count-ground-truth", "inventory-vs-search", "trace-certificates", "family-traces",
          "universality-windows", "squarefree-table", "quadratic-inventory", "count-scaling",
          "rank-formulas")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values, pct: int) -> float:
    """Nearest rank: the smallest value with at least pct% of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.scratch = os.path.join(RESULTS, f"scratch-{os.getpid()}")
        self.count = 0

    def child(self, mode: str) -> dict:
        """Run one worker process and return its record."""
        self.count += 1
        out = os.path.join(self.scratch, f"{mode}-{self.count}.json")
        cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--root", ROOT, "--scratch", self.scratch, "--out", out]
        if self.args.tiny:
            cmd.append("--tiny")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "INDECOMP_THREADS"}
        env["PYTHONHASHSEED"] = "0"
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 1:
            raise BenchError("out of time before all repetitions ran")
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process exceeded the time limit") from None
        except BaseException:  # interrupted: never leave the worker running
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{stderr}{stdout}")
        with open(out) as fh:
            record = json.load(fh)
        # interpreter start to fields built, less input generation and probes,
        # at reference host speed (see hostspeed.py)
        raw = record["setup_end"] - spawned - record["gen_s"] - record["setup_probe_s"]
        record["setup_s"] = raw * record["setup_speed"]
        record["wall_s"] = time.perf_counter() - spawned
        return record


def untraced(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_PROCESSES)]
    reps: list[dict] = []
    t0 = time.perf_counter()
    while True:
        reps.append(runner.child("run"))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPETITIONS and elapsed + typical > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    per_query = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in reps))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in reps), "s"),
        "query_p50_ms": (1000 * percentile(per_query, 50), "ms"),
        "query_p90_ms": (1000 * percentile(per_query, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in reps) / 1024, "MB"),
    }
    samples = {"setup_processes": len(setups), "repetitions": len(reps),
               "queries": len(per_query)}
    return metrics, reps, samples


def traced(runner: Runner) -> tuple[dict, list[dict], dict]:
    plain = runner.child("run")
    rec = runner.child("trace")
    spans = os.path.join(runner.scratch, f"trace-{runner.count}.spans.bin")
    suffix = "-tiny" if runner.args.tiny else ""
    shutil.move(spans, os.path.join(RESULTS, f"{runner.args.workload}{suffix}.spans.bin"))
    metrics = layer_metrics(rec["trace"], rec["step_s"], rec["speed"])
    metrics["trace_overhead"] = (rec["run_s"] / plain["run_s"], "ratio")
    samples = {"spans": rec["trace"]["spans"], "span_names": rec["span_names"]}
    return metrics, [plain, rec], samples


def layer_metrics(trace: dict, step_s: dict, speed: float) -> dict:
    """Per-layer metrics of one traced repetition; times at reference speed."""
    spans = trace["spans_by_name"]
    outcomes = trace["outcomes"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        info = trace["cache_info"].get(name, {})
        return ratio(info.get("hits", 0), info.get("hits", 0) + info.get("misses", 0))

    m = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        m[name + ".calls"] = (stat(name, "calls"), "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[name + ".self_s"] = (stat(name, "self_s") * speed, "s")
    tp = "order_kernel.is_totally_positive"
    m[tp + ".true_ratio"] = (ratio(outcomes[tp + ".true"], stat(tp, "calls")), "ratio")
    m["order_kernel.isolate_roots.hit_ratio"] = (hit_ratio("order_kernel.isolate_roots"), "ratio")
    m["oracle.box_from_embedding.points"] = (outcomes["oracle.box_from_embedding.points"], "count")
    m["oracle._context.refine_rounds"] = (trace["refine_rounds_in_context"], "count")
    m["oracle.decompose.indecomposable_ratio"] = (
        ratio(outcomes["oracle.decompose.none"], stat("oracle.decompose", "calls")), "ratio")
    m["oracle._trace_slice.hits_per_call"] = (
        ratio(outcomes["oracle._trace_slice.hits"], stat("oracle._trace_slice", "calls")), "1/call")
    cd = "codifferent.is_totally_positive_codiff"
    m[cd + ".true_ratio"] = (ratio(outcomes[cd + ".true"], stat(cd, "calls")), "ratio")
    m["norms._bruteforce_ideals.ideals"] = (outcomes["norms._bruteforce_ideals.ideals"], "count")
    m["integers.is_squarefree.hit_ratio"] = (hit_ratio("integers.is_squarefree"), "ratio")
    for layer in LAYERS:
        m[layer + ".self_s"] = (
            speed * sum(s["self_s"] for name, s in spans.items() if name.startswith(layer + ".")),
            "s")
    for sweep in SWEEPS:
        m[f"verify.{sweep}.total_s"] = (step_s.get(sweep, 0.0), "s")
    m["spans"] = (sum(s["calls"] for s in spans.values()), "count")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "indecomp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sweeps and 10 queries, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "indecomp", "__init__.py")):
        print(f"error: no indecomp sources under {ROOT}/src", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args)
    os.makedirs(runner.scratch)
    try:
        if args.trace:
            metrics, reps, samples = traced(runner)
        else:
            metrics, reps, samples = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    digests = sorted({r["digest"] for r in reps})
    if not args.trace:
        metrics["pass_ratio"] = (1 - failed / attempted if attempted else 0.0, "ratio")
    correct = failed == 0 and attempted > 0 and len(digests) == 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": commit(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "digests": digests, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": [f for r in reps for f in r["failures"]][:20],
        "samples": samples,
        "repetitions": [{k: r[k] for k in ("run_s", "run_s_wall", "speed", "probes", "step_s")}
                        for r in reps],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    suffix = "-tiny" if args.tiny else ""
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for f in record["failures"]:
        print(f"FAILED: {f}")
    counts = {k: v for k, v in samples.items() if k != "span_names"}
    print(f"{args.workload} seed={args.seed} digest={digests[0][:16]} samples={counts}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
