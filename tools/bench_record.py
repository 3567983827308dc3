"""Turn two perfbench result directories into one committed BENCH record.

    python3 tools/bench_record.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_N.json

PARENT_RESULTS and CHANGE_RESULTS are `perfbench/results` directories of two
checkouts, filled by `python3 perfbench/run.py --workload W --seed S
--seconds 26 --trace 0` runs.  Only untraced, full-size records are read.  A
(workload, seed) pair counts when both directories hold it.  For each
workload the record holds, per side, every end-to-end metric's median and
quartiles over the paired seeds, how many pairs the change won on that
metric, the parent's interquartile range, whether the claim rule holds
(`claim_rule_met`: at least ten pairs, of which the change won at least nine
tenths, ties counting for neither, and its median better than the parent's by
more than that range), the no-regression verdict (`no_regression`: "yes", "no" or
"unresolved", against the metric's relative `bound` in BENCHMARK.json; see
`no_regression`), the answer digests of each seed on both sides, per side the
median host-speed ratio over every repetition of the paired runs (`repetitions[].speed`,
the host's speed against perfbench's reference; null when no run records one), so a
pair set slowed by other load on the host shows, and per side the commits and the
`source_sha256` digests of the sources that ran.  Quartiles are
`statistics.quantiles(values, n=4, method="inclusive")`.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load(directory: str) -> dict[tuple[str, int], dict]:
    """Untraced, full-size records of one results directory by (workload, seed)."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        match = RECORD.fullmatch(os.path.basename(path))
        if match:
            with open(path) as fh:
                out[match["workload"], int(match["seed"])] = json.load(fh)
    return out


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def host_speed(records: list[dict]) -> float | None:
    """Median `speed` over every repetition of the records, None without any."""
    speeds = [rep["speed"] for r in records for rep in r.get("repetitions", ())]
    return statistics.median(speeds) if speeds else None


def _relative(delta: float, base: float) -> float:
    """delta as a share of |base|; on a zero base a positive delta is infinite
    and any other is 0."""
    if base:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def no_regression(old: list[float], new: list[float], sign: int, bound: float) -> str:
    """The no-regression verdict on one metric, with `bound` its relative bound.

    "unresolved" when the parent's interquartile range, relative to its
    median, is wider than the bound and not every change run beats every
    parent run; else "no" when the change's median is worse than the
    parent's by more than the bound, relative to the parent's median, and
    "yes" otherwise.  sign is -1 when lower is better, 1 when higher is.
    """
    before, after = spread(old), spread(new)
    all_beat = all(sign * (b - a) > 0 for a in old for b in new)
    if _relative(before["q3"] - before["q1"], before["median"]) > bound and not all_beat:
        return "unresolved"
    worse = sign * (before["median"] - after["median"])
    return "no" if _relative(worse, before["median"]) > bound else "yes"


def side(records: list[dict]) -> dict:
    return {
        "commits": sorted({r["commit"] or "unknown" for r in records}),
        # the digest of src/indecomp: it names the code where no git checkout was at hand
        "source_sha256": sorted({r["source_sha256"] for r in records}),
        "python": sorted({r["python"] for r in records}),
        "nproc": sorted({r["nproc"] for r in records}),
    }


def record(parent: dict, change: dict, metrics: list[dict]) -> dict:
    workloads, used = {}, ([], [])
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        before = [parent[workload, s] for s in seeds]
        after = [change[workload, s] for s in seeds]
        used[0].extend(before)
        used[1].extend(after)
        table = {}
        for m in metrics:
            old = [r["metrics"][m["name"]]["value"] for r in before]
            new = [r["metrics"][m["name"]]["value"] for r in after]
            sign = -1 if m["better"] == "lower" else 1
            before_spread, after_spread = spread(old), spread(new)
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            iqr = before_spread["q3"] - before_spread["q1"]
            table[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent": before_spread,
                "change": after_spread,
                "change_wins": wins,
                "parent_iqr": iqr,
                # the claim rule: at least ten pairs, nine tenths of them won, and
                # the medians apart by more than the parent's interquartile range
                "claim_rule_met": len(seeds) >= 10 and 10 * wins >= 9 * len(seeds)
                and sign * (after_spread["median"] - before_spread["median"]) > iqr,
                "no_regression": no_regression(old, new, sign, m["bound"]),
            }
        workloads[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "metrics": table,
            "digests": {
                str(s): {"parent": p["digests"], "change": c["digests"]}
                for s, p, c in zip(seeds, before, after)
            },
            "digests_equal": all(p["digests"] == c["digests"] for p, c in zip(before, after)),
            "host_speed": {"parent": host_speed(before), "change": host_speed(after)},
        }
    return {"parent": side(used[0]), "change": side(used[1]), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="perfbench/results directory of the parent commit")
    parser.add_argument("change", help="perfbench/results directory of the change")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    if not set(parent) & set(change):
        print("error: no (workload, seed) run in both directories", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(record(parent, change, metrics), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
