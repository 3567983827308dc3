"""One benchmark process: import the library, set up fields, run one repetition.

Started by run.py in a fresh interpreter, so every lru_cache in the library
is cold.  Writes one JSON record to --out.  Modes:

  setup   import and build the workload's fields, then stop;
  run     also run the timed phase (fixed sweep, then the seeded queries),
          validate every answer and digest them;
  trace   like run, with the tracer installed from import to the end of the
          timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from hostspeed import Sampler


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import indecomp  # noqa: F401  (loads every submodule through the package)
    import indecomp.cli  # noqa: F401
    import indecomp.verify  # noqa: F401

    here = os.path.realpath(indecomp.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"indecomp imported from {here}, not from {src}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "indecomp" or name.startswith("indecomp.")]


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    clock = time.perf_counter
    sampler = Sampler()
    started = clock()
    sampler.start()
    try:
        modules = _import_library(args.root)
        import workloads
        from tracer import Tracer

        t_gen = clock()
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.scratch)
        gen_s = clock() - t_gen

        record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                  "gen_s": gen_s}
        tracer = Tracer(modules) if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()

        def span(name):
            return tracer.span(name) if tracer is not None else contextlib.nullcontext()

        try:
            if tracer is not None:
                tracer.set_query(-1)
            with span("setup"):
                workloads.set_up_fields(wl.fields())
            setup_end = clock()
            if args.mode != "setup":
                wl.prepare()
                sweep, steps, answers, query_times = {}, {}, [], []
                t0 = clock()
                for name, fn in wl.steps():
                    ts = clock()
                    with span("sweep." + name):
                        try:
                            sweep[name] = fn()
                        except Exception as exc:  # a failed check is counted, never dropped
                            sweep[name] = exc
                    steps[name] = (ts, clock())
                for qid, query in enumerate(wl.queries(), start=1):
                    if tracer is not None:
                        tracer.set_query(qid)
                    ts = clock()
                    try:
                        answers.append(query())
                    except Exception as exc:  # a failed query is counted, never dropped
                        answers.append(exc)
                    query_times.append((ts, clock()))
                t1 = clock()
                record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        sampler.stop()

    # times at reference host speed; see hostspeed.py
    record["setup_end"] = setup_end
    record["setup_probe_s"] = sampler.probe_time(started, setup_end)
    record["setup_speed"] = sampler.speed(started, setup_end)
    if args.mode == "setup":
        _write(args.out, record)
        return 0
    record["run_s_wall"] = t1 - t0
    record["run_s"] = sampler.at_reference(t0, t1)
    record["speed"] = sampler.speed(t0, t1)
    record["probes"] = len(sampler.stamps)
    record["step_s"] = {name: sampler.at_reference(*ts) for name, ts in steps.items()}
    record["latencies"] = [sampler.at_reference(*ts) for ts in query_times]
    attempted = 0
    failures: list[str] = []

    def report(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    errors = [repr(a) for a in [*sweep.values(), *answers] if isinstance(a, Exception)]
    for e in errors:
        report(False, f"raised {e}")
    if not errors:
        try:
            wl.validate(sweep, answers, report)
        except Exception as exc:  # an answer too malformed to check is a failure
            report(False, f"validation raised {exc!r}")
    record["attempted"] = attempted
    record["failures"] = failures
    encoded = wl.encode(sweep, answers) if not errors else {"errors": errors}
    blob = json.dumps(_jsonable(encoded), sort_keys=True, separators=(",", ":"))
    record["digest"] = hashlib.sha256(blob.encode()).hexdigest()

    if tracer is not None:
        record["trace"] = trace_metrics(tracer)
        record["trace"]["spans"] = len(tracer.spans) // 6
        tracer.dump(os.path.splitext(args.out)[0] + ".spans.bin")
        record["span_names"] = tracer.names
    _write(args.out, record)
    return 0


def trace_metrics(tracer) -> dict:
    """Per-span-name calls and times, plus the outcome ratios the benchmark reports."""
    summary = tracer.summary()
    spans = summary["spans"]
    out = {"spans_by_name": spans, "outcomes": dict(tracer.outcomes)}
    out["refine_rounds_in_context"] = summary["children"].get(
        ("oracle._context", "order_kernel.refine_roots"), 0)
    out["cache_info"] = {name: fn.cache_info()._asdict() for name, fn in tracer.caches.items()}
    return out


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
