"""Span tracing of indecomp from outside the package.

The tracer rebinds module-level functions to timing wrappers.  Modules import
hot functions by name (``from .order_kernel import mul``), so every attribute
of every indecomp module that *is* a traced function object is rebound, not
only the defining one.  ``lru_cache`` functions are wrapped outside the cache:
cached hits still count as calls, and ``cache_info()`` stays readable.

Each call records one span (id, name, start, end, parent id, query id) into a
flat in-memory array; nothing is written until the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import itertools
import time
from array import array
from contextlib import contextmanager

# The functions whose spans the benchmark reports, by layer (module).  Entry
# points (queries, sweeps, per-field set-up) are listed so that every span of
# a hot kernel has a parent that says which work caused it.
TRACED = {
    "order_kernel": (
        "make_field", "mul", "sym_funcs", "is_totally_positive", "embed",
        "refine_roots", "isolate_roots", "unit_generators",
    ),
    "intervals": ("det",),
    "hnf": ("row_hnf_lower",),
    "integers": ("is_squarefree", "factorize"),
    "codifferent": (
        "is_totally_positive_codiff", "trace_pairing", "certificate_delta",
        "certified_simplest",
    ),
    "families": (
        "indecomposables_simplest", "indecomposables_ennola", "indecomposables_thomas",
        "parallelepiped_candidates", "standard_parallelepipeds",
    ),
    "oracle": (
        "box_from_embedding", "_context", "decompose", "_trace_slice", "min_trace",
        "indecomposables_by_search",
    ),
    "norms": (
        "count_fast", "count_exact", "count_bruteforce", "_bruteforce_ideals",
        "ideal_hnf", "sq_count",
    ),
    "quadratic": (
        "cf_expand", "trace_one_delta", "trace_one_delta_scalings",
        "indecomposables_quadratic", "search_indecomposables", "decompose_quadratic",
        "quad_ideal_hnf",
    ),
    "forms": (
        "rank_report", "decompose_into_indecomposables", "unit_square_root",
        "sum_of_squares_witness", "_window_elements", "verify_universality_window",
    ),
    "verify": ("check_count_scaling", "check_rank_formulas"),
    "cli": ("main", "cmd_sq_table", "cmd_quadratic", "_emit"),
}


def _points(box) -> int:
    if box is None:
        return 0
    n = 1
    for lo, hi in box:
        n *= max(0, hi - lo + 1)
    return n


class Tracer:
    """Rebinds traced functions while installed; use as a context manager."""

    def __init__(self, package_modules):
        """package_modules: every imported indecomp module, the package included."""
        self._modules = list(package_modules)
        self.names: list[str] = []
        self.spans = array("d")
        self._ids = itertools.count()
        self._stack = [-1]
        self._query = [0]
        self._rebound: list[tuple[object, str, object]] = []
        self.caches: dict[str, object] = {}
        # outcome counters, filled by observers on selected functions
        self.outcomes = {
            "order_kernel.is_totally_positive.true": 0,
            "codifferent.is_totally_positive_codiff.true": 0,
            "oracle.decompose.none": 0,
            "oracle._trace_slice.hits": 0,
            "oracle.box_from_embedding.points": 0,
            "norms._bruteforce_ideals.ideals": 0,
        }
        self._seen_results: set[int] = set()

    # -- installation -------------------------------------------------------

    def _observer(self, name):
        out = self.outcomes
        if name in ("order_kernel.is_totally_positive", "codifferent.is_totally_positive_codiff"):
            key = name + ".true"

            def observe(result):
                if result:
                    out[key] += 1
        elif name == "oracle.decompose":
            def observe(result):
                if result is None:
                    out["oracle.decompose.none"] += 1
        elif name == "oracle._trace_slice":
            def observe(result):
                out["oracle._trace_slice.hits"] += len(result)
        elif name == "oracle.box_from_embedding":
            def observe(result):
                out["oracle.box_from_embedding.points"] += _points(result)
        elif name == "norms._bruteforce_ideals":
            seen = self._seen_results

            def observe(result):
                # cached calls return the same tuple: count each table once
                if id(result) not in seen:
                    seen.add(id(result))
                    out["norms._bruteforce_ideals.ideals"] += len(result)
        else:
            return None
        return observe

    def _wrap(self, fn, nid, observe):
        clock = time.perf_counter
        next_id = self._ids.__next__
        stack = self._stack
        push = stack.append
        pop = stack.pop
        record = self.spans.extend
        query = self._query

        if observe is None:
            def traced(*args, **kwargs):
                sid = next_id()
                parent = stack[-1]
                push(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    pop()
                    record((sid, nid, t0, t1, parent, query[0]))
        else:
            def traced(*args, **kwargs):
                sid = next_id()
                parent = stack[-1]
                push(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    pop()
                    record((sid, nid, t0, t1, parent, query[0]))
                observe(result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        by_name = {m.__name__: m for m in self._modules}
        wrappers = {}
        for layer, funcs in TRACED.items():
            module = by_name["indecomp." + layer]
            for fname in funcs:
                original = getattr(module, fname)
                name = f"{layer}.{fname}"
                nid = len(self.names)
                self.names.append(name)
                wrappers[id(original)] = (original, self._wrap(original, nid, self._observer(name)))
                if hasattr(original, "cache_info"):
                    self.caches[name] = original
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- benchmark-side spans -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one sweep step."""
        nid = self.name_id(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.extend((sid, nid, t0, t1, parent, self._query[0]))

    def set_query(self, qid: int) -> None:
        self._query[0] = qid

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, and child counts by name."""
        cols = [self.spans[k::6] for k in range(6)]
        sids, nids, starts, ends, parents = cols[:5]
        n_ids = int(max(sids)) + 1 if sids else 0
        child_time = array("d", bytes(8 * n_ids))
        name_of = array("l", bytes(8 * n_ids))
        for sid, nid in zip(sids, nids):
            name_of[int(sid)] = int(nid)
        for s, e, p in zip(starts, ends, parents):
            if p >= 0:
                child_time[int(p)] += e - s
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        under: dict[tuple[str, str], int] = {}
        for sid, nid, s, e, p in zip(sids, nids, starts, ends, parents):
            st = stats[self.names[int(nid)]]
            dur = e - s
            st["calls"] += 1
            st["total_s"] += dur
            st["self_s"] += dur - child_time[int(sid)]
            if p >= 0:
                key = (self.names[name_of[int(p)]], self.names[int(nid)])
                under[key] = under.get(key, 0) + 1
        return {"spans": stats, "children": under}

    def dump(self, path: str) -> None:
        """Raw spans: float64 rows of (id, name index, start, end, parent, query)."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
