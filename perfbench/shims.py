"""Traced run: timing shims wrapped around the program's entry points.

Nothing inside ``src/`` is traced.  :class:`Tracer` replaces module and
class attributes of the program with wrappers that record one span per
call — name, start, end, parent, pid — and a few counters read from
arguments and results.  Installing happens before ``pdbbuild`` forks its
worker pool, so the shims run in the workers too; each worker appends
its spans to a file under ``spans_dir`` after every translation unit,
and :meth:`Tracer.collect` brings them back at the end of the run.

A span nested in a span of the same name records nothing, so a layer's
busy time is never counted twice.  A span's self time is its duration
minus the part of it that child spans cover (children in worker
processes included), so parallel children are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Optional

# (span name, module, attribute path, result hook) — the program's
# entry points, one row per place a call can be intercepted.  A layer
# reached through several import sites gets one row per site.
SHIMS: list[tuple[str, str, str, Optional[str]]] = [
    ("pdbbuild.build", "repro.tools.pdbbuild", "build", "_on_build"),
    ("pdbbuild.compile_tu", "repro.tools.pdbbuild", "_compile_tu", None),
    ("cpp.compile", "repro.cpp.frontend", "Frontend.compile", None),
    ("cpp.preprocess", "repro.cpp.preprocessor", "Preprocessor.preprocess", "_on_tokens"),
    ("cpp.parse", "repro.cpp.declparse", "Parser.parse_translation_unit", None),
    ("cpp.instantiate", "repro.cpp.instantiate", "InstantiationEngine.drain", None),
    ("analyzer", "repro.analyzer", "analyze", "_on_analyze"),
    ("pdbfmt.write", "repro.tools.pdbbuild", "write_pdb", "_on_write"),
    ("pdbfmt.write", "repro.ductape.pdb", "write_pdb", "_on_write"),
    ("pdbfmt.parse", "repro.ductape.pdb", "parse_pdb", "_on_parse"),
    ("pdbfmt.parse", "repro.tools.pdbmerge", "parse_pdb", "_on_parse"),
    ("pdbfmt.parse", "repro.pdbfmt.reader", "parse_pdb", "_on_parse"),
    ("buildcache.lookup", "repro.buildcache.cache", "BuildCache.lookup", "_on_lookup"),
    ("buildcache.store", "repro.buildcache.cache", "BuildCache.store", None),
    ("buildcache.write", "repro.buildcache.cache", "_atomic_write", "_on_cache_write"),
    ("pdbmerge", "repro.tools.pdbmerge", "merge_pdb_texts_tree", "_on_merge"),
    ("ductape.load", "repro.ductape.pdb", "PDB.__init__", None),
    ("check", "repro.check", "run_checks", "_on_check"),
    ("pdbtree", "repro.tools.pdbtree", "render_call_tree", None),
    ("pdbtree", "repro.tools.pdbtree", "render_class_tree", None),
    ("pdbtree", "repro.tools.pdbtree", "render_inclusion_tree", None),
    ("tau.instrument", "repro.tau.instrumentor", "instrument_sources", "_on_instrument"),
    ("tau.profile", "repro.tau.simulate", "ExecutionSimulator.run", None),
    ("tau.trace", "repro.tau.simulate", "ExecutionSimulator.run_traced", "_on_trace"),
    ("siloon", "repro.siloon.generator", "generate_bindings", "_on_bindings"),
]

#: the span every worker-side compilation sits in; workers flush after it
WORKER_ROOT = "pdbbuild.compile_tu"


class Tracer:
    """Span and counter recorder behind the shims.

    A span is ``(sid, parent sid, name, start, end, pid)`` with
    ``sid = (pid, sequence number)``; times are ``time.perf_counter``
    readings, which share one clock across processes on Linux."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: per build: (build sid, jobs)
        self.builds: list[tuple] = []
        self.on = False
        self._stack: list[tuple] = []
        self._open: set[str] = set()
        self._seq = 0
        self._pid = os.getpid()
        self._in_worker = False
        self._patches: list[tuple] = []
        self._fork_hook = False

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every entry point in :data:`SHIMS` with a shim."""
        os.makedirs(self.spans_dir, exist_ok=True)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        for name, module, path, hook in SHIMS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            shim = self._wrap(name, original, getattr(self, hook) if hook else None)
            if name == WORKER_ROOT:
                shim = self._flushing(shim, original)
            setattr(owner, attr, shim)
            self._patches.append((owner, attr, original))
        self.on = True

    def uninstall(self) -> None:
        """Put every original entry point back."""
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_fork(self) -> None:
        # a pool worker starts with a copy of the parent's spans; keep
        # only the open stack, so its spans hang under the build span
        self.spans = []
        self.counters = defaultdict(float)
        self.builds = []
        self._pid = os.getpid()
        self._in_worker = True

    # -- shims -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.on or name in tracer._open:
                return fn(*args, **kwargs)
            tracer._seq += 1
            sid = (tracer._pid, tracer._seq)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer.spans.append((sid, parent, name, start, end, tracer._pid))
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return shim

    def _flushing(self, shim: Callable, original: Callable) -> Callable:
        """Worker-side: after each TU, append this process's spans and
        counters to its file, so they survive the pool's shutdown.
        ``functools.wraps`` keeps the original's module and qualified
        name, so the pool still pickles the function by reference."""
        tracer = self

        @functools.wraps(original)
        def flushing(*args, **kwargs):
            try:
                return shim(*args, **kwargs)
            finally:
                if tracer._in_worker:
                    tracer._flush()

        return flushing

    def _flush(self) -> None:
        record = {"spans": self.spans, "counters": dict(self.counters)}
        path = os.path.join(self.spans_dir, f"{self._pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def collect(self) -> None:
        """Bring back every worker's spans and counters (end of run)."""
        for entry in sorted(os.listdir(self.spans_dir)):
            path = os.path.join(self.spans_dir, entry)
            with open(path) as f:
                for line in f:
                    record = json.loads(line)
                    for sid, parent, name, start, end, pid in record["spans"]:
                        self.spans.append(
                            (tuple(sid), tuple(parent) if parent else None, name, start, end, pid)
                        )
                    for key, value in record["counters"].items():
                        self.counters[key] += value
            os.remove(path)

    # -- result hooks: counters read where the work happens ----------------

    def _on_build(self, sid, args, kwargs, result) -> None:
        _merged, stats = result
        compiled = [t for t in stats.tus if not t.cache_hit]
        c = self.counters
        c["pdbbuild.tus_compiled"] += len(compiled)
        c["pdbbuild.failures"] += len(stats.failures)
        c["pdbbuild.worker_busy_s"] += sum(t.wall_s for t in compiled)
        c["cpp.header_cache.hits"] += stats.hc_hits
        c["cpp.header_cache.misses"] += stats.hc_misses
        c["cpp.header_cache.uncacheable"] += stats.hc_uncacheable
        c["buildcache.hits"] += stats.cache_hits
        c["buildcache.misses"] += stats.cache_misses
        c["buildcache.evictions"] += stats.cache_evictions
        self.builds.append((sid, stats.jobs))

    def _on_tokens(self, sid, args, kwargs, result) -> None:
        self.counters["cpp.tokens"] += len(result)

    def _on_analyze(self, sid, args, kwargs, result) -> None:
        self.counters["analyzer.items"] += len(result.items)

    def _on_write(self, sid, args, kwargs, result) -> None:
        self.counters["pdbfmt.write.bytes"] += len(result)

    def _on_parse(self, sid, args, kwargs, result) -> None:
        self.counters["pdbfmt.parse.bytes"] += len(args[0])

    def _on_lookup(self, sid, args, kwargs, result) -> None:
        self.counters["buildcache.lookup.hits"] += result is not None

    def _on_cache_write(self, sid, args, kwargs, result) -> None:
        self.counters["buildcache.bytes_written"] += len(args[1])

    def _on_merge(self, sid, args, kwargs, result) -> None:
        merged, stats, depth = result
        out = len(merged.doc.items)
        # the fold's first input is never counted in items_in
        self.counters["pdbmerge.input_items"] += stats.items_in + out - stats.items_added
        self.counters["pdbmerge.output_items"] += out
        self.counters["pdbmerge.tree_depth"] += depth
        self.counters["pdbmerge.calls"] += 1

    def _on_check(self, sid, args, kwargs, result) -> None:
        self.counters["check.findings"] += len(result.findings)
        for check, secs in result.timings.items():
            self.counters[f"check.{check}.busy_s"] += secs

    def _on_instrument(self, sid, args, kwargs, result) -> None:
        self.counters["tau.insertions"] += sum(len(s.insertions) for s in result.values())

    def _on_trace(self, sid, args, kwargs, result) -> None:
        buffer = kwargs.get("tracer")
        if buffer is not None:
            self.counters["tau.trace.events"] += len(buffer)

    def _on_bindings(self, sid, args, kwargs, result) -> None:
        self.counters["siloon.routines_bound"] += len(result.all_routine_bindings())


# ---------------------------------------------------------------- analysis


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_table(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    for sid, parent, _name, start, end, _pid in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            children[parent].append((max(start, lo), min(end, hi)))
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for sid, _parent, name, start, end, _pid in spans:
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += (end - start) - covered(
            [iv for iv in children.get(sid, []) if iv[1] > iv[0]]
        )
    return dict(table)


def pool_figures(spans: list[tuple], builds: list[tuple], parent_pid: int) -> dict[str, float]:
    """Parent-process wait and compile window of every pooled build.

    The compile window runs from the first worker-side compilation's
    start to the last one's end; the parent waits where worker spans
    cover the build and none of its own in-process spans do."""
    by_parent: dict[tuple, list[tuple]] = defaultdict(list)
    for s in spans:
        by_parent[s[1]].append(s)
    wait = window = capacity = 0.0
    for sid, jobs in builds:
        kids = by_parent.get(sid, [])
        workers = [(s[3], s[4]) for s in kids if s[5] != parent_pid]
        local = [(s[3], s[4]) for s in kids if s[5] == parent_pid]
        if not workers:
            continue
        span_window = max(e for _, e in workers) - min(s for s, _ in workers)
        window += span_window
        capacity += jobs * span_window
        wait += covered(workers + local) - covered(local)
    return {"driver_wait_s": wait, "compile_window_s": window, "pool_capacity_s": capacity}
