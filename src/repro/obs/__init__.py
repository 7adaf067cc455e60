"""repro.obs — toolchain self-observability: the toolchain's one clock.

The repro's dynamic-analysis half is a real TAU measurement runtime
(:mod:`repro.tau.runtime`) driven, for paper experiments, by a virtual
clock.  This module observes the toolchain itself with wall-clock
spans: the frontend's phases (preprocess, lex, parse, instantiate), the
IL Analyzer passes, the PDB writer and merge, the checks, and
``pdbbuild``'s workers.  Span names use the benchmark's layer
vocabulary (``cpp.parse``, ``analyzer.<pass>``, ``pdbmerge``, …).

:func:`observe` is the only timer in the toolchain: it always measures
and hands back its :class:`Span`, so callers that need a wall time
(``pdbbuild``'s stats, ``run_checks``' per-check timings) read it from
the span instead of keeping a second clock.  An installed
:class:`Observer` additionally collects the spans, and three products
come out of that one set of measurements:

* **Chrome trace** (``chrome://tracing`` / Perfetto event format):
  every phase is a complete ``"ph": "X"`` span with microsecond ``ts``
  and ``dur``, grouped by process (``pid``) and thread (``tid``);
  counters (cache hits/misses/evictions) are ``"ph": "C"`` events.
* **TAU profile**: :func:`replay_spans` reconstructs the nesting and
  drives a real :class:`~repro.tau.runtime.Profiler`, so the paper's
  own display code (``pprof`` tables, ``profile.n.c.t`` files) renders
  the toolchain's hot phases — one worker process per TAU "node".
* **Per-phase aggregates** (:func:`phase_aggregates`) for the stats
  report.

Layering: this module depends only on the standard library and
``repro.tau.runtime``.  It must never import the tools it observes
(``repro.tools.pdbbuild``, the frontend) — they import *it*.

Usage::

    obs.enable()
    with obs.observe("cpp.parse", cat="cpp") as span:
        ...
    wall_s = span.dur / 1e6
    observer = obs.disable()
    write_chrome_trace("trace.json", observer.spans, observer.counters)

With no observer installed a span costs two clock reads and one
:class:`Span` object, which is what keeps always-on instrumentation
within the E17 budget.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.tau.runtime import Profiler, ThreadProfile

__all__ = [
    "Span",
    "Counter",
    "Observer",
    "enable",
    "disable",
    "get_observer",
    "is_enabled",
    "observe",
    "counter",
    "chrome_trace_events",
    "write_chrome_trace",
    "replay_spans",
    "phase_aggregates",
]


@dataclass(slots=True)
class Span:
    """One completed phase: a Chrome-trace ``"X"`` (complete) event.

    ``ts`` is microseconds since the Unix epoch (wall clock), so spans
    from different processes merge on one timeline; ``dur`` is
    microseconds.  Plain data — it survives the worker-process pickle
    round trip unchanged."""

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass
class Counter:
    """One Chrome-trace ``"C"`` counter sample (name -> series values)."""

    name: str
    ts: float
    pid: int
    values: dict = field(default_factory=dict)


class Observer:
    """Collects the spans and counter samples of one observed run.

    ``clock()`` (default :func:`time.perf_counter`) times every span
    opened while this observer is installed; ``epoch`` anchors span
    timestamps to an absolute timeline (defaults to :func:`time.time`
    at construction).  Tests pass a fake clock and ``epoch=0`` for
    determinism.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        epoch: Optional[float] = None,
    ):
        self._clock = clock
        self._t0 = clock()
        self.epoch = time.time() if epoch is None else epoch
        self.spans: list[Span] = []
        self.counters: list[Counter] = []
        self.pid = os.getpid()

    def _elapsed(self) -> float:
        """Seconds since this observer was created."""
        return self._clock() - self._t0

    def counter(self, name: str, **values: float) -> None:
        """Record one counter sample (cache hits/misses, evictions…)."""
        self.counters.append(
            Counter(
                name=name,
                ts=(self.epoch + self._elapsed()) * 1e6,
                pid=self.pid,
                values=dict(values),
            )
        )

    def adopt(self, spans: Iterable[Span]) -> None:
        """Merge spans collected elsewhere (worker processes)."""
        self.spans.extend(spans)


# ---------------------------------------------------------------- gating

#: installed observers; a stack so nested enables (an in-process
#: pdbbuild worker inside an observed driver) restore cleanly
_observers: list[Observer] = []


def enable(observer: Optional[Observer] = None) -> Observer:
    """Install (push) an observer; returns it."""
    obs = observer or Observer()
    _observers.append(obs)
    return obs


def disable() -> Optional[Observer]:
    """Uninstall (pop) the current observer; returns it."""
    return _observers.pop() if _observers else None


def get_observer() -> Optional[Observer]:
    """The currently installed observer, or None when disabled."""
    return _observers[-1] if _observers else None


def is_enabled() -> bool:
    """Whether an observer is installed (observability on)."""
    return bool(_observers)


class observe:
    """Phase scope: ``with observe(name, cat, **args) as span:``.

    Always measures: on exit the yielded :class:`Span` has ``dur`` set
    (microseconds), also when the body raises.  The span goes to the
    observer that was installed when it opened, if there was one; that
    observer's clock times it, and only then are ``ts``, ``pid`` and
    ``tid`` filled in.
    """

    __slots__ = ("span", "_observer", "_start")

    def __init__(self, name: str, cat: str = "toolchain", **args):
        self.span = Span(name, cat, 0.0, 0.0, 0, 0, args)

    def __enter__(self) -> Span:
        observer = self._observer = _observers[-1] if _observers else None
        self._start = time.perf_counter() if observer is None else observer._clock()
        return self.span

    def __exit__(self, *exc) -> None:
        span = self.span
        observer = self._observer
        if observer is None:
            span.dur = (time.perf_counter() - self._start) * 1e6
            return
        span.dur = (observer._clock() - self._start) * 1e6
        span.ts = (observer.epoch + (self._start - observer._t0)) * 1e6
        span.pid = observer.pid
        span.tid = threading.get_native_id()
        observer.spans.append(span)


def counter(name: str, **values: float) -> None:
    """Module-level counter sample (no-op when disabled)."""
    if _observers:
        _observers[-1].counter(name, **values)


# ----------------------------------------------------- Chrome trace export

def chrome_trace_events(
    spans: Iterable[Span],
    counters: Iterable[Counter] = (),
    process_names: Optional[dict[int, str]] = None,
) -> list[dict]:
    """Render spans/counters as Chrome trace events.

    Timestamps are rebased to the earliest event so traces start near
    zero; events come out sorted by ``ts`` (Perfetto does not require
    it, but sorted output diffs and tests cleanly).  ``process_names``
    adds ``process_name`` metadata records per pid.
    """
    spans = list(spans)
    counters = list(counters)
    base = min(
        [s.ts for s in spans] + [c.ts for c in counters], default=0.0
    )
    events: list[dict] = []
    for pid, label in sorted((process_names or {}).items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    body: list[dict] = []
    for s in spans:
        body.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.ts - base,
                "dur": s.dur,
                "pid": s.pid,
                "tid": s.tid,
                "args": s.args,
            }
        )
    for c in counters:
        body.append(
            {
                "name": c.name,
                "ph": "C",
                "ts": c.ts - base,
                "pid": c.pid,
                "tid": 0,
                "args": dict(c.values),
            }
        )
    body.sort(key=lambda e: (e["ts"], e["pid"], e.get("dur", 0.0)))
    return events + body


def write_chrome_trace(
    path: str,
    spans: Iterable[Span],
    counters: Iterable[Counter] = (),
    process_names: Optional[dict[int, str]] = None,
) -> None:
    """Write a ``chrome://tracing`` / Perfetto JSON object trace."""
    doc = {
        "traceEvents": chrome_trace_events(spans, counters, process_names),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


# ------------------------------------------------------ TAU profile replay

def replay_spans(spans: Iterable[Span]) -> Profiler:
    """Reconstruct a TAU profiler from completed spans.

    Each distinct ``pid`` becomes one TAU node (sorted pid order), each
    ``tid`` within it one thread; within a thread the spans' containment
    nesting is replayed through the real runtime's start/advance/stop,
    so inclusive/exclusive accounting is the runtime's own.  The
    profiler's clock unit is **microseconds** — what the pprof-style
    displays and ``profile.n.c.t`` files assume — so the paper's own
    display code renders the toolchain's real times.

    Spans produced by :func:`observe` scopes always nest properly per
    thread; a span that merely overlaps (clock skew
    across processes cannot produce this within one thread) would be
    treated as nested under the span it starts inside.
    """
    profiler = Profiler()
    by_thread: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        by_thread.setdefault((s.pid, s.tid), []).append(s)
    pids = sorted({pid for pid, _ in by_thread})
    node_of = {pid: i for i, pid in enumerate(pids)}
    for pid in pids:
        tids = sorted(t for p, t in by_thread if p == pid)
        tid_of = {tid: i for i, tid in enumerate(tids)}
        for tid in tids:
            prof = profiler.profile(node=node_of[pid], thread=tid_of[tid])
            _replay_thread(prof, by_thread[(pid, tid)])
    return profiler


def _replay_thread(prof: ThreadProfile, spans: list[Span]) -> None:
    """Drive one ThreadProfile from one thread's spans."""

    def advance_to(ts_us: float) -> None:
        if ts_us > prof.now:
            prof.advance(ts_us - prof.now)

    # parents first: earlier start, then longer duration on ties
    ordered = sorted(spans, key=lambda s: (s.ts, -s.dur))
    base = ordered[0].ts if ordered else 0.0
    stack: list[Span] = []
    for s in ordered:
        while stack and stack[-1].end <= s.ts:
            top = stack.pop()
            advance_to(top.end - base)
            prof.stop(top.name)
        advance_to(s.ts - base)
        prof.start(s.name, s.cat)
        stack.append(s)
    while stack:
        top = stack.pop()
        advance_to(top.end - base)
        prof.stop(top.name)


def phase_aggregates(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per-phase wall-time totals for the ``--stats-json`` report:
    ``{name: {"count": n, "wall_s": seconds}}``, sorted by name."""
    agg: dict[str, dict[str, float]] = {}
    for s in spans:
        row = agg.setdefault(s.name, {"count": 0, "wall_s": 0.0})
        row["count"] += 1
        row["wall_s"] += s.dur / 1e6
    return {name: agg[name] for name in sorted(agg)}
