"""pdbbuild — parallel, incrementally-cached multi-TU PDB build driver.

The paper's PDT workflow compiles each translation unit separately and
``pdbmerge``s the per-TU databases into one program database (Table 2).
This driver runs that pipeline as a build system would:

* per-TU compilation (``Frontend`` + IL Analyzer + PDB writer) fans out
  across worker processes (``-j N``),
* an on-disk cache keyed by a content hash of the TU's full preprocessed
  dependency closure plus the frontend options skips unchanged TUs
  (:mod:`repro.buildcache`),
* the per-TU databases are merged in *source order* regardless of worker
  completion order, so the output is byte-identical to the serial
  ``cxxparse``-per-TU + ``pdbmerge`` pipeline,
* ``--stats-json`` emits a machine-readable per-phase report (schema
  documented in docs/FORMAT.md).

The driver is self-observing (docs/FORMAT.md, "Build observability"):
every wall time in the stats report is the duration of the
:func:`repro.obs.observe` span around the same work.  ``--trace-json
OUT`` collects those spans — per-TU frontend phases, analyzer passes,
PDB write, merge — as Chrome-trace complete events across worker pids,
with cache hit/miss/eviction counter events; ``--self-profile DIR``
replays the same spans through the repro's own TAU measurement runtime
and writes ``profile.n.c.t`` files (one node per build process)
readable by ``repro.tau.profiledata`` — the toolchain profiled by the
paper's own profiler.  Either flag also populates the per-phase
wall-time aggregates of the stats report.

``--check[=RULES]`` runs the :mod:`repro.check` static-analysis suite
on the merged result (CI-style lint-on-build): findings print like
compiler diagnostics, per-check wall time lands in the stats report's
``check`` section and — on observability builds — as ``check`` and
``check.*`` spans in ``--trace-json``, and findings at warning level or
above make the build exit non-zero.

``cxxparse`` routes through :func:`build` with one worker and no cache,
so single-TU behaviour is unchanged.

The driver is fault-tolerant (docs/DESIGN.md, "Failure model"):

* ``-k/--keep-going`` quarantines failed TUs instead of aborting: the
  build merges every TU that compiled, records each failure (phase,
  error, rendered diagnostics) in the stats report, and exits non-zero,
* ``--keep-going-errors N`` turns on frontend error recovery, so a TU
  with user-source errors still contributes its partial IL, annotated
  with ``ferr`` diagnostic records,
* ``--timeout`` bounds each TU's wall clock at any ``-j``: a hung TU's
  worker is killed and the TU fails with phase ``timeout``,
* a worker holds one TU at a time, so a crash names its TU: that TU
  alone runs once more on a new worker, and a deterministic crasher
  fails with phase ``worker``.

Fault-injection hooks for the test harness (read inside the worker, so
they propagate to forked workers): ``PDBBUILD_FAULT_SLEEP=<name>:<secs>``
sleeps before compiling a matching TU; ``PDBBUILD_FAULT_EXIT=<name>`` or
``<name>:<once-marker-path>`` kills the worker process outright (with a
marker file: only the first time).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
import traceback
import uuid
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Optional

from repro import obs
from repro.buildcache import BuildCache, content_hash
from repro.cpp import CppError, Frontend, FrontendOptions
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.writer import write_pdb

#: bump when the PDB output of a compilation changes incompatibly, so
#: stale caches from older code can never be reused
CACHE_FORMAT = "pdbbuild-cache/2"

#: schema tag emitted in --stats-json reports
STATS_SCHEMA = "pdbbuild-stats/8"


@dataclass(frozen=True)
class BuildOptions:
    """Everything that affects a TU's compilation (hence its cache key)."""

    include_paths: tuple[str, ...] = ()
    instantiation_mode: InstantiationMode = InstantiationMode.USED
    predefined_macros: tuple[tuple[str, str], ...] = ()
    passes: Optional[tuple[str, ...]] = None
    #: None = errors are fatal (classic behaviour); N = recover from up
    #: to N user-source errors per TU, annotating the PDB with ``ferr``
    #: records.  Part of the fingerprint: recovery changes the output.
    keep_going_errors: Optional[int] = None

    def fingerprint(self) -> str:
        """Stable hash of the options, part of every cache key."""
        blob = json.dumps(
            {
                "format": CACHE_FORMAT,
                "include_paths": list(self.include_paths),
                "mode": self.instantiation_mode.value,
                "predefined": sorted(self.predefined_macros),
                "passes": list(self.passes) if self.passes is not None else None,
                "keep_going_errors": self.keep_going_errors,
            },
            sort_keys=True,
        )
        return content_hash(blob)

    def frontend_options(self) -> FrontendOptions:
        fo = FrontendOptions(
            include_paths=list(self.include_paths),
            instantiation_mode=self.instantiation_mode,
            predefined_macros=dict(self.predefined_macros),
        )
        if self.keep_going_errors is not None:
            fo.fatal_errors = False
            fo.max_errors = max(1, self.keep_going_errors)
        return fo


@dataclass
class TUReport:
    """Per-TU observability record (one row of the --stats-json report).

    ``wall_s`` is the duration of the TU's ``pdbbuild.compile_tu`` span
    (0 for a cache hit).  ``phases`` (observability builds only) maps
    phase name -> wall seconds inside this TU's compilation
    (cpp.preprocess, cpp.parse, analyzer.*, pdbfmt.write, …)."""

    source: str
    cache_hit: bool
    wall_s: float
    items: int
    warnings: int
    errors: int = 0  # recovered frontend errors (``ferr`` records)
    phases: dict[str, float] = field(default_factory=dict)


@dataclass
class TUFailure:
    """One quarantined TU: why it contributed nothing to the merge.

    ``phase`` is ``frontend`` (unrecoverable or cascading source
    errors), ``timeout`` (exceeded the per-TU wall-clock bound), or
    ``worker`` (the worker process died and the retry died too)."""

    source: str
    phase: str
    error: str
    diagnostics: list[str] = field(default_factory=list)
    retries: int = 0


class TUCompileError(Exception):
    """One TU failed to compile.

    Carries the rendered diagnostics so keep-going builds can report
    them without re-running the frontend, and — on observability builds
    — the spans the TU recorded before it failed, so a quarantined TU's
    time stays in the trace.  All constructor arguments flow through
    ``Exception.args``, so instances survive the pickling round-trip
    from worker processes unchanged."""

    def __init__(
        self, source: str, message: str, diagnostics: tuple = (), spans: tuple = ()
    ):
        super().__init__(source, message, tuple(diagnostics), tuple(spans))
        self.source = source
        self.message = message
        self.diagnostics = list(diagnostics)
        self.spans = list(spans)

    def __str__(self) -> str:
        return f"{self.source}: {self.message}"


@dataclass
class BuildStats:
    """Whole-build observability: per-TU rows plus merge aggregates.

    ``phases`` holds per-phase wall-time aggregates over every span the
    build recorded (driver + workers); ``trace_spans``/``trace_counters``
    carry the raw Chrome-trace material for ``--trace-json`` and
    ``--self-profile`` (populated only on observability builds, never
    serialised into the stats document)."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    tus: list[TUReport] = field(default_factory=list)
    failures: list[TUFailure] = field(default_factory=list)
    merge: MergeStats = field(default_factory=MergeStats)
    merge_wall_s: float = 0.0
    #: frontend header-cache activity summed over every compiled TU
    #: (cache-hit TUs never run the frontend, so they contribute zero)
    hc_hits: int = 0
    hc_misses: int = 0
    hc_uncacheable: int = 0
    total_wall_s: float = 0.0
    output_items: int = 0
    warnings: int = 0
    errors: int = 0
    phases: dict[str, dict] = field(default_factory=dict)
    #: static-analysis section (``--check`` builds only): selection,
    #: per-rule finding counts, per-check wall time
    check: Optional[dict] = None
    #: the full CheckReport behind ``check`` (never serialised)
    check_report: Optional[object] = None
    trace_spans: list = field(default_factory=list)
    trace_counters: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The --stats-json document (schema: ``pdbbuild-stats/8``).

        ``/8`` is ``/7`` without ``merge.odr_conflicts``: ODR violations
        are the ``check`` section's PDT021/PDT022 findings.  ``/7`` is
        ``/6`` with phase names in the benchmark's layer vocabulary (see
        docs/FORMAT.md)."""
        d = {
            "schema": STATS_SCHEMA,
            "jobs": self.jobs,
            "sources": [t.source for t in self.tus],
            "cache": {
                "dir": self.cache_dir,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
            },
            "header_cache": {
                "hits": self.hc_hits,
                "misses": self.hc_misses,
                "uncacheable": self.hc_uncacheable,
            },
            "tus": [asdict(t) for t in self.tus],
            "failures": [asdict(f) for f in self.failures],
            "merge": {"wall_s": self.merge_wall_s, **asdict(self.merge)},
            "output_items": self.output_items,
            "warnings": self.warnings,
            "errors": self.errors,
            "phases": self.phases,
            "total_wall_s": self.total_wall_s,
        }
        if self.check is not None:
            d["check"] = self.check
        return d


@dataclass
class _TUOutput:
    """What one compilation (in-process or worker) hands back.

    ``spans`` are the :class:`repro.obs.Span` records of an
    observability build — plain picklable data, so they travel back
    from worker processes with the rest."""

    source: str
    pdb_text: str
    dep_hashes: list[tuple[str, str]]
    items: int
    warnings: int
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: frontend header-cache activity during this TU's compilation
    #: (plain ints, so they pickle back from worker processes)
    hc_hits: int = 0
    hc_misses: int = 0
    hc_uncacheable: int = 0


def _fault_matches(source: str, name: str) -> bool:
    return source == name or Path(source).name == Path(name).name


def _apply_fault_hooks(source: str) -> None:
    """Test-harness fault injection (see module docstring).  No-ops
    unless the PDBBUILD_FAULT_* environment variables are set."""
    spec = os.environ.get("PDBBUILD_FAULT_SLEEP")
    if spec and ":" in spec:
        name, _, secs = spec.rpartition(":")
        if _fault_matches(source, name):
            time.sleep(float(secs))
    spec = os.environ.get("PDBBUILD_FAULT_EXIT")
    if spec:
        name, _, marker = spec.partition(":")
        if _fault_matches(source, name):
            if marker:
                if not os.path.exists(marker):
                    Path(marker).write_text("crashed")
                    os._exit(13)
            else:
                os._exit(13)


#: per-process Frontend reuse: ``(fingerprint, build epoch, Frontend)``.
#: A worker process compiles TU after TU, so TUs compiled by the
#: same worker within one :func:`build` call share one Frontend — and
#: with it the shared-header token cache (:mod:`repro.cpp.headercache`).
#: The epoch scopes sharing to a single build: a later build must not
#: see this one's SourceManager state (disk files may have changed).
_WORKER_FE: Optional[tuple[str, str, Frontend]] = None


def _worker_frontend(options: BuildOptions, epoch: str) -> Frontend:
    global _WORKER_FE
    fp = options.fingerprint()
    if _WORKER_FE is None or _WORKER_FE[0] != fp or _WORKER_FE[1] != epoch:
        _WORKER_FE = (fp, epoch, Frontend(options.frontend_options()))
    return _WORKER_FE[2]


def _compile_tu(
    source: str,
    options: BuildOptions,
    files: Optional[dict[str, str]],
    trace: bool = False,
    epoch: str = "",
) -> _TUOutput:
    """Compile one TU to PDB text.  Everything it needs is plain data,
    so a worker process receives it over its pipe.

    The compilation runs inside one ``pdbbuild.compile_tu`` span, whose
    duration is the output's ``wall_s``.  ``trace`` installs a fresh
    :class:`repro.obs.Observer` around it, so every instrumented phase
    (frontend, analyzer passes, PDB write) is collected and the spans
    ride back on the output — or, when the TU fails, on its
    :class:`TUCompileError`.  Observers are per-call, so a worker
    reused across TUs never mixes spans.

    Failure contract: raises :class:`TUCompileError` (picklable) when
    the TU cannot contribute a PDB — an unrecoverable frontend error, or
    an error cascade past the recovery bound.  In recovery mode
    (``keep_going_errors``) a TU with recorded errors still returns its
    partial PDB, annotated with ``ferr`` records."""
    _apply_fault_hooks(source)
    observer = obs.enable() if trace else None
    try:
        with obs.observe("pdbbuild.compile_tu", cat="pdbbuild", source=source) as span:
            out = _compile(source, options, files, epoch)
    except TUCompileError as exc:
        if observer is None:
            raise
        raise TUCompileError(
            exc.source, exc.message, tuple(exc.diagnostics), tuple(observer.spans)
        ) from exc
    finally:
        if observer is not None:
            obs.disable()
    out.wall_s = span.dur / 1e6
    if observer is not None:
        out.spans = observer.spans
    return out


def _compile(
    source: str, options: BuildOptions, files: Optional[dict[str, str]], epoch: str
) -> _TUOutput:
    """The compilation behind :func:`_compile_tu` (``wall_s`` unset)."""
    from repro.analyzer import analyze

    fe = _worker_frontend(options, epoch)
    if files:
        fe.register_files(files)
    hc = fe.header_cache
    hc_base = (hc.hits, hc.misses, hc.uncacheable) if hc is not None else (0, 0, 0)
    try:
        tree = fe.compile(source)
    except CppError as exc:
        diags = fe.last_sink.render_errors() if fe.last_sink is not None else []
        if not diags:
            diags = [str(exc)]
        raise TUCompileError(source, exc.message, tuple(diags)) from exc
    except RecursionError as exc:
        # nesting deeper than the recursive-descent parser's stack (more
        # than 137 nested parentheses in an expression): this TU alone fails
        raise TUCompileError(
            source, "nesting too deep to compile (interpreter recursion limit reached)"
        ) from exc
    errors: list[str] = []
    if fe.last_sink is not None:
        errors = fe.last_sink.render_errors()
    if fe.last_error_overflow:
        raise TUCompileError(
            source,
            f"too many errors (--keep-going-errors bound of "
            f"{fe.options.max_errors} reached); giving up on this TU",
            tuple(errors),
        )
    doc = analyze(tree, passes=options.passes) if options.passes else analyze(tree)
    if errors:
        from repro.cpp.diagnostics import Severity
        from repro.pdbfmt.ferr import append_error_items

        error_diags = [
            d for d in fe.last_sink.diagnostics if d.severity is Severity.ERROR
        ]
        append_error_items(doc, error_diags, source)
    text = write_pdb(doc)
    deps = [(f.name, content_hash(f.text)) for f in fe.last_consumed_files]
    warnings = fe.last_sink.warning_count if fe.last_sink is not None else 0
    return _TUOutput(
        source=source,
        pdb_text=text,
        dep_hashes=deps,
        items=len(doc.items),
        warnings=warnings,
        errors=errors,
        # deltas, not totals: the Frontend (and its counters) is shared
        # across every TU this worker compiles in the current build
        hc_hits=hc.hits - hc_base[0] if hc is not None else 0,
        hc_misses=hc.misses - hc_base[1] if hc is not None else 0,
        hc_uncacheable=hc.uncacheable - hc_base[2] if hc is not None else 0,
    )


def _failure_from(source: str, exc: TUCompileError, retries: int = 0) -> TUFailure:
    observer = obs.get_observer()
    if observer is not None:
        # the quarantined TU's spans stay in the build's trace
        observer.adopt(exc.spans)
    return TUFailure(source, "frontend", exc.message, list(exc.diagnostics), retries)


def _worker(conn) -> None:
    """A worker process: compile each TU the driver sends (the arguments
    of :func:`_compile_tu`), send back the output or the exception."""
    while (job := conn.recv()) is not None:
        try:
            reply = _compile_tu(*job)
        except TUCompileError as exc:
            reply = exc
        except Exception as exc:  # a bug: the driver re-raises it, citing this traceback
            exc.worker_traceback = traceback.format_exc()
            reply = exc
        conn.send(reply)


def _run_workers(
    todo: list, args: tuple, jobs: int, timeout: Optional[float], outputs: dict, failures: dict,
    keep_going: bool,
) -> None:
    """Compile ``todo`` ((index, source) pairs) on up to ``jobs`` worker
    processes, one TU per worker at a time, so every fault names its TU:
    a dead worker's TU runs once more on a new worker (a second death is
    phase ``worker``), and a TU past its deadline has its worker killed
    (phase ``timeout``).  No other TU is rerun; no worker outlives the call.

    Without ``keep_going`` the first failure ends the run: TUs after the
    lowest failed index are dropped from the queue and their workers
    killed, and only the TUs before it are awaited (all already sent, as
    TUs go out in index order), so the failure the build raises, the
    lowest-indexed one, does not depend on timing."""
    limit = math.inf if timeout is None else timeout
    queue, crashed, idle = deque(todo), set(), []
    workers: dict = {}  # conn -> process, for every live worker
    busy: dict = {}  # conn -> (index, source, deadline)
    try:
        while queue or busy:
            while queue and (idle or len(workers) < jobs):
                if not idle:
                    # the default context: forked on Linux, workers inherit the driver's modules
                    conn, child = multiprocessing.Pipe()
                    workers[conn] = multiprocessing.Process(target=_worker, args=(child,))
                    workers[conn].start()
                    child.close()
                    idle.append(conn)
                conn = idle.pop()
                i, source = queue.popleft()
                conn.send((source, *args))
                busy[conn] = (i, source, time.monotonic() + limit)
            left = min(d for _, _, d in busy.values()) - time.monotonic()
            for conn in wait(list(busy), max(left, 0.0) if left < math.inf else None):
                i, source, deadline = busy.pop(conn)
                retries = int(i in crashed)
                try:
                    reply = conn.recv()
                except EOFError:  # the worker died, or was killed at the deadline
                    workers.pop(conn).join()
                    conn.close()
                    if deadline <= time.monotonic():
                        error = f"timed out after {timeout:g}s"
                        failures[i] = TUFailure(source, "timeout", error, retries=retries)
                    elif retries:
                        error = "worker process crashed (reproduced on retry)"
                        failures[i] = TUFailure(source, "worker", error, retries=1)
                    else:
                        crashed.add(i)
                        queue.appendleft((i, source))
                    continue
                idle.append(conn)
                if isinstance(reply, TUCompileError):
                    failures[i] = _failure_from(source, reply, retries)
                elif isinstance(reply, BaseException):
                    raise reply from RuntimeError(f"in the worker: {reply.worker_traceback}")
                else:
                    outputs[i] = reply
            for conn, (_, _, deadline) in busy.items():
                if deadline <= time.monotonic():
                    workers[conn].kill()  # the next wait reads its EOF
                    workers[conn].join()
            if failures and not keep_going:
                first = min(failures)
                queue = deque(job for job in queue if job[0] < first)
                for conn in [c for c, (i, _, _) in busy.items() if i > first]:
                    del busy[conn]
                    proc = workers.pop(conn)
                    proc.kill()
                    proc.join()
                    conn.close()
    finally:
        for conn, proc in workers.items():
            if conn in idle and proc.is_alive():
                conn.send(None)
            else:
                proc.kill()
            proc.join()
            conn.close()


def build(
    sources: list[str],
    options: Optional[BuildOptions] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    files: Optional[dict[str, str]] = None,
    keep_going: bool = False,
    timeout: Optional[float] = None,
    trace: bool = False,
    checks: Optional[str] = None,
) -> tuple[PDB, BuildStats]:
    """Compile ``sources`` and merge them into one PDB.

    ``jobs`` > 1 fans the per-TU compilations across worker processes;
    merge order always follows ``sources`` order, so the result is
    deterministic.  ``cache_dir`` enables the incremental cache.
    ``files`` supplies an in-memory corpus (name -> text), the same shape
    :meth:`Frontend.register_files` takes.

    ``keep_going`` quarantines failed TUs (recorded in
    ``stats.failures``) and merges the rest — the merged output is
    byte-identical to a build that never listed the failed TUs.  Without
    it, the build stops at the first failure, compiles no later TU to
    the end and raises the lowest-indexed failure as
    :class:`TUCompileError`.  ``timeout`` bounds each TU's wall clock:
    with it, TUs compile on worker processes even at ``jobs=1``, and a
    TU past the bound has its worker killed.

    Every wall time in ``stats`` is read from the :func:`repro.obs.observe`
    span that wraps the same work: ``total_wall_s`` is the
    ``pdbbuild.build`` span, each TU's ``wall_s`` its
    ``pdbbuild.compile_tu`` span, ``merge_wall_s`` the ``pdbmerge``
    span, and the ``check`` section's times the ``check`` and
    ``check.<name>`` spans.  ``trace`` decides only whether those spans
    are collected: every toolchain phase (driver scheduling, per-TU
    frontend/analyzer/writer phases across worker pids, merge) records
    into ``stats.trace_spans``, cache activity records counter samples
    into ``stats.trace_counters``, and ``stats.phases`` aggregates
    per-phase wall time — the material for ``--trace-json`` /
    ``--self-profile``.

    ``checks`` runs the :mod:`repro.check` static-analysis suite over
    the merged result ("all" or a selection as in
    :func:`repro.check.resolve_selection`); findings land in
    ``stats.check_report``, the summary (per-rule counts, per-check wall
    time) in ``stats.check`` / the stats document's ``check`` section.
    """
    observer = obs.enable() if trace else None
    try:
        with obs.observe("pdbbuild.build", cat="pdbbuild", jobs=jobs) as span:
            merged, stats = _build(
                sources, options, jobs, cache_dir, files, keep_going, timeout,
                trace, checks,
            )
    finally:
        if observer is not None:
            obs.disable()
    stats.total_wall_s = span.dur / 1e6
    if observer is not None:
        stats.trace_spans = list(observer.spans)
        stats.trace_counters = list(observer.counters)
        stats.phases = obs.phase_aggregates(stats.trace_spans)
    return merged, stats


def _build(
    sources: list[str],
    options: Optional[BuildOptions],
    jobs: int,
    cache_dir: Optional[str],
    files: Optional[dict[str, str]],
    keep_going: bool,
    timeout: Optional[float],
    trace: bool,
    checks: Optional[str] = None,
) -> tuple[PDB, BuildStats]:
    """The build pipeline behind :func:`build` (spans, counters and
    adopted worker spans go to whatever observer is installed)."""
    options = options or BuildOptions()
    stats = BuildStats(jobs=jobs, cache_dir=cache_dir)
    cache = BuildCache(cache_dir) if cache_dir else None
    fingerprint = options.fingerprint()
    epoch = uuid.uuid4().hex  # scopes per-worker Frontend reuse to this build

    def read_content(name: str) -> Optional[str]:
        if files and name in files:
            return files[name]
        try:
            return Path(name).read_text()
        except OSError:
            return None

    observer = obs.get_observer()
    outputs: dict[int, _TUOutput] = {}
    failures: dict[int, TUFailure] = {}
    hits: dict[int, bool] = {}
    to_compile: list[tuple[int, str]] = []
    with obs.observe("buildcache.lookup", cat="pdbbuild", tus=len(sources)):
        for i, source in enumerate(sources):
            entry = cache.lookup(fingerprint, source, read_content) if cache else None
            if entry is not None:
                outputs[i] = _TUOutput(
                    source=source,
                    pdb_text=entry.pdb_text,
                    dep_hashes=entry.deps,
                    items=entry.items,
                    warnings=entry.warnings,
                    errors=entry.errors,
                )
                hits[i] = True
            else:
                to_compile.append((i, source))
                hits[i] = False
            if cache is not None:
                # cumulative hit/miss/eviction ramp, one sample per lookup
                obs.counter(
                    "cache",
                    hits=cache.stats.hits,
                    misses=cache.stats.misses,
                    evictions=cache.stats.evictions,
                )

    # workers for parallel work, or for a deadline (a hung in-process compile can't be stopped)
    if to_compile and (timeout is not None or (jobs > 1 and len(to_compile) > 1)):
        _run_workers(
            to_compile, (options, files, trace, epoch), jobs, timeout, outputs, failures,
            keep_going,
        )
    else:
        for i, source in to_compile:
            try:
                outputs[i] = _compile_tu(source, options, files, trace, epoch)
            except TUCompileError as exc:
                failures[i] = _failure_from(source, exc)
                if not keep_going:
                    break

    if failures and not keep_going:
        first = min(failures)
        f = failures[first]
        raise TUCompileError(f.source, f.error, tuple(f.diagnostics))

    for i, _ in to_compile:
        if i in failures:
            continue  # quarantined: never cached, never merged
        out = outputs[i]
        if cache:
            cache.store(
                fingerprint,
                out.source,
                out.dep_hashes,
                out.pdb_text,
                items=out.items,
                warnings=out.warnings,
                errors=out.errors,
            )

    for i in range(len(sources)):
        if i in failures:
            continue
        out = outputs[i]
        if observer is not None:
            observer.adopt(out.spans)
        stats.tus.append(
            TUReport(
                source=out.source,
                cache_hit=hits[i],
                wall_s=out.wall_s,
                items=out.items,
                warnings=out.warnings,
                errors=len(out.errors),
                phases={
                    name: row["wall_s"]
                    for name, row in obs.phase_aggregates(out.spans).items()
                },
            )
        )
        stats.warnings += out.warnings
        stats.errors += len(out.errors)
        stats.hc_hits += out.hc_hits
        stats.hc_misses += out.hc_misses
        stats.hc_uncacheable += out.hc_uncacheable
    stats.failures = [failures[i] for i in sorted(failures)]
    if cache:
        stats.cache_hits = cache.stats.hits
        stats.cache_misses = cache.stats.misses
        stats.cache_evictions = cache.stats.evictions

    from repro.tools.pdbmerge import merge_pdb_texts_tree

    texts = [outputs[i].pdb_text for i in range(len(sources)) if i not in failures]
    with obs.observe("pdbmerge", cat="pdbbuild", tus=len(texts)) as span:
        merged, stats.merge, _passes = merge_pdb_texts_tree(texts)
    stats.merge_wall_s = span.dur / 1e6
    stats.output_items = len(merged.doc.items)

    if checks is not None:
        from repro.check import run_checks

        with obs.observe("check", cat="pdbbuild") as span:
            report = run_checks(merged, select=checks)
        stats.check_report = report
        stats.check = {
            "selection": checks,
            "findings": len(report.findings),
            "errors": report.count("error"),
            "warnings": report.count("warning"),
            "rules": report.rule_counts,
            "checks": {
                name: {"wall_s": report.timings[name]} for name in report.checks_run
            },
            "wall_s": span.dur / 1e6,
        }
    return merged, stats


def _process_names(spans) -> dict[int, str]:
    """Chrome-trace process labels: the driver pid vs worker pids."""
    labels: dict[int, str] = {}
    for s in spans:
        if s.pid not in labels:
            labels[s.pid] = "pdbbuild driver" if s.pid == os.getpid() else "pdbbuild worker"
    return labels


def add_mode_arguments(ap: argparse.ArgumentParser) -> None:
    """The --tused/--tall/--tauto instantiation-mode flags shared by
    cxxparse and pdbbuild."""
    ap.add_argument(
        "--tused",
        dest="mode",
        action="store_const",
        const=InstantiationMode.USED,
        default=InstantiationMode.USED,
        help="used-instantiation mode (default; the mode PDT needs)",
    )
    ap.add_argument(
        "--tall",
        dest="mode",
        action="store_const",
        const=InstantiationMode.ALL,
        help="instantiate all members of instantiated templates",
    )
    ap.add_argument(
        "--tauto",
        dest="mode",
        action="store_const",
        const=InstantiationMode.PRELINK,
        help="EDG automatic (prelinker) scheme: instantiations absent from the IL",
    )


def add_recovery_arguments(ap: argparse.ArgumentParser) -> None:
    """The frontend error-recovery flag shared by cxxparse and pdbbuild."""
    ap.add_argument(
        "--keep-going-errors",
        type=int,
        metavar="N",
        help="recover from up to N user-source errors per TU instead of "
        "aborting on the first; recovered errors become ferr records in "
        "the output PDB",
    )


def parse_passes(ap: argparse.ArgumentParser, spec: Optional[str]):
    """Validate a --passes spec against the analyzer's known traversals."""
    if not spec:
        return None
    from repro.analyzer.ilanalyzer import DEFAULT_PASSES

    selected = tuple(p.strip() for p in spec.split(",") if p.strip())
    unknown = set(selected) - set(DEFAULT_PASSES)
    if unknown:
        ap.error(f"unknown passes: {', '.join(sorted(unknown))}")
    return selected


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbbuild",
        description="parallel, incrementally-cached C++ -> PDB build driver",
    )
    ap.add_argument("source", nargs="+", help="translation units to compile")
    ap.add_argument("-o", "--output", help="output PDB (default: <source>.pdb)")
    ap.add_argument(
        "-I", dest="include_paths", action="append", default=[], help="include path"
    )
    ap.add_argument(
        "-j", "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    ap.add_argument(
        "--cache-dir",
        default=".pdbbuild-cache",
        help="incremental cache directory (default .pdbbuild-cache)",
    )
    ap.add_argument(
        "--no-cache", action="store_true", help="disable the incremental cache"
    )
    ap.add_argument(
        "--stats-json", help="write the per-phase build report to this file"
    )
    ap.add_argument(
        "--trace-json",
        metavar="OUT",
        help="write a Chrome-trace (chrome://tracing / Perfetto) JSON "
        "of the build: per-TU, per-phase spans across worker pids plus "
        "cache counter events",
    )
    ap.add_argument(
        "--self-profile",
        metavar="DIR",
        help="write a TAU-format profile (profile.n.c.t files, one node "
        "per build process) of the build itself into DIR — readable by "
        "the repro's own profile reader/displays",
    )
    ap.add_argument(
        "-k",
        "--keep-going",
        action="store_true",
        help="quarantine failed TUs and merge the rest (exit non-zero, "
        "failures listed in --stats-json)",
    )
    ap.add_argument(
        "--timeout",
        type=float,
        metavar="SECS",
        help="per-TU wall-clock bound; a hung TU's worker is killed "
        "and the TU fails",
    )
    ap.add_argument(
        "--check",
        nargs="?",
        const="all",
        default=None,
        metavar="RULES",
        help="run the static-analysis suite on the merged result "
        "(optionally a comma list of check names / rule ids; default all); "
        "findings at warning level or above exit non-zero",
    )
    add_mode_arguments(ap)
    add_recovery_arguments(ap)
    ap.add_argument(
        "--passes",
        help="comma-separated analyzer traversals to run (so,te,na,cl,ro,ty,ma)",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    options = BuildOptions(
        include_paths=tuple(args.include_paths),
        instantiation_mode=args.mode,
        passes=parse_passes(ap, args.passes),
        keep_going_errors=args.keep_going_errors,
    )
    cache_dir = None if args.no_cache else args.cache_dir
    trace = bool(args.trace_json or args.self_profile)
    if args.check is not None:
        from repro.check import resolve_selection

        try:
            resolve_selection(args.check)
        except ValueError as e:
            ap.error(str(e))
    try:
        merged, stats = build(
            args.source,
            options,
            jobs=max(1, args.jobs),
            cache_dir=cache_dir,
            keep_going=args.keep_going,
            timeout=args.timeout,
            trace=trace,
            checks=args.check,
        )
    except TUCompileError as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        print(f"pdbbuild: error: {exc}", file=sys.stderr)
        return 1
    out = args.output or (args.source[0].rsplit(".", 1)[0] + ".pdb")
    merged.write(out)
    if args.stats_json:
        with open(args.stats_json, "w") as f:
            json.dump(stats.to_dict(), f, indent=1)
    if args.trace_json:
        obs.write_chrome_trace(
            args.trace_json,
            stats.trace_spans,
            stats.trace_counters,
            process_names=_process_names(stats.trace_spans),
        )
    if args.self_profile:
        from repro.tau.profiledata import write_profiles

        write_profiles(obs.replay_spans(stats.trace_spans), args.self_profile)
    if args.verbose:
        for tu in stats.tus:
            tag = "hit " if tu.cache_hit else "miss"
            print(f"  [{tag}] {tu.source}: {tu.items} items, {tu.wall_s:.3f}s")
        print(
            f"  merge: {stats.merge.duplicates_eliminated} duplicates eliminated "
            f"({stats.merge.duplicate_instantiations} template instantiations), "
            f"{stats.merge_wall_s:.3f}s"
        )
    check_failed = False
    if stats.check_report is not None:
        from repro.check import render_text

        print(render_text(stats.check_report, verbose=args.verbose))
        check_failed = stats.check_report.fails("warning")
    print(f"{out}: {stats.output_items} items")
    if stats.warnings:
        print(f"{stats.warnings} warning(s)")
    if stats.errors:
        print(f"{stats.errors} recovered error(s) recorded as ferr items")
    for f_ in stats.failures:
        for line in f_.diagnostics:
            print(line, file=sys.stderr)
        print(
            f"pdbbuild: error: {f_.source}: [{f_.phase}] {f_.error}", file=sys.stderr
        )
    if stats.failures:
        n = len(stats.failures)
        print(
            f"pdbbuild: {n} of {len(args.source)} TU(s) failed; "
            f"merged the remaining {len(stats.tus)}",
            file=sys.stderr,
        )
        return 1
    return 1 if check_failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
