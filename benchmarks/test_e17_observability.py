"""E17 — observability overhead: tracing the toolchain must be ~free.

The ``repro.obs`` layer times the toolchain itself (frontend phases,
analyzer passes, PDB write/merge, pdbbuild workers) with wall-clock
spans that replay through the TAU measurement runtime.  Instrumented
code calls ``obs.observe`` whether or not an observer is installed, so
two costs matter:

* **disabled** — the permanent cost every build pays: two clock reads
  and one span object per phase.  Budget: < ~3% over the E15 serial
  workload.
* **enabled**  — the cost of a ``--trace-json`` build: collecting the
  spans.  Cheap, but not budgeted to zero.

Also asserts the trace acceptance properties on this workload: the
per-TU compile spans plus driver phases sum to within 5% of the build
wall time, and the replayed TAU self-profile passes the runtime's own
consistency check.  Run with ``-s`` to see the timing table.
"""

import statistics
import time

import pytest

from repro import obs
from repro.tools.pdbbuild import build
from repro.workloads.synth import SynthSpec, generate

#: same shape as the E15 serial workload — overhead is measured on the
#: workload the budget is defined against
SPEC = SynthSpec(
    n_plain_classes=6,
    methods_per_class=4,
    n_templates=4,
    instantiations_per_template=3,
    n_translation_units=6,
)

#: the paper-level budget is ~3%; CI boxes are noisy (cron jobs, shared
#: runners), so the hard gate leaves headroom while the printed table
#: reports the real number
OVERHEAD_BUDGET = 0.03
OVERHEAD_GATE = 0.15


@pytest.fixture(scope="module")
def corpus():
    return generate(SPEC)


def _timed_builds(corpus, repeats, trace=False):
    """Serial in-process builds; returns the per-run wall times."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build(corpus.main_files, files=corpus.files, trace=trace)
        walls.append(time.perf_counter() - t0)
    return walls


def test_e17_disabled_overhead_within_budget(corpus):
    """Acceptance: instrumentation with no observer installed costs
    under the budget (median over repeated serial builds)."""
    assert not obs.is_enabled()
    # interleave the two arms so drift (cache warmup, frequency
    # scaling) hits both equally; first pair warms up and is dropped
    base_walls, traced_walls = [], []
    for _ in range(6):
        traced_walls.extend(_timed_builds(corpus, 1, trace=True))
        base_walls.extend(_timed_builds(corpus, 1, trace=False))
    base = statistics.median(base_walls[1:])
    traced = statistics.median(traced_walls[1:])
    overhead = traced / base - 1.0
    print(
        f"\n--- E17 observability overhead ({len(corpus.main_files)} TUs) ---\n"
        f"  plain build : {base:8.3f}s (median of {len(base_walls) - 1})\n"
        f"  traced build: {traced:8.3f}s (median of {len(traced_walls) - 1})\n"
        f"  overhead    : {overhead:+8.1%}  (budget {OVERHEAD_BUDGET:.0%}, "
        f"gate {OVERHEAD_GATE:.0%})"
    )
    assert overhead < OVERHEAD_GATE


def test_e17_trace_spans_cover_build_wall(corpus):
    """Acceptance: compile + merge + cache spans sum to within 5% of
    the serial build's wall time."""
    t0 = time.perf_counter()
    _, stats = build(corpus.main_files, files=corpus.files, trace=True)
    wall = time.perf_counter() - t0
    covered = sum(
        s.dur / 1e6
        for s in stats.trace_spans
        if s.name.startswith("pdbbuild.compile_tu")
        or s.name in ("pdbmerge", "buildcache.lookup")
    )
    build_span = next(
        s for s in stats.trace_spans if s.name == "pdbbuild.build"
    )
    assert covered <= wall * 1.0001
    assert covered >= build_span.dur / 1e6 * 0.95
    # every TU reported its frontend phases
    assert all("cpp.parse" in t.phases for t in stats.tus)


def test_e17_self_profile_replay_consistent(corpus):
    """The replayed TAU profiler passes the runtime's own consistency
    invariants and shows the toolchain's phase hierarchy."""
    _, stats = build(corpus.main_files, files=corpus.files, trace=True)
    profiler = obs.replay_spans(stats.trace_spans)
    for prof in profiler.profiles.values():
        prof.check_consistency()
    driver = profiler.profile(0)
    assert "pdbbuild.build" in driver.timers
    assert driver.timers["cpp.parse"].calls == len(corpus.main_files)


def test_e17_disabled_observe_benchmark(benchmark):
    """Microbenchmark: the disabled obs.observe fast path."""
    assert not obs.is_enabled()

    def probe():
        with obs.observe("phase", cat="bench"):
            pass

    benchmark(probe)
