"""The three workloads: set-up, one operation, and the output checks.

Each workload drives the program only through the public entry points
its command-line tools use, always as ``module.attribute`` calls so the
traced run's shims see them.  The program only ever sees the generated
files on disk.

* ``cold-build`` — every op builds all units from an empty cache
  directory (frontend, analyzer, PDB writer, worker pool, cache stores).
* ``edit-loop`` — the cache is warm; every op rewrites one unit's marker
  value in place and rebuilds everything (cache lookups, PDB reader,
  merge; one compile, so the pool is bypassed).
* ``analyze`` — every op is one analysis session over a prebuilt merged
  database on disk (reader, DUCTAPE, pdbcheck, pdbtree, TAU, SILOON).
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Any

import repro.check as rcheck
import repro.pdbfmt.reader as reader
import repro.siloon.generator as siloon
import repro.tau.instrumentor as instrumentor
import repro.tau.simulate as simulate
import repro.tools.pdbbuild as pdbbuild
import repro.tools.pdbtree as pdbtree
from repro.ductape.pdb import PDB
from repro.tau.machine import uniform_model
from repro.tau.tracing import TraceBuffer
from repro.workloads import defects

from corpus import Corpus, CorpusSpec, generate, marker_line

#: pdbbuild's only parallelism: one worker per core, at most four
JOBS = min(len(os.sched_getaffinity(0)), 4)

#: per-entry ceiling on simulated calls; a session must stay below it
#: for the two TAU engines to be comparable
EVENT_BUDGET = 200_000

#: trip count of every plain-class method chain link in the analyze
#: workload's simulated runs
CHAIN_TRIPS = 3


@dataclass
class State:
    """What set-up leaves for the operations of one run."""

    root: str
    seed: int
    corpus: Corpus
    sources: list[str]
    options: pdbbuild.BuildOptions
    out: str
    extra: dict[str, Any] = field(default_factory=dict)


def _prepare(root: str, seed: int, spec: CorpusSpec) -> State:
    corpus = generate(seed, spec)
    corpus.write(root)
    return State(
        root=root,
        seed=seed,
        corpus=corpus,
        sources=[os.path.join(root, s) for s in corpus.sources],
        options=pdbbuild.BuildOptions(
            include_paths=tuple(os.path.join(root, d) for d in corpus.include_dirs)
        ),
        out=os.path.join(root, "out.pdb"),
    )


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def generated_names(pdb: PDB, root: str) -> tuple[set[str], set[str]]:
    """(defined non-template routines, class instantiations) located in
    the generated headers and units, as the ground truth spells them."""
    own = (os.path.join(root, "lib") + os.sep, os.path.join(root, "src") + os.sep)
    routines = set()
    for r in pdb.getRoutineVec():
        loc = r.location()
        if r.template() is None and r.bodyBegin().known and loc.known:
            if loc.file().name().startswith(own):
                routines.add(r.fullName())
    insts = {c.fullName() for c in pdb.getClassVec() if c.template() is not None}
    return routines, insts


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    spec = CorpusSpec()

    def setup(self, root: str, seed: int) -> State:
        raise NotImplementedError

    def op(self, state: State, i: int) -> Any:
        raise NotImplementedError

    def check(self, state: State, i: int, result: Any) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def cleanup(self, state: State, i: int) -> None:
        """Untimed housekeeping after an op."""


class ColdBuild(Workload):
    name = "cold-build"
    spec = CorpusSpec(n_tus=12)

    def setup(self, root, seed):
        state = _prepare(root, seed, self.spec)
        # the reference: a serial, cache-less build of the same files
        merged, _stats = pdbbuild.build(state.sources, state.options, jobs=1)
        state.extra["reference"] = merged.to_text()
        return state

    def op(self, state, i):
        cache_dir = os.path.join(state.root, f"cache-{i}")
        merged, stats = pdbbuild.build(
            state.sources, state.options, jobs=JOBS, cache_dir=cache_dir
        )
        merged.write(state.out)
        return stats

    def cleanup(self, state, i):
        shutil.rmtree(os.path.join(state.root, f"cache-{i}"), ignore_errors=True)

    def check(self, state, i, stats):
        problems = []
        text = _read(state.out)
        if text != state.extra["reference"]:
            problems.append("output differs from the serial cache-less build")
        if stats.failures or stats.cache_misses != len(state.sources):
            problems.append(
                f"{len(stats.failures)} failed units, {stats.cache_misses} cache misses"
            )
        routines, insts = generated_names(PDB.from_text(text), state.root)
        if routines != state.corpus.routines:
            problems.append(
                f"routines: missing {sorted(state.corpus.routines - routines)[:5]}, "
                f"unexpected {sorted(routines - state.corpus.routines)[:5]}"
            )
        if insts != state.corpus.class_insts:
            problems.append(
                f"instantiations: missing {sorted(state.corpus.class_insts - insts)[:5]}, "
                f"unexpected {sorted(insts - state.corpus.class_insts)[:5]}"
            )
        return problems


class EditLoop(Workload):
    name = "edit-loop"
    spec = CorpusSpec(n_tus=24)

    def setup(self, root, seed):
        state = _prepare(root, seed, self.spec)
        state.extra["cache"] = os.path.join(root, "cache")
        merged, _stats = pdbbuild.build(
            state.sources, state.options, jobs=JOBS, cache_dir=state.extra["cache"]
        )
        state.extra["expected"] = merged.to_text()
        state.extra["values"] = {rel: v for rel, (_, v) in state.corpus.markers.items()}
        state.extra["rng"] = random.Random(seed)
        return state

    def op(self, state, i):
        rel = state.extra["rng"].choice(sorted(state.corpus.markers))
        name, _ = state.corpus.markers[rel]
        old = state.extra["values"][rel]
        new = 1_000_000 + (i * 7919 + state.seed * 104_729) % 9_000_000
        if new == old:
            new = 1_000_000 + (new + 1 - 1_000_000) % 9_000_000
        path = os.path.join(state.root, rel)
        text = _read(path)
        with open(path, "w") as f:
            f.write(text.replace(marker_line(name, old), marker_line(name, new), 1))
        merged, stats = pdbbuild.build(
            state.sources, state.options, jobs=JOBS, cache_dir=state.extra["cache"]
        )
        merged.write(state.out)
        state.extra["values"][rel] = new
        return rel, name, old, new, stats

    def check(self, state, i, result):
        rel, name, old, new, stats = result
        problems = []
        before = f"\nmatext {marker_line(name, old)}\n"
        after = f"\nmatext {marker_line(name, new)}\n"
        expected = state.extra["expected"]
        if expected.count(before) != 1:
            problems.append(f"marker {name} not found once in the previous output")
        expected = expected.replace(before, after, 1)
        state.extra["expected"] = expected
        text = _read(state.out)
        if after not in text:
            problems.append(f"marker value {new} of {rel} missing from the output")
        if text != expected:
            problems.append("items of the other units changed")
        n = len(state.sources)
        if stats.failures or (stats.cache_hits, stats.cache_misses) != (n - 1, 1):
            problems.append(
                f"cache hits/misses {stats.cache_hits}/{stats.cache_misses}, want {n - 1}/1"
            )
        return problems


class Analyze(Workload):
    name = "analyze"
    spec = CorpusSpec(n_tus=16)

    def setup(self, root, seed):
        state = _prepare(root, seed, self.spec)
        for name, text in defects.defect_files().items():
            path = os.path.join(root, "defects", name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
        sources = state.sources + [
            os.path.join(root, "defects", s) for s in defects.DEFECT_SOURCES
        ]
        merged, _stats = pdbbuild.build(sources, state.options, jobs=JOBS)
        merged.write(state.out)
        # seeded trip counts with a seed-independent total: each entry
        # calls its helpers a shuffled 2, 3, 4, ... times, and every link
        # of every plain-class method chain runs CHAIN_TRIPS times
        rng = random.Random(seed)
        counts = {}
        trips = list(range(2, 2 + self.spec.helpers_per_tu))
        for t, entry in enumerate(state.corpus.entries.values()):
            rng.shuffle(trips)
            for j, n in enumerate(trips):
                counts[(entry, f"tu{t}_helper{j}")] = n
        for k in range(self.spec.n_headers):
            for j in range(self.spec.plain_per_header):
                cls = f"Lib{k}Plain{j}"
                for m in range(self.spec.methods_per_plain - 1):
                    counts[(f"{cls}::m{m}", f"{cls}::m{m + 1}")] = CHAIN_TRIPS
        state.extra["counts"] = counts
        return state

    def op(self, state, i):
        pdb = PDB(reader.parse_pdb_file(state.out))
        report = rcheck.run_checks(pdb)
        trees = (
            pdbtree.render_call_tree(pdb),
            pdbtree.render_class_tree(pdb),
            pdbtree.render_inclusion_tree(pdb),
        )
        sources = {
            f.name(): _read(f.name()) for f in pdb.getFileVec() if not f.isSystem()
        }
        rewritten = instrumentor.instrument_sources(pdb, sources)
        profiles = []
        for entry in state.corpus.entries.values():
            spec = simulate.WorkloadSpec(
                entry=entry, cost=uniform_model(4.0), pair_counts=state.extra["counts"]
            )
            sim = simulate.ExecutionSimulator(pdb, spec)
            events = TraceBuffer()
            profiles.append(
                (entry, sim.run(), sim.run_traced(tracer=events, max_events=EVENT_BUDGET), events)
            )
        bindings = siloon.generate_bindings(pdb)
        return report, trees, rewritten, profiles, bindings

    def check(self, state, i, result):
        report, trees, rewritten, profiles, bindings = result
        problems = []
        found: dict[str, set[str]] = {}
        for f in report.findings:
            item = os.path.basename(f.item) if f.rule.id == "PDT041" else f.item
            found.setdefault(f.rule.id, set()).add(item)
        if found != defects.EXPECTED:
            problems.append(f"findings {found} != planted {defects.EXPECTED}")
        call_tree = trees[0]
        missing_roots = [e for e in state.corpus.entries.values() if e not in call_tree]
        if missing_roots or not all(trees):
            problems.append(f"pdbtree output lacks {missing_roots[:5]}")
        if not any(s.insertions for s in rewritten.values()):
            problems.append("TAU instrumented no routine")
        for entry, fast, traced, events in profiles:
            problems += _profile_problems(entry, fast.profile(0), traced.profile(0), events)
        bound = {cb.cls.fullName() for cb in bindings.classes}
        want = state.corpus.public_classes | state.corpus.class_insts
        if not want <= bound:
            problems.append(f"bindings miss classes {sorted(want - bound)[:5]}")
        return problems


def _profile_problems(entry: str, fast, traced, events: TraceBuffer) -> list[str]:
    """The closed-form profile must equal the traced one; a traced run cut
    short by its event budget shows up as a disagreement."""
    if events.dropped:
        return [f"{entry}: the trace buffer dropped events"]
    if set(fast.timers) != set(traced.timers):
        return [f"{entry}: engines name different timers"]
    for name, f in fast.timers.items():
        t = traced.timers[name]
        if (f.calls, f.subrs) != (t.calls, t.subrs) or not (
            _close(f.inclusive, t.inclusive) and _close(f.exclusive, t.exclusive)
        ):
            return [f"{entry}: engines disagree on timer {name}"]
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ColdBuild(), EditLoop(), Analyze())
}
