"""Fault-tolerance tests: frontend error recovery, keep-going parallel
builds, hung/crashed workers, and cache self-healing.

Driven by the fault-injection harness in :mod:`tests.faults`; the
headline scenario is the 10-TU build with 2 broken TUs whose keep-going
output must be byte-identical to a build that never listed the broken
TUs."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.buildcache import BuildCache
from repro.cpp import CppError, DiagnosticSink, Frontend, FrontendOptions, TooManyErrors
from repro.cpp.preprocessor import Preprocessor
from repro.cpp.source import SourceLocation, SourceManager
from repro.tools import pdbbuild
from repro.tools.pdbbuild import (
    BuildOptions,
    TUCompileError,
    build,
    main as pdbbuild_main,
)
from repro.workloads.synth import SynthSpec, generate

from tests import faults
from tests.util import preprocess, texts

#: the package source root, for tests that run a tool in a fresh interpreter
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def corpus10(tmp_path):
    """A 10-TU synthetic corpus on disk; returns (root, main paths)."""
    corpus = generate(SynthSpec(n_translation_units=10))
    root = tmp_path / "src"
    faults.write_corpus(root, corpus.files)
    mains = [str(root / m) for m in corpus.main_files]
    return root, mains


# -- diagnostics sink: cascade bound (satellite a) ----------------------


class TestCascadeBound:
    def test_soft_errors_hit_the_bound(self):
        sink = DiagnosticSink(fatal_errors=False, max_errors=5)
        for _ in range(4):
            sink.soft_error("bad")
        with pytest.raises(TooManyErrors):
            sink.soft_error("bad")
        assert sink.error_count == 5

    def test_hard_errors_hit_the_bound_before_escalating(self):
        sink = DiagnosticSink(fatal_errors=True, max_errors=1)
        with pytest.raises(TooManyErrors):
            sink.error("bad")

    def test_running_counts_equal_a_recount(self):
        from repro.cpp.diagnostics import Diagnostic, Severity

        seed = [Diagnostic(Severity.WARNING, "w"), Diagnostic(Severity.ERROR, "e")]
        sink = DiagnosticSink(fatal_errors=False, max_errors=1_000, diagnostics=seed)
        for i in range(60):
            [sink.note, sink.warn, sink.soft_error, sink.error][i * 7 % 4](f"d{i}")
        fatal = DiagnosticSink(fatal_errors=True)
        fatal.warn("w")
        with pytest.raises(CppError):
            fatal.error("e")
        for s in (sink, fatal):
            recount = [d.severity for d in s.diagnostics]
            assert s.error_count == recount.count(Severity.ERROR)
            assert s.warning_count == recount.count(Severity.WARNING)
        assert (sink.error_count, sink.warning_count) == (31, 16)
        assert (fatal.error_count, fatal.warning_count) == (1, 1)

    def test_too_many_errors_is_a_cpperror(self):
        # recovery handlers catch CppError; TooManyErrors must pass
        # through them only via explicit re-raise guards
        assert issubclass(TooManyErrors, CppError)

    def test_compile_stops_at_bound_not_at_input_size(self):
        fe = Frontend(FrontendOptions(fatal_errors=False, max_errors=7))
        src = "".join(f"int broken{i}( {{ ;;;\n" for i in range(500))
        fe.manager.register("cascade.cpp", src)
        fe.compile("cascade.cpp")
        assert fe.last_error_overflow
        assert 7 <= fe.last_sink.error_count <= 9


# -- include-graph errors carry locations (satellite b) -----------------


class TestIncludeErrorLocations:
    def test_depth_limit_error_has_location(self):
        files = {f"h{i}.h": f'#include "h{i + 1}.h"\n' for i in range(210)}
        files["h210.h"] = ""
        mgr = SourceManager()
        mgr.register_many(files)
        main = mgr.register("main.cpp", '#include "h0.h"\n')
        pp = Preprocessor(mgr)
        with pytest.raises(CppError) as ei:
            pp.preprocess(main)
        assert "depth limit" in ei.value.message
        assert ei.value.location is not None
        assert ei.value.location.file.name.startswith("h")

    def test_circular_include_error_has_location(self):
        mgr = SourceManager()
        a = mgr.register("a.h", "")
        pp = Preprocessor(mgr)
        pp._include_stack.append(a)
        loc = SourceLocation(a, 3, 1)
        with pytest.raises(CppError) as ei:
            pp._process_file(a, loc)
        assert "circular include" in ei.value.message
        assert ei.value.location is loc

    def test_depth_limit_recovers_in_keep_going_mode(self):
        files = {f"h{i}.h": f'#include "h{i + 1}.h"\n' for i in range(210)}
        files["h210.h"] = ""
        files["deep.cpp"] = '#include "h0.h"\nint survivor() { return 1; }\n'
        fe = Frontend(FrontendOptions(fatal_errors=False))
        fe.register_files(files)
        tree = fe.compile("deep.cpp")
        assert fe.last_sink.error_count >= 1
        assert tree.find_routine("survivor") is not None


# -- frontend recovery contributes partial IL + ferr records ------------


class TestPartialTU:
    def test_recovered_tu_contributes_other_entities(self, tmp_path):
        p = tmp_path / "recov.cpp"
        p.write_text(faults.PARTIAL_TU)
        merged, stats = build([str(p)], BuildOptions(keep_going_errors=25))
        names = [r.name() for r in merged.getRoutineVec()]
        assert "alpha" in names and "beta" in names
        assert merged.findClass("Keep") is not None
        ferrs = merged.getErrorVec()
        assert len(ferrs) == 1
        assert ferrs[0].name().endswith("recov.cpp")
        assert "error" in ferrs[0].render()
        assert stats.tus[0].errors == 1 and stats.errors == 1

    def test_ferr_records_survive_merge_and_cache(self, tmp_path):
        p = tmp_path / "recov.cpp"
        p.write_text(faults.PARTIAL_TU)
        q = tmp_path / "clean.cpp"
        q.write_text("int gamma() { return 3; }\n")
        cache = str(tmp_path / "cache")
        opts = BuildOptions(keep_going_errors=25)
        m1, s1 = build([str(p), str(q)], opts, cache_dir=cache)
        m2, s2 = build([str(p), str(q)], opts, cache_dir=cache)
        assert s2.cache_hits == 2
        assert m1.to_text() == m2.to_text()
        assert len(m2.getErrorVec()) == 1
        assert s2.tus[0].errors == 1  # replayed from the cache entry

    def test_truncated_source_recovers(self, tmp_path):
        p = tmp_path / "trunc.cpp"
        p.write_text("int whole() { return 1; }\nint casualty() { retur")
        merged, stats = build([str(p)], BuildOptions(keep_going_errors=25))
        names = [r.name() for r in merged.getRoutineVec()]
        assert "whole" in names
        assert merged.getErrorVec()

    def test_hopeless_tu_is_quarantined_not_merged(self, tmp_path):
        p = tmp_path / "hopeless.cpp"
        p.write_text("".join(f"int broken{i}( {{ ;;;\n" for i in range(100)))
        _, stats = build(
            [str(p)], BuildOptions(keep_going_errors=5), keep_going=True
        )
        assert len(stats.failures) == 1
        assert stats.failures[0].phase == "frontend"
        assert "too many errors" in stats.failures[0].error


# -- keep-going builds (the acceptance scenario) ------------------------


class TestKeepGoing:
    def test_two_broken_tus_quarantined_merge_byte_identical(
        self, corpus10, tmp_path, capsys
    ):
        root, mains = corpus10
        faults.break_tu(Path(mains[2]))
        faults.truncate_file(Path(mains[7]))
        stats_file = tmp_path / "stats.json"
        out_all = tmp_path / "all.pdb"
        rc = pdbbuild_main(
            mains
            + ["-j", "4", "-o", str(out_all), "--no-cache",
               "--stats-json", str(stats_file), "-k"]
        )
        assert rc == 1
        stats = json.loads(stats_file.read_text())
        failed = {f["source"] for f in stats["failures"]}
        assert failed == {mains[2], mains[7]}
        for f in stats["failures"]:
            assert f["phase"] == "frontend"
            assert f["diagnostics"], "failure must carry rendered diagnostics"
            assert "error:" in f["diagnostics"][0]
        err = capsys.readouterr().err
        assert "2 of 10 TU(s) failed" in err

        good = [m for i, m in enumerate(mains) if i not in (2, 7)]
        out_good = tmp_path / "good.pdb"
        assert pdbbuild_main(good + ["-o", str(out_good), "--no-cache", "-j", "4"]) == 0
        assert out_all.read_bytes() == out_good.read_bytes()

    def test_without_keep_going_first_failure_raises(self, corpus10):
        _, mains = corpus10
        faults.break_tu(Path(mains[2]))
        with pytest.raises(TUCompileError) as ei:
            build(mains, BuildOptions(), jobs=4)
        assert ei.value.source == mains[2]
        assert ei.value.diagnostics

    def test_without_keep_going_one_job_stops_at_first_failure(self, corpus10, monkeypatch):
        _, mains = corpus10
        faults.break_tu(Path(mains[0]))
        calls = []
        real = pdbbuild._compile_tu

        def counting(source, *args):
            calls.append(source)
            return real(source, *args)

        monkeypatch.setattr(pdbbuild, "_compile_tu", counting)
        with pytest.raises(TUCompileError) as ei:
            build(mains[:7], BuildOptions(), jobs=1)
        assert ei.value.source == mains[0]
        assert calls == [mains[0]]

    def test_without_keep_going_a_failure_ends_a_parallel_build(self, corpus10):
        _, mains = corpus10
        faults.break_tu(Path(mains[0]))
        start = time.monotonic()
        with faults.slow_tu(Path(mains[1]).name, 20), pytest.raises(TUCompileError) as ei:
            build(mains[:2], BuildOptions(), jobs=2)
        assert time.monotonic() - start < 10
        assert ei.value.source == mains[0]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched module reaches worker processes only by fork",
    )
    def test_without_keep_going_the_lowest_failure_is_raised(self, corpus10, monkeypatch):
        # c fails first and b next, while a (good) is still compiling;
        # d, good but slow, would be sent when c's worker frees up
        _, mains = corpus10
        a, b, c, d = mains[:4]
        faults.break_tu(Path(b))
        faults.break_tu(Path(c))
        delays = {a: 2.0, b: 0.5, d: 30.0}
        monkeypatch.setattr(
            pdbbuild, "_apply_fault_hooks", lambda source: time.sleep(delays.get(source, 0))
        )
        start = time.monotonic()
        with pytest.raises(TUCompileError) as ei:
            build([a, b, c, d], BuildOptions(), jobs=3)
        assert time.monotonic() - start < 10
        assert ei.value.source == b
        assert multiprocessing.active_children() == []

    def test_failed_tus_are_not_cached(self, corpus10, tmp_path):
        _, mains = corpus10
        faults.break_tu(Path(mains[2]))
        cache = str(tmp_path / "cache")
        _, s1 = build(mains, BuildOptions(), jobs=2, cache_dir=cache, keep_going=True)
        assert len(s1.failures) == 1
        # fix the TU: it must be a miss (recompiled), not a stale hit
        Path(mains[2]).write_text("int repaired() { return 0; }\n")
        _, s2 = build(mains, BuildOptions(), jobs=2, cache_dir=cache, keep_going=True)
        assert s2.failures == []
        assert s2.cache_hits == 9 and s2.cache_misses == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recursion_error_is_quarantined(self, tmp_path, jobs):
        # two thousand nested parentheses exhaust the recursive-descent
        # parser's stack: that TU fails alone, the others still merge
        good = [tmp_path / "a.cpp", tmp_path / "b.cpp"]
        good[0].write_text("int g( ) { return 1; }\nint main( ) { return g( ); }\n")
        good[1].write_text("int h( ) { return 2; }\n")
        bad = tmp_path / "deep.cpp"
        bad.write_text("int f( ) { return %s1%s; }\n" % ("(" * 2000, ")" * 2000))
        sources = [str(good[0]), str(bad), str(good[1])]
        merged, stats = build(sources, BuildOptions(), jobs=jobs, keep_going=True)
        assert [(f.source, f.phase) for f in stats.failures] == [(str(bad), "frontend")]
        assert "recursion limit" in stats.failures[0].error
        ref, _ = build([str(p) for p in good], BuildOptions(), jobs=jobs)
        assert merged.to_text() == ref.to_text()
        with pytest.raises(TUCompileError):
            build(sources, BuildOptions(), jobs=jobs)


# -- #if values C rejects, and deep nesting -------------------------------

#: ``#if`` condition -> the diagnostic its TU is quarantined with (None:
#: valid C, the TU compiles)
IF_CASES = {
    "X == -1": None,
    "2 + -1": None,
    "1 << -1": "shift count out of range",
    "1e400": "floating constant",
    "9" * 300 + " / 3": "integer overflow",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_if_value_errors_are_quarantined(tmp_path, jobs):
    # each condition once raised ValueError or OverflowError out of the
    # evaluator, past -k, and ended the whole build
    sources = []
    for i, cond in enumerate(IF_CASES):
        path = tmp_path / f"if{i}.cpp"
        path.write_text(f"#if {cond}\nint a{i}( ) {{ return 1; }}\n#endif\n"
                        f"int b{i}( ) {{ return 2; }}\n")
        sources.append(str(path))
    merged, stats = build(sources, BuildOptions(), jobs=jobs, keep_going=True)
    failed = {f.source: (f.phase, f.error) for f in stats.failures}
    want = {src: msg for src, msg in zip(sources, IF_CASES.values()) if msg}
    assert sorted(failed) == sorted(want)
    for src, (phase, error) in failed.items():
        assert phase == "frontend" and want[src] in error
    names = {r.name() for r in merged.getRoutineVec()}
    assert names == {"b0", "b1", "a1"}


class TestDepthLadder:
    """Valid code nested deeper than the level-recursive expression
    grammars could parse (53 parentheses in a build, 75 in ``#if``), and
    more stray characters in a row than a lexer that resumes by recursion
    can skip."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("depth", [10, 50, 100])
    def test_parenthesised_call_compiles(self, tmp_path, jobs, depth):
        deep = tmp_path / "deep.cpp"
        deep.write_text("int g( ) { return 1; }\nint f( ) { return %sg( )%s; }\n"
                        % ("(" * depth, ")" * depth))
        other = tmp_path / "other.cpp"
        other.write_text("int h( ) { return 2; }\n")
        merged, stats = build([str(deep), str(other)], BuildOptions(), jobs=jobs)
        assert stats.failures == []
        calls = merged.findRoutine("f").callees()
        assert [(c.call().name(), c.location().line()) for c in calls] == [("g", 2)]

    def test_if_condition_evaluates(self):
        toks, _ = preprocess("#if %s1%s\nyes\n#endif" % ("(" * 100, ")" * 100))
        assert texts(toks) == ["yes"]

    @pytest.mark.parametrize("count", [100, 1_000, 5_000])
    def test_stray_characters_are_skipped(self, tmp_path, count):
        src = tmp_path / "stray.cpp"
        src.write_text("@" * count + "int ok( ) { return 1; }\n")
        # one more than the count: at the bound the sink gives up on the TU
        merged, stats = build([str(src)], BuildOptions(keep_going_errors=count + 1))
        assert stats.failures == []
        assert merged.findRoutine("ok") is not None
        ferrs = merged.getErrorVec()
        assert len(ferrs) == count
        assert all("unexpected character '@'" in e.render() for e in ferrs)


# -- hung and crashed workers -------------------------------------------


class TestWorkerFaults:
    def test_hung_worker_times_out_rest_of_build_survives(self, corpus10):
        _, mains = corpus10
        victim = Path(mains[1]).name
        with faults.slow_tu(victim, 6.0):
            _, stats = build(
                mains, BuildOptions(), jobs=4, keep_going=True, timeout=1.5
            )
        assert [f.phase for f in stats.failures] == ["timeout"]
        assert stats.failures[0].source == mains[1]
        assert len(stats.tus) == 9

    def test_crash_once_recovers_via_retry(self, corpus10, tmp_path):
        _, mains = corpus10
        marker = tmp_path / "crash-once"
        with faults.crashing_tu(Path(mains[3]).name, once_marker=marker):
            _, stats = build(mains, BuildOptions(), jobs=4, keep_going=True)
        assert stats.failures == []
        assert len(stats.tus) == 10
        assert marker.exists(), "the injected crash never fired"

    def test_deterministic_crasher_fails_alone(self, corpus10):
        _, mains = corpus10
        with faults.crashing_tu(Path(mains[3]).name):
            _, stats = build(mains, BuildOptions(), jobs=4, keep_going=True)
        assert [(f.phase, f.retries) for f in stats.failures] == [("worker", 1)]
        assert stats.failures[0].source == mains[3]
        # every innocent bystander of the poisoned pool was retried home
        assert len(stats.tus) == 9

    def test_timeout_holds_at_one_job(self, corpus10):
        _, mains = corpus10
        start = time.monotonic()
        with faults.slow_tu(Path(mains[0]).name, 30):
            _, stats = build(mains[:1], BuildOptions(), jobs=1, timeout=1, keep_going=True)
        assert time.monotonic() - start < 10
        assert [(f.source, f.phase) for f in stats.failures] == [(mains[0], "timeout")]

    def test_no_worker_outlives_a_timeout(self, corpus10):
        _, mains = corpus10
        with faults.slow_tu(Path(mains[1]).name, 30):
            _, stats = build(mains[:3], BuildOptions(), jobs=2, keep_going=True, timeout=1.5)
        assert [f.phase for f in stats.failures] == ["timeout"]
        assert multiprocessing.active_children() == []

    def test_cli_exits_despite_a_hung_tu(self, corpus10, tmp_path):
        _, mains = corpus10
        stats_file = tmp_path / "stats.json"
        env = dict(os.environ, PDBBUILD_FAULT_SLEEP=f"{Path(mains[4]).name}:600")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "repro.tools.pdbbuild", *mains[:6], "-j", "2", "-k",
               "--timeout", "1", "--no-cache", "-o", str(tmp_path / "out.pdb"),
               "--stats-json", str(stats_file)]
        start = time.monotonic()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
        assert time.monotonic() - start < 30
        assert proc.returncode == 1
        failures = json.loads(stats_file.read_text())["failures"]
        assert [(f["source"], f["phase"]) for f in failures] == [(mains[4], "timeout")]

    def test_crasher_and_hung_tu_fail_alone(self, corpus10):
        _, mains = corpus10
        with faults.crashing_tu(Path(mains[2]).name), faults.slow_tu(Path(mains[5]).name, 600):
            merged, stats = build(mains, BuildOptions(), jobs=4, keep_going=True, timeout=1.5)
        assert [(f.source, f.phase) for f in stats.failures] == [
            (mains[2], "worker"), (mains[5], "timeout")
        ]
        good = [m for i, m in enumerate(mains) if i not in (2, 5)]
        ref, _ = build(good, BuildOptions(), jobs=4)
        assert merged.to_text() == ref.to_text()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched module reaches worker processes only by fork",
    )
    def test_worker_bug_is_reraised_with_its_traceback(self, corpus10, monkeypatch):
        _, mains = corpus10

        def planted_bug(*args):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr("repro.tools.pdbbuild._compile", planted_bug)
        with pytest.raises(ZeroDivisionError, match="planted") as ei:
            build(mains[:3], BuildOptions(), jobs=2, keep_going=True)
        assert "planted_bug" in str(ei.value.__cause__)
        assert multiprocessing.active_children() == []


# -- cache self-healing (satellite c) -----------------------------------


class TestCacheSelfHealing:
    def _seed(self, tmp_path, n=2):
        corpus = generate(SynthSpec(n_translation_units=n))
        root = tmp_path / "src"
        faults.write_corpus(root, corpus.files)
        mains = [str(root / m) for m in corpus.main_files]
        cache = tmp_path / "cache"
        ref, _ = build(mains, BuildOptions(), cache_dir=str(cache))
        return mains, cache, ref

    def test_flipped_byte_evicts_and_recompiles(self, tmp_path):
        mains, cache, ref = self._seed(tmp_path)
        faults.corrupt_cache_object(cache, n=1)
        merged, stats = build(mains, BuildOptions(), cache_dir=str(cache))
        assert stats.cache_evictions == 1
        assert stats.cache_misses == 1 and stats.cache_hits == 1
        assert merged.to_text() == ref.to_text()
        # healed: the rerun is all hits again
        _, s3 = build(mains, BuildOptions(), cache_dir=str(cache))
        assert s3.cache_hits == 2 and s3.cache_evictions == 0

    def test_truncated_object_evicts_and_recompiles(self, tmp_path):
        mains, cache, ref = self._seed(tmp_path)
        faults.truncate_cache_object(cache, n=1)
        merged, stats = build(mains, BuildOptions(), cache_dir=str(cache))
        assert stats.cache_evictions == 1
        assert merged.to_text() == ref.to_text()

    def test_corrupt_manifest_evicts_and_recompiles(self, tmp_path):
        mains, cache, ref = self._seed(tmp_path)
        faults.corrupt_cache_manifest(cache, n=1)
        merged, stats = build(mains, BuildOptions(), cache_dir=str(cache))
        assert stats.cache_evictions == 1
        assert merged.to_text() == ref.to_text()

    def test_missing_object_evicts_manifest_too(self, tmp_path):
        mains, cache, _ = self._seed(tmp_path, n=1)
        for p in (cache / "objects").glob("*.pdb"):
            p.unlink()
        bc = BuildCache(str(cache))
        entry = bc.lookup(
            BuildOptions().fingerprint(), mains[0], lambda n: Path(n).read_text()
        )
        assert entry is None
        assert bc.stats.evictions == 1 and bc.stats.misses == 1
        # the stale manifest was dropped with it
        assert not list((cache / "manifests").glob("*.json"))

    def test_missing_meta_only_evicts(self, tmp_path):
        mains, cache, _ = self._seed(tmp_path, n=1)
        for p in (cache / "objects").glob("*.json"):
            p.unlink()
        bc = BuildCache(str(cache))
        entry = bc.lookup(
            BuildOptions().fingerprint(), mains[0], lambda n: Path(n).read_text()
        )
        assert entry is None
        assert bc.stats.evictions == 1 and bc.stats.misses == 1

    def test_edits_are_plain_misses_not_evictions(self, tmp_path):
        # an edited TU's new dependency hashes name an object that was
        # never stored: a miss, with the manifest kept
        mains, cache, _ = self._seed(tmp_path)
        edited = Path(mains[0])
        for k in range(5):
            edited.write_text(edited.read_text() + f"int edit_{k}( ) {{ return {k}; }}\n")
            merged, stats = build(mains, BuildOptions(), cache_dir=str(cache))
            assert stats.cache_evictions == 0
            assert (stats.cache_hits, stats.cache_misses) == (1, 1)
            assert len(list((cache / "manifests").glob("*.json"))) == 2
            ref, _ = build(mains, BuildOptions())
            assert merged.to_text() == ref.to_text()

    def test_permission_denied_is_a_counted_miss(self, tmp_path, monkeypatch):
        # running as root makes chmod-based denial a no-op, so inject
        # the PermissionError at the read itself
        mains, cache, _ = self._seed(tmp_path, n=1)
        real = Path.read_text

        def denied(self, *a, **kw):
            if self.suffix == ".pdb" and "objects" in str(self):
                raise PermissionError(13, "Permission denied", str(self))
            return real(self, *a, **kw)

        monkeypatch.setattr(Path, "read_text", denied)
        bc = BuildCache(str(cache))
        entry = bc.lookup(
            BuildOptions().fingerprint(), mains[0], lambda n: Path(n).read_text()
        )
        assert entry is None
        assert bc.stats.evictions == 1 and bc.stats.misses == 1

    def test_absent_entry_is_a_plain_miss_not_an_eviction(self, tmp_path):
        bc = BuildCache(str(tmp_path / "cache"))
        entry = bc.lookup("fp", "never-built.cpp", lambda n: None)
        assert entry is None
        assert bc.stats.misses == 1 and bc.stats.evictions == 0

    def test_old_meta_without_sha_is_still_served(self, tmp_path):
        # pre-/2 entries lack the sha256 field; they must not be evicted
        mains, cache, ref = self._seed(tmp_path, n=1)
        for p in (cache / "objects").glob("*.json"):
            meta = json.loads(p.read_text())
            meta.pop("sha256")
            p.write_text(json.dumps(meta))
        _, stats = build(mains, BuildOptions(), cache_dir=str(cache))
        assert stats.cache_hits == 1 and stats.cache_evictions == 0


# -- fault hooks are inert by default -----------------------------------


class TestFaultHooksInert:
    def test_no_env_no_effect(self, corpus10):
        _, mains = corpus10
        assert "PDBBUILD_FAULT_SLEEP" not in os.environ
        assert "PDBBUILD_FAULT_EXIT" not in os.environ
        _, stats = build(mains[:2], BuildOptions(), jobs=2)
        assert stats.failures == [] and len(stats.tus) == 2
