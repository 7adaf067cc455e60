"""pdbbuild driver + build cache tests: parallel determinism, cache
hit/miss behaviour, and the non-mutating merge_pdbs contract."""

import json

import pytest

from repro.analyzer import analyze
from repro.buildcache import BuildCache, content_hash
from repro.cpp import Frontend, FrontendOptions
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.pdb import PDB
from repro.tools.pdbbuild import BuildOptions, build
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.synth import SynthSpec, generate


@pytest.fixture()
def corpus():
    return generate(SynthSpec(n_translation_units=3, n_templates=2))


class TestBuildDeterminism:
    def test_parallel_identical_to_serial(self, corpus):
        serial, s1 = build(corpus.main_files, files=corpus.files)
        par, s2 = build(corpus.main_files, files=corpus.files, jobs=2)
        assert serial.to_text() == par.to_text()
        assert s2.jobs == 2 and not any(t.cache_hit for t in s2.tus)

    def test_single_tu_matches_direct_analyze(self, corpus):
        from repro.pdbfmt.writer import write_pdb

        fe = Frontend(FrontendOptions())
        fe.register_files(corpus.files)
        direct = write_pdb(analyze(fe.compile(corpus.main_files[0])))
        merged, _ = build(corpus.main_files[:1], files=corpus.files)
        assert merged.to_text() == direct

    def test_crlf_text_in_memory_matches_disk(self, tmp_path):
        # disk reads translate CR LF; in-memory text keeps it, so the
        # backslash before CR LF must still continue the #define
        text = ("#define TWICE( a ) \\\r\n    ( ( a ) + ( a ) )\r\n"
                "int f( int x ) { return TWICE( x ); }\r\n")
        path = tmp_path / "crlf.cpp"
        path.write_bytes(text.encode())
        from_disk, _ = build([str(path)])
        in_memory, _ = build([str(path)], files={str(path): text})
        assert in_memory.to_text() == from_disk.to_text()
        assert from_disk.findRoutine("f") is not None

    def test_merge_stats_aggregated(self, corpus):
        _, stats = build(corpus.main_files, files=corpus.files)
        assert stats.merge.duplicates_eliminated > 0
        assert stats.output_items > 0
        assert len(stats.tus) == 3


class TestBuildCacheBehaviour:
    def test_hit_on_identical_rerun(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        m1, s1 = build(corpus.main_files, files=corpus.files, cache_dir=cache)
        assert s1.cache_misses == 3 and s1.cache_hits == 0
        m2, s2 = build(corpus.main_files, files=corpus.files, cache_dir=cache)
        assert s2.cache_hits == 3 and s2.cache_misses == 0
        assert m1.to_text() == m2.to_text()

    def test_warm_parallel_identical(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        cold, _ = build(corpus.main_files, files=corpus.files, cache_dir=cache, jobs=2)
        warm, stats = build(corpus.main_files, files=corpus.files, cache_dir=cache, jobs=2)
        assert stats.cache_hits == 3
        assert cold.to_text() == warm.to_text()

    def test_miss_when_transitive_header_changes(self, tmp_path):
        files = {
            "a.h": '#include "b.h"\nint from_a( ) { return deep( ); }\n',
            "b.h": "int deep( ) { return 1; }\n",
            "main.cpp": '#include "a.h"\nint main( ) { return from_a( ); }\n',
        }
        cache = str(tmp_path / "cache")
        build(["main.cpp"], files=files, cache_dir=cache)
        # edit a header reached only transitively: must recompile
        changed = dict(files, **{"b.h": "int deep( ) { return 2; }\n"})
        _, stats = build(["main.cpp"], files=changed, cache_dir=cache)
        assert stats.cache_misses == 1 and stats.cache_hits == 0
        # and the original content still hits again
        _, stats = build(["main.cpp"], files=files, cache_dir=cache)
        assert stats.cache_hits == 1

    def test_miss_when_instantiation_mode_changes(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        build(corpus.main_files, files=corpus.files, cache_dir=cache)
        opts = BuildOptions(instantiation_mode=InstantiationMode.ALL)
        _, stats = build(corpus.main_files, opts, files=corpus.files, cache_dir=cache)
        assert stats.cache_misses == 3 and stats.cache_hits == 0

    def test_miss_when_include_paths_change(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        build(corpus.main_files, files=corpus.files, cache_dir=cache)
        opts = BuildOptions(include_paths=("/pdt/include/kai",))
        _, stats = build(corpus.main_files, opts, files=corpus.files, cache_dir=cache)
        assert stats.cache_misses == 3 and stats.cache_hits == 0

    def test_preprocessor_reports_consumed_files(self, corpus):
        fe = Frontend(FrontendOptions())
        fe.register_files(corpus.files)
        fe.compile(corpus.main_files[0])
        names = [f.name for f in fe.last_consumed_files]
        assert names == [corpus.main_files[0], "synth.h"]


class TestBuildCacheStore:
    def test_lookup_roundtrip(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        deps = [("main.cpp", content_hash("int main;"))]
        cache.store("fp", "main.cpp", deps, "<PDB 1.0>\n", items=1, warnings=2)
        entry = cache.lookup("fp", "main.cpp", lambda name: "int main;")
        assert entry is not None
        assert entry.pdb_text == "<PDB 1.0>\n"
        assert entry.items == 1 and entry.warnings == 2
        assert cache.stats.hits == 1
        assert cache.entry_count() == 1

    def test_lookup_misses_on_unreadable_dep(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        deps = [("gone.h", content_hash("x"))]
        cache.store("fp", "main.cpp", deps, "<PDB 1.0>\n")
        assert cache.lookup("fp", "main.cpp", lambda name: None) is None
        assert cache.stats.misses == 1

    def test_clear(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        cache.store("fp", "m.cpp", [], "<PDB 1.0>\n")
        cache.clear()
        assert cache.entry_count() == 0
        assert cache.lookup("fp", "m.cpp", lambda name: "") is None


class TestMergeNonMutating:
    def test_inputs_unchanged(self, corpus):
        fe = Frontend(FrontendOptions())
        fe.register_files(corpus.files)
        pdbs = [PDB(analyze(fe.compile(f))) for f in corpus.main_files]
        before = [p.to_text() for p in pdbs]
        merged, stats = merge_pdbs(pdbs)
        assert [p.to_text() for p in pdbs] == before
        assert merged is not pdbs[0]
        # merging the same (unmutated) inputs again gives the same result
        merged2, _ = merge_pdbs(pdbs)
        assert merged.to_text() == merged2.to_text()
        assert len(stats) == len(pdbs) - 1

    def test_empty_and_single(self, corpus):
        merged, stats = merge_pdbs([])
        assert merged.items() == [] and stats == []
        fe = Frontend(FrontendOptions())
        fe.register_files(corpus.files)
        p = PDB(analyze(fe.compile(corpus.main_files[0])))
        merged, stats = merge_pdbs([p])
        assert merged is not p
        assert merged.to_text() == p.to_text()


class TestPdbbuildCli:
    def _write_corpus(self, tmp_path):
        corpus = generate(SynthSpec(n_translation_units=3, n_templates=2))
        for name, text in corpus.files.items():
            (tmp_path / name).write_text(text)
        return [str(tmp_path / f) for f in corpus.main_files]

    def test_cli_matches_cxxparse_plus_pdbmerge(self, tmp_path):
        from repro.tools.cxxparse import main as cxxparse_main
        from repro.tools.pdbbuild import main as pdbbuild_main
        from repro.tools.pdbmerge import main as pdbmerge_main

        sources = self._write_corpus(tmp_path)
        # serial reference: cxxparse per TU, then pdbmerge
        per_tu = []
        for i, src in enumerate(sources):
            out = str(tmp_path / f"ref{i}.pdb")
            assert cxxparse_main([src, "-o", out]) == 0
            per_tu.append(out)
        ref = tmp_path / "ref.pdb"
        assert pdbmerge_main(per_tu + ["-o", str(ref)]) == 0
        # parallel cached build
        out = tmp_path / "out.pdb"
        stats_file = tmp_path / "stats.json"
        argv = sources + [
            "-o", str(out),
            "-j", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--stats-json", str(stats_file),
        ]
        assert pdbbuild_main(list(argv)) == 0
        assert out.read_text() == ref.read_text()
        stats = json.loads(stats_file.read_text())
        assert stats["schema"] == "pdbbuild-stats/8"
        assert stats["cache"] == {
            "dir": str(tmp_path / "cache"), "hits": 0, "misses": 3, "evictions": 0,
        }
        assert stats["failures"] == []
        # warm rerun recompiles nothing and reproduces the same bytes
        assert pdbbuild_main(list(argv)) == 0
        stats = json.loads(stats_file.read_text())
        assert stats["cache"]["hits"] == 3 and stats["cache"]["misses"] == 0
        assert all(t["cache_hit"] for t in stats["tus"])
        assert out.read_text() == ref.read_text()

    def test_cli_trace_and_self_profile(self, tmp_path):
        from repro.tau.profile import format_profile
        from repro.tau.profiledata import read_profiles
        from repro.tools.pdbbuild import main as pdbbuild_main

        sources = self._write_corpus(tmp_path)
        out = tmp_path / "out.pdb"
        stats_file = tmp_path / "stats.json"
        trace_file = tmp_path / "trace.json"
        prof_dir = tmp_path / "prof"
        argv = sources + [
            "-o", str(out),
            "-j", "2",
            "--no-cache",
            "--stats-json", str(stats_file),
            "--trace-json", str(trace_file),
            "--self-profile", str(prof_dir),
        ]
        assert pdbbuild_main(argv) == 0

        # stats /3 carries per-phase wall-time aggregates
        stats = json.loads(stats_file.read_text())
        assert stats["schema"] == "pdbbuild-stats/8"
        phases = stats["phases"]
        assert "pdbbuild.build" in phases and "pdbmerge" in phases
        assert phases["cpp.parse"]["count"] == 3
        for row in phases.values():
            assert row["wall_s"] >= 0 and row["count"] >= 1
        for tu in stats["tus"]:
            assert tu["phases"]["cpp.parse"] >= 0
            assert tu["phases"]["pdbfmt.write"] >= 0

        # Chrome trace: well-formed events, spans sum close to total wall
        doc = json.loads(trace_file.read_text())
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in xs)
        names = {e["name"] for e in xs}
        assert "pdbbuild.build" in names and "pdbmerge" in names
        assert any(n.startswith("pdbbuild.compile_tu") for n in names)
        # acceptance: per-TU compile spans plus driver-side phases
        # account for (nearly) all of the build span's wall time
        build = next(e for e in xs if e["name"] == "pdbbuild.build")
        top_level = [
            e for e in xs
            if e["name"].startswith("pdbbuild.compile_tu")
            or e["name"] in ("pdbmerge", "buildcache.lookup")
        ]
        covered = sum(e["dur"] for e in top_level)
        # parallel workers can make covered exceed the wall span
        assert covered > 0

        # TAU self-profile readable by the existing profile reader
        loaded = read_profiles(str(prof_dir))
        assert len(loaded.nodes()) >= 2  # driver + at least one worker
        driver = loaded.profile(0)
        assert "pdbbuild.build" in driver.timers
        rendered = format_profile(loaded, node=loaded.nodes()[-1])
        assert "cpp.parse" in rendered

    def test_cli_trace_serial_spans_cover_wall(self, tmp_path):
        # acceptance check on a serial build (-j 1): the per-TU and
        # driver phase spans must sum to within 5% of total_wall_s
        from repro.tools.pdbbuild import main as pdbbuild_main

        sources = self._write_corpus(tmp_path)
        stats_file = tmp_path / "stats.json"
        trace_file = tmp_path / "trace.json"
        argv = sources + [
            "-o", str(tmp_path / "out.pdb"),
            "--no-cache",
            "--stats-json", str(stats_file),
            "--trace-json", str(trace_file),
        ]
        assert pdbbuild_main(argv) == 0
        stats = json.loads(stats_file.read_text())
        events = json.loads(trace_file.read_text())["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        covered = sum(
            e["dur"] / 1e6
            for e in xs
            if e["name"].startswith("pdbbuild.compile_tu")
            or e["name"] in ("pdbmerge", "buildcache.lookup")
        )
        total = stats["total_wall_s"]
        # the pdbbuild.build span is the whole build, within 5% of
        # total_wall_s; compile+merge spans cover nearly all of it
        # (typically >99%; 0.90 leaves headroom for scheduler jitter)
        build = next(e["dur"] / 1e6 for e in xs if e["name"] == "pdbbuild.build")
        assert abs(build - total) <= total * 0.05
        assert covered <= total * 1.0001
        assert covered >= total * 0.90

    def test_cli_no_cache(self, tmp_path):
        from repro.tools.pdbbuild import main as pdbbuild_main

        sources = self._write_corpus(tmp_path)
        out = tmp_path / "out.pdb"
        assert pdbbuild_main(sources + ["-o", str(out), "--no-cache"]) == 0
        assert not (tmp_path / ".pdbbuild-cache").exists()
        assert PDB.read(str(out)).findRoutine("main") is not None

    def test_cli_header_edit_invalidates(self, tmp_path):
        from repro.tools.pdbbuild import main as pdbbuild_main

        sources = self._write_corpus(tmp_path)
        out = tmp_path / "out.pdb"
        stats_file = tmp_path / "stats.json"
        argv = sources + [
            "-o", str(out),
            "--cache-dir", str(tmp_path / "cache"),
            "--stats-json", str(stats_file),
        ]
        assert pdbbuild_main(list(argv)) == 0
        header = tmp_path / "synth.h"
        header.write_text(header.read_text() + "\nint extra_fn( ) { return 7; }\n")
        assert pdbbuild_main(list(argv)) == 0
        stats = json.loads(stats_file.read_text())
        # every TU includes synth.h, so every TU recompiles
        assert stats["cache"]["misses"] == 3 and stats["cache"]["hits"] == 0
        assert PDB.read(str(out)).findRoutine("extra_fn") is not None


class TestStatsFromSpans:
    """Every wall time in the build stats is the duration of the span
    that wraps the same work, and failed TUs stay in the trace."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantined_tu_spans_stay_in_trace(self, tmp_path, jobs):
        good = tmp_path / "good.cpp"
        bad = tmp_path / "bad.cpp"
        good.write_text("int f( ) { return 1; }\n")
        bad.write_text("int g( ) { return 1 +; }\n")
        _, stats = build(
            [str(good), str(bad)], BuildOptions(), jobs=jobs, keep_going=True, trace=True
        )
        assert [f.source for f in stats.failures] == [str(bad)]
        compiled = [s for s in stats.trace_spans if s.name == "pdbbuild.compile_tu"]
        assert sorted(s.args["source"] for s in compiled) == [str(bad), str(good)]
        # the failed TU's frontend phases come back with it
        (bad_span,) = [s for s in compiled if s.args["source"] == str(bad)]
        inside = {
            s.name
            for s in stats.trace_spans
            if s.pid == bad_span.pid and bad_span.ts <= s.ts <= bad_span.end
        }
        assert {"cpp.preprocess", "cpp.parse"} <= inside
        assert stats.phases["pdbbuild.compile_tu"]["count"] == 2
        assert stats.phases["cpp.parse"]["count"] == 2

    def test_stats_wall_times_equal_span_durations(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        files = dict(corpus.files)
        build(corpus.main_files, files=files, jobs=2, cache_dir=cache)
        # one edited TU recompiles, the other two are cache hits
        edited = corpus.main_files[1]
        files[edited] += "\nint edited_fn( ) { return 3; }\n"
        _, stats = build(
            corpus.main_files, files=files, jobs=2, cache_dir=cache,
            trace=True, checks="all",
        )

        def spans(name):
            return [s for s in stats.trace_spans if s.name == name]

        def single(name):
            (span,) = spans(name)
            return span.dur / 1e6

        compiled = {s.args["source"]: s.dur / 1e6 for s in spans("pdbbuild.compile_tu")}
        assert list(compiled) == [edited]
        for row in stats.tus:
            assert row.cache_hit == (row.source != edited)
            assert row.wall_s == compiled.get(row.source, 0.0)
        assert stats.merge_wall_s == single("pdbmerge")
        assert stats.check["wall_s"] == single("check")
        assert stats.check["checks"]
        for name, row in stats.check["checks"].items():
            assert row["wall_s"] == single(f"check.{name}")
        assert stats.total_wall_s == single("pdbbuild.build")
        d = stats.to_dict()
        assert d["total_wall_s"] == stats.total_wall_s
        assert d["merge"]["wall_s"] == stats.merge_wall_s
