"""E15 — the pdbbuild driver: parallel + incrementally-cached builds.

Regenerates the PDT multi-TU build workflow (compile each TU separately,
pdbmerge into one database, paper Table 2) three ways over the synth and
STL workloads and compares:

* **serial**   — one worker, cold cache (the cxxparse-per-TU baseline),
* **parallel** — ``-j N`` worker processes, cold cache,
* **warm**     — identical rerun against a populated cache.

Asserts the two acceptance properties: the parallel output is
byte-identical to the serial cxxparse-per-TU + pdbmerge pipeline, and a
warm-cache rerun recompiles zero TUs (checked through the ``--stats-json``
cache counters).  Run with ``-s`` to see the timing table.
"""

import json
import os
import time

import pytest

from repro.tools.pdbbuild import BuildOptions, build
from repro.workloads.stl import KAI_INCLUDE_DIR, stl_files
from repro.workloads.synth import SynthSpec, generate

#: floor of 2 so the worker-process path is exercised even on 1-CPU CI
JOBS = max(2, min(4, os.cpu_count() or 2))

SPEC = SynthSpec(
    n_plain_classes=6,
    methods_per_class=4,
    n_templates=4,
    instantiations_per_template=3,
    n_translation_units=6,
)


@pytest.fixture(scope="module")
def synth_corpus():
    return generate(SPEC)


@pytest.fixture(scope="module")
def stl_corpus():
    """K TUs sharing the mini-STL headers via -I (the paper's KAI set)."""
    files = dict(stl_files())
    mains = []
    for tu in range(4):
        entry = "main" if tu == 0 else f"tu{tu}_entry"
        files[f"stl_tu{tu}.cpp"] = (
            "#include <vector.h>\n"
            "#include <pair.h>\n"
            f"int {entry}( ) {{\n"
            f"    vector<int> v{tu};\n"
            f"    v{tu}.push_back( {tu} );\n"
            f"    pair<int, double> p{tu};\n"
            f"    return v{tu}.size( );\n"
            "}\n"
        )
        mains.append(f"stl_tu{tu}.cpp")
    return files, mains


def test_e15_parallel_byte_identical_to_serial_pipeline(synth_corpus, tmp_path):
    """Acceptance: pdbbuild -j N == serial cxxparse-per-TU + pdbmerge."""
    from repro.tools.cxxparse import main as cxxparse_main
    from repro.tools.pdbbuild import main as pdbbuild_main
    from repro.tools.pdbmerge import main as pdbmerge_main

    for name, text in synth_corpus.files.items():
        (tmp_path / name).write_text(text)
    sources = [str(tmp_path / f) for f in synth_corpus.main_files]
    per_tu = []
    for i, src in enumerate(sources):
        out = str(tmp_path / f"ref{i}.pdb")
        assert cxxparse_main([src, "-o", out]) == 0
        per_tu.append(out)
    ref = tmp_path / "ref.pdb"
    assert pdbmerge_main(per_tu + ["-o", str(ref)]) == 0

    out = tmp_path / "out.pdb"
    stats_file = tmp_path / "stats.json"
    argv = sources + [
        "-o", str(out),
        "-j", str(JOBS),
        "--cache-dir", str(tmp_path / "cache"),
        "--stats-json", str(stats_file),
    ]
    assert pdbbuild_main(list(argv)) == 0
    assert out.read_text() == ref.read_text()
    cold = json.loads(stats_file.read_text())
    assert cold["cache"]["misses"] == len(sources)

    # acceptance: warm rerun recompiles zero TUs, same bytes
    assert pdbbuild_main(list(argv)) == 0
    warm = json.loads(stats_file.read_text())
    assert warm["cache"]["hits"] == len(sources)
    assert warm["cache"]["misses"] == 0
    assert all(t["cache_hit"] for t in warm["tus"])
    assert out.read_text() == ref.read_text()


def test_e15_speed_table(synth_corpus, tmp_path):
    """The regenerated build-mode comparison (run with -s)."""
    cache = str(tmp_path / "cache")
    timings = {}
    t0 = time.perf_counter()
    serial, _ = build(synth_corpus.main_files, files=synth_corpus.files)
    timings["serial"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    par, _ = build(synth_corpus.main_files, files=synth_corpus.files, jobs=JOBS)
    timings["parallel"] = time.perf_counter() - t0
    build(synth_corpus.main_files, files=synth_corpus.files, cache_dir=cache)
    t0 = time.perf_counter()
    warm, warm_stats = build(
        synth_corpus.main_files, files=synth_corpus.files, cache_dir=cache
    )
    timings["warm-cache"] = time.perf_counter() - t0

    print(f"\n--- pdbbuild modes ({len(synth_corpus.main_files)} TUs, -j {JOBS}) ---")
    for mode, wall in timings.items():
        speedup = timings["serial"] / wall if wall else float("inf")
        print(f"{mode:>10}: {wall:8.3f}s  ({speedup:4.1f}x vs serial)")
    assert serial.to_text() == par.to_text() == warm.to_text()
    assert warm_stats.cache_hits == len(synth_corpus.main_files)
    # a warm build does no frontend work at all — it must beat serial
    assert timings["warm-cache"] < timings["serial"]


def test_e15_stl_workload_parallel_cache(stl_corpus, tmp_path):
    """Same properties on the KAI mini-STL multi-TU workload."""
    files, mains = stl_corpus
    opts = BuildOptions(include_paths=(KAI_INCLUDE_DIR,))
    cache = str(tmp_path / "cache")
    serial, _ = build(mains, opts, files=files)
    par, _ = build(mains, opts, files=files, jobs=JOBS, cache_dir=cache)
    warm, warm_stats = build(mains, opts, files=files, jobs=JOBS, cache_dir=cache)
    assert serial.to_text() == par.to_text() == warm.to_text()
    assert warm_stats.cache_hits == len(mains) and warm_stats.cache_misses == 0
    # shared vector<int>/pair instantiations merged to one copy
    names = [c.name() for c in warm.getClassVec()]
    assert names.count("vector<int>") == 1
    merged_routines = {r.name() for r in warm.getRoutineVec()}
    assert {"main", "tu1_entry", "tu2_entry", "tu3_entry"} <= merged_routines
    assert warm_stats.merge.duplicate_instantiations > 0


def test_e15_serial_build_benchmark(synth_corpus, benchmark):
    merged, _ = benchmark(lambda: build(synth_corpus.main_files, files=synth_corpus.files))
    assert merged.findRoutine("main") is not None


def test_e15_warm_cache_benchmark(synth_corpus, tmp_path, benchmark):
    cache = str(tmp_path / "cache")
    build(synth_corpus.main_files, files=synth_corpus.files, cache_dir=cache)

    def warm():
        return build(synth_corpus.main_files, files=synth_corpus.files, cache_dir=cache)

    merged, stats = benchmark(warm)
    assert stats.cache_misses == 0
