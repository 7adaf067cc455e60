"""E19 — hot-path performance: header cache, fast reader, lazy DUCTAPE
load, single-pass merge.

Regenerates the before/after table for the four hot-path optimisations,
asserting each gate *and* byte-equality of the outputs (the entire
point is zero observable change):

* **header cache** — 16 TUs sharing one config-style header (a wall of
  ``#define``/``#if`` lines, preprocessing-dominated, the shape of real
  config headers): ``compile_many`` with the cache vs without must be
  >= 2x and byte-identical;
* **reader** — the partition/slice scanner vs the regex reader oracle
  (``tests/reader_oracle.py``) over the same PDB text: >= 2x, identical
  document;
* **lazy load** — opening a large database and touching one routine vs
  eagerly building every wrapper (``pdb.items()``): >= 5x;
* **single-pass merge** — the k-way ``merge_pdbs`` vs the left-fold
  oracle (``tests/merge_oracle.py``): byte-identical at N in {2, 4, 16},
  ratio >= 0.85 at N=4, faster at N=16.

Timings are interleaved best-of-N so background noise hits both sides
equally.  Results land in ``BENCH_E19.json`` (CI uploads it as an
artifact); run with ``-s`` to see the table.
"""

import gc
import json
import time
from pathlib import Path

import pytest

from repro.analyzer import analyze
from repro.cpp.frontend import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.pdbfmt.reader import parse_pdb
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.synth import SynthSpec, generate

from tests.merge_oracle import fold
from tests.reader_oracle import parse_pdb_regex

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_E19.json"

_results: dict = {}


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best


def _interleaved(fa, fb, repeats=5):
    """Best-of-N for two competitors, alternating so noise is shared.
    Collection is forced up front and the collector paused during the
    timed region — earlier tests in the same process otherwise leave
    enough garbage that cycles land inside one side's window."""
    best_a = best_b = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fa()
            da = time.perf_counter() - t0
            t0 = time.perf_counter()
            fb()
            db = time.perf_counter() - t0
            best_a = min(best_a, da)
            best_b = min(best_b, db)
    finally:
        gc.enable()
    return best_a, best_b


def _record(name: str, row: dict) -> None:
    _results[name] = row
    RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")


# -- corpora -----------------------------------------------------------------


def _config_corpus(n_tus=16, n_macros=400, n_blocks=60):
    """Config-style shared header: dominated by #define walls and #if
    blocks (which produce no parse tokens), plus a few declarations."""
    lines = ["#ifndef CONFIG_H", "#define CONFIG_H"]
    for i in range(n_macros):
        lines.append(f"#define CFG_OPT_{i} {i}")
        lines.append(f"#define CFG_FLAG_{i}(x) ((x) + {i})")
    for b in range(n_blocks):
        lines.append(f"#if CFG_OPT_{b % n_macros} > {b}")
        lines.append(f"#define CFG_SEL_{b} 1")
        lines.append("#else")
        lines.append(f"#define CFG_SEL_{b} 0")
        lines.append("#endif")
    lines.append("class Config { public: int mode(); };")
    lines.append("int config_level(int v);")
    lines.append("#endif")
    files = {"config.h": "\n".join(lines) + "\n"}
    mains = []
    for t in range(n_tus):
        files[f"tu{t}.cpp"] = (
            '#include "config.h"\n'
            f"int use_{t}(int v) "
            f"{{ return config_level(v) + CFG_FLAG_{t}(v) + CFG_SEL_{t % n_blocks}; }}\n"
        )
        mains.append(f"tu{t}.cpp")
    return files, mains


def _tu_pdb(tu: int, shared=60, unique=120) -> PDB:
    """Realistic merge input: items shared across every TU (headers)
    plus per-TU unique definitions (the TU's own code).  Deliberately
    lean on attributes — merge cost is dominated by key computation and
    duplicate scans, which is what the single pass attacks."""
    doc = PdbDocument()
    so = RawItem("so", 1, f"tu{tu}.cpp")
    so.add("skind", "source")
    doc.add(so)
    cl_id = ro_id = 0
    for s in range(shared):
        cl = RawItem("cl", cl_id, f"Shared{s}")
        cl_id += 1
        cl.add("ckind", "class")
        if s % 2:
            cl.add("ctempl", "NULL")
        doc.add(cl)
        ro = RawItem("ro", ro_id, f"shared_fn{s}")
        ro_id += 1
        ro.add("rsig", "NULL")
        if s % 3 == 0:
            ro.add("rtempl", "NULL")
        doc.add(ro)
    for u in range(unique):
        ro = RawItem("ro", ro_id, f"tu{tu}_fn{u}")
        ro_id += 1
        ro.add("rsig", "NULL")
        doc.add(ro)
    return PDB(doc)


@pytest.fixture(scope="module")
def e12_text() -> str:
    """A real merged database (the E12 pipeline's shape): synth corpus
    through frontend + analyzer + merge, written to text.  Genuine
    attribute density is what the reader/lazy measurements need —
    hand-rolled sparse items understate both."""
    spec = SynthSpec(
        n_plain_classes=10,
        methods_per_class=6,
        n_templates=6,
        instantiations_per_template=4,
        call_depth=4,
        n_translation_units=12,
    )
    corpus = generate(spec)
    fe = Frontend(FrontendOptions())
    fe.register_files(corpus.files)
    pdbs = [PDB(analyze(t)) for t in fe.compile_many(corpus.main_files)]
    merged, _ = merge_pdbs(pdbs)
    return write_pdb(merged.doc)


# -- the four gates ----------------------------------------------------------


def test_e19_header_cache_speedup():
    files, mains = _config_corpus()

    def compile_all(cache_on):
        fe = Frontend(FrontendOptions(header_cache=cache_on))
        fe.register_files(files)
        return fe, fe.compile_many(mains)

    # byte-equality first (PDB text and diagnostics)
    fe_on, trees_on = compile_all(True)
    fe_off, trees_off = compile_all(False)
    texts_on = [write_pdb(analyze(t)) for t in trees_on]
    texts_off = [write_pdb(analyze(t)) for t in trees_off]
    assert texts_on == texts_off
    diags_on = [[str(d) for d in s.diagnostics] for s in fe_on.last_sinks]
    diags_off = [[str(d) for d in s.diagnostics] for s in fe_off.last_sinks]
    assert diags_on == diags_off
    assert fe_on.header_cache.hits == len(mains) - 1

    t_on, t_off = _interleaved(
        lambda: compile_all(True), lambda: compile_all(False), repeats=3
    )
    speedup = t_off / t_on
    _record(
        "header_cache",
        {
            "corpus": f"{len(mains)} TUs sharing one config header",
            "cache_off_s": round(t_off, 4),
            "cache_on_s": round(t_on, 4),
            "speedup": round(speedup, 2),
            "gate": ">= 2x",
        },
    )
    print(
        f"\nE19 header cache: off={t_off * 1000:.1f}ms on={t_on * 1000:.1f}ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 2.0


def test_e19_reader_speedup(e12_text):
    text = e12_text
    fast_doc = parse_pdb(text)
    oracle_doc = parse_pdb_regex(text)
    assert write_pdb(fast_doc) == write_pdb(oracle_doc)  # identical documents

    t_fast, t_regex = _interleaved(
        lambda: parse_pdb(text), lambda: parse_pdb_regex(text), repeats=7
    )
    speedup = t_regex / t_fast
    _record(
        "reader",
        {
            "corpus": f"{len(fast_doc.items)} items, {len(text)} bytes",
            "regex_s": round(t_regex, 6),
            "fast_s": round(t_fast, 6),
            "speedup": round(speedup, 2),
            "gate": ">= 2x",
        },
    )
    print(
        f"\nE19 reader: regex={t_regex * 1000:.1f}ms fast={t_fast * 1000:.1f}ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 2.0


def test_e19_lazy_load_speedup(e12_text):
    """The DUCTAPE layer alone: given a parsed document, wrapping is
    O(touched items), so opening a database to inspect one routine must
    no longer pay for every wrapper (``pdb.items()`` builds them all,
    the old eager behaviour, for comparison)."""
    doc = parse_pdb(e12_text)
    ref = None
    for it in doc.items:
        if it.prefix == "ro":
            ref = it.ref  # last routine: a miss-everything scan is over
    assert ref is not None

    def touch_one_lazy():
        pdb = PDB(doc)
        assert pdb.item(ref) is not None

    def touch_one_eager():
        pdb = PDB(doc)
        pdb.items()
        assert pdb.item(ref) is not None

    t_lazy, t_eager = _interleaved(touch_one_lazy, touch_one_eager, repeats=7)
    speedup = t_eager / t_lazy
    _record(
        "lazy_load",
        {
            "corpus": f"{len(doc.items)} items, single-routine touch",
            "eager_s": round(t_eager, 6),
            "lazy_s": round(t_lazy, 6),
            "speedup": round(speedup, 2),
            "gate": ">= 5x",
        },
    )
    print(
        f"\nE19 lazy load: eager={t_eager * 1000:.1f}ms lazy={t_lazy * 1000:.1f}ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 5.0


def test_e19_single_pass_merge():
    # byte identity and per-input stats at N in {2, 4, 16}
    for n in (2, 4, 16):
        serial, serial_stats = fold([_tu_pdb(i) for i in range(n)])
        merged, stats = merge_pdbs([_tu_pdb(i) for i in range(n)])
        assert merged.to_text() == serial.to_text(), f"single pass != fold at N={n}"
        assert stats == serial_stats, f"MergeStats differ at N={n}"

    rows = {}
    for n in (4, 16):
        inputs = [_tu_pdb(i) for i in range(n)]

        def run_fold():
            fold(inputs)

        def run_single():
            merge_pdbs(inputs)

        # neither side mutates its inputs, so both reuse one prebuilt set
        t_fold, t_single = _interleaved(run_fold, run_single, repeats=5)
        rows[n] = {
            "fold_s": round(t_fold, 4),
            "single_pass_s": round(t_single, 4),
            "ratio": round(t_fold / t_single, 2),
        }
        print(
            f"\nE19 single-pass merge N={n}: fold={t_fold * 1000:.1f}ms "
            f"single pass={t_single * 1000:.1f}ms -> {t_fold / t_single:.2f}x"
        )
    _record(
        "single_pass_merge",
        {
            "corpus": "per-TU docs, 60 shared + 120 unique items",
            "n4": rows[4],
            "n16": rows[16],
            "gate": ">= 0.85 at N=4, faster at N=16, byte-identical",
        },
    )
    # the 0.85 floor at N=4 absorbs timer jitter on loaded CI machines
    assert rows[4]["ratio"] >= 0.85
    # N=16: one pass must beat the fold's re-keying of the accumulator
    assert rows[16]["ratio"] > 1.0
