"""E18 — pdbcheck throughput and precision.

Not a paper table: the static-analysis pass suite is this repro's
extension of the paper's derived-structure walks (Section 3.3), so the
claim to defend is *it costs about what the walks cost*.  Gates:

* whole-suite checker runtime stays under 2x the pdbtree walk
  (inclusion + class + call trees) on the E12 synthetic corpora;
* zero findings on the clean corpora (no false positives);
* precision = recall = 1.0 on the seeded-defect corpus
  (:mod:`repro.workloads.defects` ground truth);
* per-check wall time is visible in the pdbbuild stats document.
"""

import time

from repro.analyzer import analyze
from repro.check import run_checks
from repro.cpp import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.tools.pdbmerge import merge_pdbs
from repro.tools.pdbtree import (
    render_call_tree,
    render_class_tree,
    render_inclusion_tree,
)
from repro.workloads.defects import EXPECTED, compile_defects
from repro.workloads.synth import SynthSpec, generate

SIZES = [4, 16, 48]


def merged_synth_pdb(n: int, tus: int = 3) -> PDB:
    """An E12-shaped multi-TU corpus, compiled per TU and merged."""
    spec = SynthSpec(
        n_plain_classes=n,
        methods_per_class=4,
        n_templates=max(1, n // 4),
        instantiations_per_template=2,
        n_translation_units=tus,
    )
    corpus = generate(spec)
    pdbs = []
    for main in corpus.main_files:
        fe = Frontend(FrontendOptions())
        fe.register_files(corpus.files)
        pdbs.append(PDB(analyze(fe.compile(main))))
    merged, _stats = merge_pdbs(pdbs)
    return merged


#: timed rounds; a round times one first run per side and corpus size,
#: so each size's samples spread over the whole test, and the minimum
#: of this many rides out a busy spell of a few seconds
REPEATS = 60


def _first_run(fn, text: str) -> float:
    """Seconds ``fn`` takes on a fresh PDB parsed (untimed) from
    ``text``: it pays for the key indexes, the wrappers and the program
    graph it touches, as one ``pdbcheck`` or ``pdbtree`` run does."""
    pdb = PDB.from_text(text)
    t0 = time.perf_counter()
    fn(pdb)
    return time.perf_counter() - t0


def walk_all_trees(pdb: PDB) -> int:
    return (
        len(render_inclusion_tree(pdb))
        + len(render_class_tree(pdb))
        + len(render_call_tree(pdb))
    )


def test_e18_checker_vs_tree_walk_budget():
    """The whole check suite must cost < 2x the pdbtree walks.

    Gated per size for the non-trivial corpora and on the aggregate over
    the whole series; the smallest corpus is reported but not gated
    alone — below a millisecond the suite's fixed pass overhead (five
    passes, two SCC condensations) dominates both sides of the ratio.
    """
    print(f"\n--- E18: pdbcheck runtime vs pdbtree walk (first runs, min of {REPEATS}) ---")
    print(f"{'classes':>8} {'walk ms':>9} {'check ms':>9} {'ratio':>6}")
    texts = {n: merged_synth_pdb(n).to_text() for n in SIZES}
    walk = dict.fromkeys(SIZES, float("inf"))
    check = dict.fromkeys(SIZES, float("inf"))
    for _ in range(REPEATS):  # interleaved, so drift hits both sides
        for n, text in texts.items():
            walk[n] = min(walk[n], _first_run(walk_all_trees, text))
            check[n] = min(check[n], _first_run(run_checks, text))
    total_walk = total_check = 0.0
    for n in SIZES:
        walk_s, check_s = walk[n], check[n]
        total_walk += walk_s
        total_check += check_s
        ratio = check_s / walk_s if walk_s else float("inf")
        print(f"{n:>8} {walk_s * 1e3:>9.2f} {check_s * 1e3:>9.2f} {ratio:>6.2f}")
        if n >= 16:
            assert check_s < 2 * walk_s, (
                f"n={n}: check suite {check_s * 1e3:.2f} ms exceeds "
                f"2x tree walk {walk_s * 1e3:.2f} ms"
            )
    assert total_check < 2 * total_walk, (
        f"aggregate: check suite {total_check * 1e3:.2f} ms exceeds "
        f"2x tree walk {total_walk * 1e3:.2f} ms over the E12 series"
    )


def test_e18_clean_corpora_have_zero_findings():
    """No false positives on the clean synthetic corpora."""
    for n in SIZES:
        report = run_checks(merged_synth_pdb(n))
        assert report.findings == [], [f.render() for f in report.findings]


def test_e18_precision_recall_on_seeded_defects():
    """Every planted defect found, nothing else: P = R = 1.0."""
    pdb, _stats = compile_defects()
    report = run_checks(pdb)
    got: dict[str, set[str]] = {}
    for f in report.findings:
        got.setdefault(f.rule.id, set()).add(f.item)
    true_pos = sum(len(got.get(r, set()) & items) for r, items in EXPECTED.items())
    n_got = sum(len(v) for v in got.values())
    n_exp = sum(len(v) for v in EXPECTED.values())
    precision = true_pos / n_got
    recall = true_pos / n_exp
    print(f"\n--- E18: precision {precision:.2f}  recall {recall:.2f} ---")
    assert precision == 1.0 and recall == 1.0, (got, EXPECTED)


def test_e18_per_check_wall_time_in_stats():
    """pdbbuild --check surfaces per-check wall time (stats + spans)."""
    from repro.tools.pdbbuild import BuildOptions, build
    from repro.workloads.defects import DEFECT_SOURCES, defect_files

    _merged, stats = build(
        list(DEFECT_SOURCES), BuildOptions(), files=defect_files(),
        checks="all", trace=True,
    )
    d = stats.to_dict()
    timings = {name: c["wall_s"] for name, c in d["check"]["checks"].items()}
    assert timings and all(v >= 0 for v in timings.values())
    check_spans = [s for s in stats.trace_spans if s.cat == "check"]
    assert {s.name for s in check_spans} == {f"check.{n}" for n in timings}


def test_e18_check_benchmark(benchmark):
    pdb = merged_synth_pdb(16)
    report = benchmark(run_checks, pdb)
    assert report.findings == []
