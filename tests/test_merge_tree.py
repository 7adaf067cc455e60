"""Merge entry points against the left-fold oracle: ``merge_pdbs`` and
``merge_pdb_texts_tree`` (the single-pass merge ``pdbbuild`` runs) must
reproduce the fold byte for byte (items, ids, ferr records), with the
fold's per-input MergeStats; conflicting definitions survive the merge
for the ``odr`` check to report."""

import pytest

from repro.check import run_checks
from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.tools.pdbmerge import merge_pdb_texts_tree, merge_pdbs

from tests.merge_oracle import fold
from tests.test_check import odr_groups

def _tu_pdb(tu: int, shared: int = 5, unique: int = 8) -> PDB:
    """One synthetic per-TU document: shared items that dedup across
    TUs, unique items that survive, and a template instantiation mix."""
    doc = PdbDocument()
    so = RawItem("so", 1, f"tu{tu}.cpp")
    so.add("skind", "source")
    doc.add(so)
    next_id = {"cl": 0, "ro": 0}
    for s in range(shared):
        cl = RawItem("cl", next_id["cl"], f"Shared{s}")
        next_id["cl"] += 1
        cl.add("ckind", "class")
        if s % 2:
            cl.add("ctempl", "NULL")
        doc.add(cl)
        ro = RawItem("ro", next_id["ro"], f"shared_fn{s}")
        next_id["ro"] += 1
        ro.add("rsig", "NULL")
        if s % 2:
            ro.add("rtempl", "NULL")
        doc.add(ro)
    for u in range(unique):
        ro = RawItem("ro", next_id["ro"], f"tu{tu}_fn{u}")
        next_id["ro"] += 1
        ro.add("rsig", "NULL")
        doc.add(ro)
    return PDB(doc)


def _corpus(n: int) -> list[PDB]:
    return [_tu_pdb(i) for i in range(n)]


def _total(per_input) -> MergeStats:
    total = MergeStats()
    for st in per_input:
        total += st
    return total


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("shared", [2, 8])
def test_tree_merge_byte_identical_to_fold(n, shared):
    def corpus():
        return [_tu_pdb(i, shared=shared) for i in range(n)]

    serial, per_input = fold(corpus())
    merged, stats = merge_pdbs(corpus())
    assert merged.to_text() == serial.to_text()
    assert stats == per_input
    texts = [p.to_text() for p in corpus()]
    merged, total, passes = merge_pdb_texts_tree(texts)
    assert merged.to_text() == serial.to_text()
    assert total == _total(per_input)
    assert passes == 1


def test_tree_merge_empty_and_single():
    merged, stats, passes = merge_pdb_texts_tree([])
    assert merged.to_text() == PDB(PdbDocument()).to_text()
    assert (stats, passes) == (MergeStats(), 0)
    one = _tu_pdb(0)
    merged, stats, passes = merge_pdb_texts_tree([one.to_text()])
    assert merged.to_text() == one.to_text()
    assert (stats, passes) == (MergeStats(), 0)
    merged, per_input = merge_pdbs([one])
    assert merged.to_text() == one.to_text() and per_input == []
    assert merged.doc is not one.doc


def test_tree_merge_does_not_mutate_inputs():
    inputs = _corpus(6)
    before = [p.to_text() for p in inputs]
    merged, _ = merge_pdbs(inputs)
    merged.merge(_tu_pdb(7))
    assert [p.to_text() for p in inputs] == before


def _defining_tu(files: tuple, defs: list) -> PDB:
    """One TU over the source files ``files`` (``so#1``, ``so#2``, ...)
    that *defines*, body included, each ``(prefix, name, file, line)``
    (``file`` a 1-based index into ``files``)."""
    doc = PdbDocument()
    for i, name in enumerate(files, 1):
        doc.add(RawItem("so", i, name)).add("skind", "source")
    ids = {"cl": 0, "ro": 0}
    for prefix, name, file, line in defs:
        ids[prefix] += 1
        item = doc.add(RawItem(prefix, ids[prefix], name))
        so = f"so#{file}"
        pos = (so, line, 1, so, line, 5, so, line, 7, so, line + 1, 1)
        if prefix == "cl":
            item.add("ckind", "class")
            item.add("cloc", so, line, 1)
            item.add("cpos", *pos)
        else:
            item.add("rsig", "NULL")
            item.add("rclass", "NULL")
            item.add("rloc", so, line, 1)
            item.add("rpos", *pos)
    return PDB(doc)


def test_tree_merge_odr_conflicts_match_fold():
    """Conflicting definitions survive the merge as the fold leaves them
    (same bytes, same per-input MergeStats), and the ``odr`` check on
    the merged result reports each conflict group with every site."""
    widget = [
        _defining_tu((f"t{i}.cpp",), [("cl", "Widget", 1, line)])
        for i, line in enumerate([10, 20, 30, 40])
    ]
    # f at w.h:20 twice: a duplicate, not a conflict; g at four places;
    # k defined twice inside the last input
    f_g = [
        _defining_tu(("w.h",), [("ro", "f", 1, line), ("ro", "g", 1, line + i)])
        for i, line in enumerate((10, 20, 20, 30))
    ] + [_defining_tu(("w.h",), [("ro", "k", 1, 40), ("ro", "k", 1, 50)])]
    # both definitions of C come from the second input, whose so#1 is
    # b.h; in the merged index so#1 is the first input's a.cpp
    same_input = [
        _defining_tu(("a.cpp",), []),
        _defining_tu(("b.h", "c.h"), [("cl", "C", 1, 3), ("cl", "C", 2, 7)]),
    ]
    cases = [
        (widget, {("PDT022", "Widget"): {"t0.cpp:10", "t1.cpp:20", "t2.cpp:30", "t3.cpp:40"}}),
        (f_g, {
            ("PDT021", "f"): {"w.h:10", "w.h:20", "w.h:30"},
            ("PDT021", "g"): {"w.h:10", "w.h:21", "w.h:22", "w.h:33"},
            ("PDT021", "k"): {"w.h:40", "w.h:50"},
        }),
        (same_input, {("PDT022", "C"): {"b.h:3", "c.h:7"}}),
    ]
    for pdbs, groups in cases:
        serial, per_input = fold(pdbs)
        merged, stats = merge_pdbs(pdbs)
        assert merged.to_text() == serial.to_text()
        assert stats == per_input
        assert odr_groups(run_checks(merged, select="odr")) == groups
        text_merged, total, _ = merge_pdb_texts_tree([p.to_text() for p in pdbs])
        assert text_merged.to_text() == serial.to_text()
        assert total == _total(per_input)


def test_tree_merge_preserves_ferr_items():
    def tu(i):
        doc = PdbDocument()
        so = RawItem("so", 1, f"t{i}.cpp")
        so.add("skind", "source")
        doc.add(so)
        fe = RawItem("ferr", 0, f"t{i}.cpp:1: broken")
        fe.add_text("emsg", f"broken in t{i}")
        doc.add(fe)
        return PDB(doc)

    pdbs = [tu(i) for i in range(4)]
    serial, _ = fold(pdbs)
    merged, _ = merge_pdbs(pdbs)
    assert merged.to_text() == serial.to_text()
    assert len(merged.doc.by_prefix("ferr")) == 4


def test_text_tree_matches_fold():
    texts = [p.to_text() for p in _corpus(9)]
    serial, per_input = fold([PDB.from_text(t) for t in texts])
    merged, stats, passes = merge_pdb_texts_tree(texts)
    assert merged.to_text() == serial.to_text()
    assert stats == _total(per_input)
