"""Merge entry points against the left-fold oracle: ``merge_pdbs`` and
``merge_pdb_texts_tree`` (the single-pass merge ``pdbbuild`` runs) must
reproduce the fold byte for byte (items, ids, ferr records), with the
fold's per-input MergeStats."""

import pytest

from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.tools.pdbmerge import merge_pdb_texts_tree, merge_pdbs

from tests.merge_oracle import fold

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


def test_tree_merge_odr_conflicts_match_fold():
    """Conflicting class definitions across TUs: per-input odr_conflicts
    and the ODR log must equal the fold's."""

    def tu(i, line):
        doc = PdbDocument()
        so = RawItem("so", 1, f"t{i}.cpp")
        so.add("skind", "source")
        doc.add(so)
        cl = RawItem("cl", 0, "Widget")
        cl.add("ckind", "class")
        cl.add("cloc", "so#1", line, 1)
        doc.add(cl)
        return PDB(doc)

    pdbs = [tu(i, line) for i, line in enumerate([10, 20, 30, 40])]
    want_log: list = []
    serial, per_input = fold(pdbs, want_log)
    assert sum(st.odr_conflicts for st in per_input) > 0
    log: list = []
    merged, stats = merge_pdbs(pdbs, log)
    assert merged.to_text() == serial.to_text()
    assert stats == per_input and log == want_log
    _, total, _ = merge_pdb_texts_tree([p.to_text() for p in pdbs])
    assert total.odr_conflicts == _total(per_input).odr_conflicts


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
