"""Differential test: DUCTAPE's resolve-once queries and program graph
against the per-call resolution of ``tests/ductape_oracle.py``.

Every query must give the oracle's answer — callees with their virtual
flag and site, callers, derived classes, the roots of ``CallTree`` and
``ClassHierarchy``, base classes, signatures, templates, locations, the
class walk and the Figure 5 print at levels 0 and 1 — over the E-series
corpora and over random PDB documents: dangling
``rcall``/``cbase`` refs, duplicate call sites and bases, short
``cbase`` lines, NULL call sites, self-calls and inheritance cycles.
Two regression guards ride along: the graph is rebuilt after
``PDB.merge``, and mutating a list a query returned does not change the
next answer.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer import analyze
from repro.check import run_checks
from repro.check.report import to_sarif_dict
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.items import PdbItem, PdbTemplateItem
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.tools.pdbtree import print_func_tree
from repro.workloads.defects import compile_defects
from repro.workloads.fortran90 import compile_heat
from repro.workloads.javasim import compile_nbody
from repro.workloads.pooma import compile_pooma
from repro.workloads.stack import compile_stack
from repro.workloads.synth import SynthSpec, compile_synth

from tests import ductape_oracle as oracle
from tests.util import compile_source

CORPORA = {
    "stack": lambda: PDB(analyze(compile_stack())),
    "stack-all": lambda: PDB(analyze(compile_stack(InstantiationMode.ALL))),
    "pooma": lambda: PDB(analyze(compile_pooma())),
    "defects": lambda: compile_defects()[0],
    "heat": lambda: PDB(analyze(compile_heat())),
    "nbody": lambda: PDB(analyze(compile_nbody())),
    "synth": lambda: PDB(analyze(compile_synth(SynthSpec(n_plain_classes=6, call_depth=8))[0])),
}


def _loc(loc) -> tuple:
    return (loc.file(), loc.line(), loc.col())


def assert_matches_oracle(pdb: PDB) -> None:
    routines = pdb.getRoutineVec()
    classes = pdb.getClassVec()
    calls = pdb.graph.calls
    for r in routines:
        want = oracle.oracle_callees(r)
        got = r.callees()
        assert [(c.call(), c.isVirtual(), _loc(c.location())) for c in got] == [
            (c.call(), c.isVirtual(), _loc(c.location())) for c in want
        ]
        assert calls[r] == [
            (c.call(), c.isVirtual(), oracle.call_site(c))
            for c in want
            if c.call() is not None
        ]
        assert r.callers() == oracle.callers_of(pdb, r)
        assert pdb.callers_of(r) == r.callers()
        assert r.signature() is oracle.signature(r)
    for c in classes:
        assert c.baseClasses() == oracle.base_classes(c)
        assert c.derivedClasses() == oracle.derived_of(pdb, c)
        assert pdb.derived_of(c) == c.derivedClasses()
    for item in pdb.items():
        if isinstance(item, PdbItem):
            assert _loc(item.location()) == _loc(oracle.location(item))
        if isinstance(item, PdbTemplateItem):
            assert item.template() is oracle.template(item)
    assert pdb.getCallTree().roots == oracle.call_tree_roots(pdb)
    hierarchy = pdb.getClassHierarchy()
    assert hierarchy.roots == oracle.class_roots(pdb)
    for c in classes:
        assert list(hierarchy.walk(c)) == list(oracle.class_walk(pdb, c))
    for r in routines:
        for level in (0, 1):
            got, want = [], []
            print_func_tree(r, level, got)
            oracle.print_func_tree(r, level, want)
            assert got == want


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_matches_oracle(name):
    pdb = PDB.from_text(CORPORA[name]().to_text())
    assert_matches_oracle(pdb)
    assert_matches_oracle(pdb)  # answered from the memos the second time


# ----------------------------------------------------------- random PDBs

FILES = ("a.h", "b.cpp")


@st.composite
def documents(draw) -> PdbDocument:
    doc = PdbDocument()

    def loc() -> list:
        if draw(st.integers(0, 4)) == 4:
            return ["NULL", 0, 0]
        return [f"so#{draw(st.integers(1, len(FILES)))}", draw(st.integers(1, 4)), 1]

    for i, name in enumerate(FILES, 1):
        doc.add(RawItem("so", i, name))
    n_types = draw(st.integers(0, 2))
    for i in range(1, n_types + 1):
        doc.add(RawItem("ty", i, f"int (T{i})")).add("ykind", "func")
    n_templates = draw(st.integers(0, 2))
    for i in range(1, n_templates + 1):
        doc.add(RawItem("te", i, f"Box{i}")).add("tloc", *loc())
    n_classes = draw(st.integers(0, 6))
    for i in range(1, n_classes + 1):
        cl = doc.add(RawItem("cl", i, draw(st.sampled_from(("A", "B", "Box<int>")))))
        if draw(st.booleans()):
            cl.add("cloc", *loc())
        if n_templates and draw(st.booleans()):
            cl.add("ctempl", f"te#{draw(st.integers(1, n_templates))}")
        for _ in range(draw(st.integers(0, 3))):
            # cl#0 never resolves; a short cbase line is ignored
            base = f"cl#{draw(st.integers(0, n_classes))}"
            words = [draw(st.sampled_from(("pub", "priv"))), draw(st.sampled_from(("no", "virt"))), base]
            cl.add("cbase", *words[: draw(st.sampled_from((2, 3, 3, 3)))])
    n_routines = draw(st.integers(1, 7))
    routines = []
    for i in range(1, n_routines + 1):
        ro = doc.add(RawItem("ro", i, draw(st.sampled_from(("main", "f", "g")))))
        if draw(st.booleans()):
            ro.add("rloc", *loc())
        if n_classes and draw(st.booleans()):
            ro.add("rclass", f"cl#{draw(st.integers(1, n_classes))}")
        if draw(st.booleans()):
            ro.add("rsig", f"ty#{draw(st.integers(0, n_types))}")
        if n_templates and draw(st.booleans()):
            ro.add("rtempl", f"te#{draw(st.integers(1, n_templates))}")
        routines.append(ro)
    for ro in routines:
        for _ in range(draw(st.integers(0, 4))):
            # ro#0 never resolves: a call into code outside the database
            callee = f"ro#{draw(st.integers(0, n_routines))}"
            ro.add("rcall", callee, draw(st.sampled_from(("no", "virt"))), *loc())
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_random_graphs_match_oracle(doc):
    assert_matches_oracle(PDB(doc))


# ------------------------------------------------------ regression guards


def _pair() -> tuple[PDB, PDB]:
    a = compile_source("int leaf( ) { return 1; }\nint main( ) { return leaf( ); }")
    b = compile_source(
        'int leaf( ) { return 1; }\n#include "a.h"\nint twice( ) { return leaf( ) + leaf( ); }\n'
        "class Base { };\nclass Sub : public Base { public: int m( ) { return 0; } };",
        files={"a.h": "int decl( );\n"},
    )
    return PDB(analyze(a)), PDB(analyze(b))


def test_graph_sees_merged_items():
    pa, pb = _pair()
    leaf = pa.findRoutine("leaf")
    assert [r.name() for r in leaf.callers()] == ["main"]
    assert [c.name() for c in pa.getClassVec()] == []
    pa.merge(pb)
    leaf = pa.findRoutine("leaf")
    assert [r.name() for r in leaf.callers()] == ["main", "twice"]
    assert [c.name() for c in pa.findClass("Base").derivedClasses()] == ["Sub"]
    roots = {r.name() for r in pa.getCallTree().roots}
    assert {"main", "twice"} <= roots and "leaf" not in roots
    assert_matches_oracle(pa)


def test_returned_lists_are_copies():
    _, pdb = _pair()
    leaf, twice = pdb.findRoutine("leaf"), pdb.findRoutine("twice")
    base, sub = pdb.findClass("Base"), pdb.findClass("Sub")
    (main_file,) = [f for f in pdb.getFileVec() if f.name() == "main.cpp"]

    def queries():
        return (
            twice.callees(), leaf.callers(), sub.baseClasses(), base.derivedClasses(),
            pdb.getRoutineVec(), pdb.getClassVec(), pdb.getCallTree().roots,
            pdb.getClassHierarchy().roots, pdb.callers_of(leaf), pdb.derived_of(base),
            sub.memberFunctions(), main_file.includes(),
        )

    lengths = [len(x) for x in queries()]
    assert all(lengths)
    for got in queries():
        got.clear()
    twice.callees().append(None)
    leaf.callers().append(leaf)
    sub.memberFunctions().append(leaf)
    assert [len(x) for x in queries()] == lengths
    assert_matches_oracle(pdb)


# ------------------------------------------------- one meaning of "callers"


def test_caller_with_two_call_sites_is_listed_once():
    pdb = PDB(analyze(compile_source(
        "int f( ) { return 1; }\nint g( ) { return f( ) + f( ); }\nint main( ) { return g( ); }"
    )))
    f, g = pdb.findRoutine("f"), pdb.findRoutine("g")
    assert [c.call() for c in g.callees()] == [f, f]
    assert f.callers() == [g]
    assert pdb.graph.callers[f] == [g]


def test_defect_corpus_findings_and_sarif_unchanged():
    """The checks read the deduplicated callers; their findings and SARIF
    results on the defect corpus keep the bytes they had when pdbcheck
    listed a caller once per call site."""
    report = run_checks(compile_defects()[0])
    findings = "\n".join(f.render() for f in report.findings)
    results = json.dumps(to_sarif_dict(report)["runs"][0]["results"], indent=2)
    assert hashlib.sha256(findings.encode()).hexdigest() == (
        "d2e152e2268321bd944108162a3b527a9fe1ba6e466c4c2ce152b86880c7c531"
    )
    assert hashlib.sha256(results.encode()).hexdigest() == (
        "24272ad99d3a2a39e608c06f8c3929abaeb3d181c83197f8898ec86459a3e29d"
    )


def test_duplicate_base_counts_one_derived_class():
    """A class that names its base twice is one derived class, in the
    graph and so in the hierarchy check's message (pdbcheck used to
    count one per ``cbase`` line)."""
    pdb = PDB(analyze(compile_source(
        "class Base { public: virtual int m( ) { return 0; } };\n"
        "class Sub : public Base { };\nint main( ) { return 0; }"
    )))
    (sub,) = [raw for raw in pdb.doc.items if raw.prefix == "cl" and raw.name == "Sub"]
    (value,) = sub.get_all("cbase")
    sub.add("cbase", value)
    pdb = PDB(pdb.doc)
    base = pdb.findClass("Base")
    assert len(pdb.findClass("Sub").baseClasses()) == 2
    assert base.derivedClasses() == [pdb.findClass("Sub")] == oracle.derived_of(pdb, base)
    (finding,) = [f for f in run_checks(pdb, select="hierarchy").findings]
    assert finding.message == (
        "polymorphic class 'Base' has 1 derived class(es) but an implicit "
        "non-virtual destructor"
    )
