"""E13 — Section 6: the Fortran 90 extension, and the uniformity thesis.

"In general, if the Program Database Toolkit can make a language-
specific parse tree accessible in a uniform manner, static analysis
tools and other applications can be built that process different
languages in a uniform and consistent way."

Regenerated: the Fortran 90 front end feeds the *unchanged* IL
Analyzer, PDB format, DUCTAPE, pdb* tools, TAU instrumentation, and the
execution simulator; a merged C++ + Fortran program database works; the
paper's construct mapping (module→namespace, derived type→class,
interface→aliased routines, entry/exit points) is asserted item by item.
"""

import pytest

from repro.analyzer import analyze
from repro.ductape.pdb import PDB
from repro.tools.pdbconv import check_pdb
from repro.tools.pdbtree import render_call_tree
from repro.workloads.fortran90 import compile_heat, fortran_files


@pytest.fixture(scope="module")
def f90_tree():
    return compile_heat()


@pytest.fixture(scope="module")
def f90_pdb(f90_tree):
    return PDB(analyze(f90_tree))


def test_e13_pipeline_benchmark(benchmark):
    tree = benchmark(compile_heat)
    assert tree.all_routines


def test_e13_construct_mapping_table(f90_pdb):
    """The Section 6 mapping, regenerated as a table (run with -s)."""
    rows = [
        ("module", "namespace (na)", [n.fullName() for n in f90_pdb.getNamespaceVec()]),
        ("derived type", "class (cl)", [c.fullName() for c in f90_pdb.getClassVec()]),
        ("subroutine/function", "routine (ro)",
         [r.fullName() for r in f90_pdb.getRoutineVec()][:5] + ["..."]),
        ("interface", "routines with aliases (ralias)",
         [r.fullName() for r in f90_pdb.getRoutineVec() if r.raw.get("ralias")]),
    ]
    print("\n--- regenerated §6 construct mapping ---")
    for fortran, pdb_kind, examples in rows:
        print(f"{fortran:<22} -> {pdb_kind:<30} {', '.join(examples)}")
    assert f90_pdb.getNamespaceVec() and f90_pdb.getClassVec()


def test_e13_derived_type_components(f90_pdb):
    grid = f90_pdb.findClass("grid_mod::grid")
    members = {m.name(): m for m in grid.dataMembers()}
    assert set(members) == {"nx", "ny", "cells", "spacing"}
    assert members["cells"].type().name() == "float [] *"


def test_e13_interface_aliases(f90_pdb):
    aliased = [r for r in f90_pdb.getRoutineVec() if r.raw.get("ralias")]
    assert {r.name() for r in aliased} == {"residual_scalar", "residual_field"}
    assert all(r.raw.get("ralias").split() == ["residual"] for r in aliased)


def test_e13_entry_exit_points(f90_pdb):
    """'TAU must know the locations of Fortran routine entry and exit
    points to insert profiling instrumentation.'"""
    check = f90_pdb.findRoutine("heat_mod::check_convergence")
    assert check.raw.get_location("rfexec") is not None
    assert len(check.raw.get_all("rexit")) == 2  # return + end


def test_e13_uniform_tools(f90_pdb):
    """The unchanged C++ tools process the Fortran PDB."""
    assert check_pdb(f90_pdb) == []
    out = render_call_tree(f90_pdb, "heat_app")
    print("\n--- pdbtree on a Fortran program (unchanged tool) ---")
    print(out)
    assert "`--> heat_mod::heat_step" in out
    assert "grid_mod::cell_value" in out


def test_e13_uniform_instrumentation(f90_pdb, benchmark):
    from repro.tau.fortran_instrumentor import instrument_fortran_sources

    results = benchmark(instrument_fortran_sources, f90_pdb, fortran_files())
    total = sum(len(r.routines_instrumented) for r in results.values())
    assert total == len(
        [r for r in f90_pdb.getRoutineVec() if r.linkage() == "fortran"]
    )


def test_e13_uniform_dynamic_analysis(f90_pdb):
    """One simulator, two languages: profile the heat solver."""
    from repro.tau.machine import CostModel
    from repro.tau.profile import exclusive_ranking
    from repro.tau.simulate import ExecutionSimulator, WorkloadSpec

    n = 64 * 64
    cm = (
        CostModel(default_cycles=10.0)
        .add("stencil", 9.0)
        .add("cell_value", 3.0)
        .add("grid_size", 2.0)
    )
    spec = WorkloadSpec(
        entry="heat_app",
        cost=cm,
        pair_counts={
            ("heat_app", "heat_mod::heat_step"): 100,
            ("heat_mod::heat_step", "heat_mod::stencil"): n,
            ("heat_mod::residual_field", "heat_mod::residual_scalar"): n,
        },
    )
    profiler = ExecutionSimulator(f90_pdb, spec).run()
    ranking = exclusive_ranking(profiler)
    assert "stencil" in ranking[0][0] or "cell_value" in ranking[0][0]
    profiler.profile(0).check_consistency()


def test_e13_cross_language_merge(f90_pdb):
    """A C++ PDB and a Fortran PDB merge into one program database."""
    from repro.workloads.stack import compile_stack

    cpp_pdb = PDB(analyze(compile_stack()))
    merged = PDB.from_text(cpp_pdb.to_text())
    stats = merged.merge(PDB.from_text(f90_pdb.to_text()))
    assert stats.items_added > 0
    assert merged.findClass("Stack<int>") is not None  # C++ survives
    assert merged.findClass("grid_mod::grid") is not None  # Fortran joins
    links = {r.linkage() for r in merged.getRoutineVec()}
    assert {"C++", "fortran"} <= links
    assert check_pdb(merged) == []


def test_e13_mixed_language_call_graph(f90_pdb):
    """DUCTAPE's call tree works on the merged multi-language PDB."""
    from repro.workloads.stack import compile_stack

    merged = PDB(analyze(compile_stack()))
    merged.merge(PDB.from_text(f90_pdb.to_text()))
    out_cpp = render_call_tree(merged, "main")
    out_f90 = render_call_tree(merged, "heat_app")
    assert "Stack<int>::push" in out_cpp
    assert "heat_mod::heat_step" in out_f90


# -- the Java half of Section 6 ------------------------------------------------


@pytest.fixture(scope="module")
def java_pdb():
    from repro.workloads.javasim import compile_nbody

    return PDB(analyze(compile_nbody()))


def test_e13_java_pipeline_benchmark(benchmark):
    from repro.workloads.javasim import compile_nbody

    tree = benchmark(compile_nbody)
    assert tree.all_routines


def test_e13_java_construct_mapping(java_pdb):
    """Packages -> namespaces, classes/interfaces -> classes, instance
    methods virtual (Java's dispatch model made explicit in the PDB)."""
    assert {n.name() for n in java_pdb.getNamespaceVec()} == {"math", "sim"}
    force = java_pdb.findClass("sim::Force")
    assert all(m.isPureVirtual() for m in force.memberFunctions())
    dot = java_pdb.findRoutine("math::Vector3::dot")
    assert dot.linkage() == "java" and dot.isVirtual()


def test_e13_java_uniform_tools(java_pdb):
    from repro.tools.pdbconv import check_pdb

    assert check_pdb(java_pdb) == []
    out = render_call_tree(java_pdb, "main")
    print("\n--- pdbtree on a Java program (unchanged tool) ---")
    print(out)
    assert "sim::Simulation::step" in out
    assert "(VIRTUAL)" in out  # interface dispatch


def test_e13_three_language_database(f90_pdb, java_pdb):
    """The paper's closing thesis, end to end: one program database,
    three languages, one tool set."""
    from repro.tools.pdbconv import check_pdb
    from repro.workloads.stack import compile_stack

    merged = PDB(analyze(compile_stack()))
    merged.merge(PDB.from_text(f90_pdb.to_text()))
    merged.merge(PDB.from_text(java_pdb.to_text()))
    by_lang = {}
    for r in merged.getRoutineVec():
        by_lang.setdefault(r.linkage(), []).append(r.fullName())
    print("\n--- one PDB, three languages ---")
    for lang, names in sorted(by_lang.items()):
        print(f"  {lang:<8} {len(names):>3} routines, e.g. {names[0]}")
    assert {"C++", "fortran", "java"} <= set(by_lang)
    assert check_pdb(merged) == []
