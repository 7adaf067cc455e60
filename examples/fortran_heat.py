#!/usr/bin/env python
"""The Section 6 extension: Fortran 90 through the same pipeline.

Compiles a Fortran 90 heat-diffusion solver with the Fortran front end,
runs the *unchanged* IL Analyzer / DUCTAPE / pdbtree on it, inserts TAU
entry/exit instrumentation, and merges the Fortran PDB with a C++ one
into a single multi-language program database.

Run:  python examples/fortran_heat.py
"""

from repro.analyzer import analyze
from repro.ductape.pdb import PDB
from repro.tau.fortran_instrumentor import instrument_fortran_sources
from repro.tools.pdbtree import render_call_tree
from repro.workloads.fortran90 import compile_heat, fortran_files
from repro.workloads.stack import compile_stack


def main() -> None:
    tree = compile_heat()
    pdb = PDB(analyze(tree))

    print("=== Section 6 construct mapping ===")
    for ns in pdb.getNamespaceVec():
        print(f"  module {ns.name():<10} -> namespace na#{ns.id()}")
    for cls in pdb.getClassVec():
        comps = ", ".join(m.name() for m in cls.dataMembers())
        print(f"  type {cls.name():<12} -> class cl#{cls.id()} ({comps})")
    for r in pdb.getRoutineVec():
        alias = r.raw.get("ralias")
        tag = f"  alias: {alias.split()[0]}" if alias else ""
        print(f"  {r.fullName():<30} -> ro#{r.id()}{tag}")

    print("\n=== static call graph (unchanged pdbtree) ===")
    print(render_call_tree(pdb, "heat_app"))

    print("\n=== TAU Fortran instrumentation (entry/exit points) ===")
    results = instrument_fortran_sources(pdb, fortran_files())
    excerpt = results["heat_mod.f90"].text.splitlines()
    for i, line in enumerate(excerpt):
        if "TAU_PROFILE" in line or "subroutine heat_step" in line:
            print(f"  {i + 1:>3}: {line}")

    print("\n=== merged C++ + Fortran program database ===")
    merged = PDB(analyze(compile_stack()))
    stats = merged.merge(PDB.from_text(pdb.to_text()))
    langs = {}
    for r in merged.getRoutineVec():
        langs[r.linkage()] = langs.get(r.linkage(), 0) + 1
    print(f"  merged: +{stats.items_added} items; routines by language: {langs}")


if __name__ == "__main__":
    main()
