"""pdbtree — display file inclusion, class hierarchy, and call graph
trees (paper Table 2).

:func:`print_func_tree` is a faithful port of the ``printFuncTree``
routine the paper reproduces in Figure 5, including its quirks: the
``level != 0 || rr->callees().size()`` leaf filter at the root level, the
``(VIRTUAL)`` tag on virtual call sites, and the `` ... `` marker where
the ACTIVE flag cuts recursion on cycles.  Its recursion is an explicit
stack over the PDB's program graph, so call chains may be very deep.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.ductape.items import ACTIVE, INACTIVE, PdbRoutine
from repro.ductape.pdb import PDB


def print_func_tree(r: PdbRoutine, level: int, out: list[str]) -> None:
    """Port of paper Figure 5's printFuncTree (output into ``out``)."""
    calls = r._pdb.graph.calls
    r.flag(ACTIVE)
    stack = [(r, iter(calls[r]), level)]
    while stack:
        r, it, level = stack[-1]
        for rr, virtual, _site in it:  # (1) functions the current one calls
            if level != 0 or rr.callees():
                line = " " * max(0, (level - 1) * 5)
                if level:
                    line += "`--> "
                line += rr.fullName()  # (2) report the callee
                if virtual:
                    line += " (VIRTUAL)"
                if rr.flag() == ACTIVE:
                    out.append(line + " ... ")
                else:
                    out.append(line)
                    rr.flag(ACTIVE)  # (3) descend
                    stack.append((rr, iter(calls[rr]), level + 1))
                    break
        else:
            stack.pop()
            r.flag(INACTIVE)


def render_call_tree(pdb: PDB, root_name: Optional[str] = None) -> str:
    """Call graph rendering: one Figure 5-style tree per root."""
    tree = pdb.getCallTree()
    for r in pdb.getRoutineVec():
        r.flag(INACTIVE)
    roots = tree.roots
    if root_name is not None:
        root = tree.root_named(root_name) or pdb.findRoutine(root_name)
        roots = [root] if root is not None else []
    lines: list[str] = []
    for root in roots:
        if not root.callees():
            continue
        lines.append(root.fullName())
        print_func_tree(root, 1, lines)
        lines.append("")
    return "\n".join(lines).rstrip()


def render_inclusion_tree(pdb: PDB) -> str:
    """Source file inclusion forest."""
    return pdb.getInclusionTree().render()


def render_class_tree(pdb: PDB) -> str:
    """Class hierarchy forest."""
    return pdb.getClassHierarchy().render()


def render_diagnostics(pdb: PDB) -> str:
    """Frontend error records (``ferr``), grouped by translation unit.

    Non-empty only for PDBs produced by fault-tolerant builds where a TU
    compiled with recovered errors."""
    by_tu: dict[str, list[str]] = {}
    for e in pdb.getErrorVec():
        by_tu.setdefault(e.name(), []).append(e.render())
    lines: list[str] = []
    for tu, rendered in by_tu.items():
        lines.append(f"{tu}: {len(rendered)} error(s)")
        for r in rendered:
            lines.append(f"    {r}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbtree",
        description="display file inclusion, class hierarchy, and call graph trees",
    )
    ap.add_argument("pdb", help="input PDB file")
    ap.add_argument(
        "-t",
        "--tree",
        choices=["calls", "classes", "includes", "errors", "all"],
        default="all",
        help="which tree to display",
    )
    ap.add_argument("-r", "--root", help="call-tree root routine (default: all roots)")
    args = ap.parse_args(argv)
    pdb = PDB.read(args.pdb)
    sections: list[tuple[str, str]] = []
    if args.tree in ("includes", "all"):
        sections.append(("FILE INCLUSION TREE", render_inclusion_tree(pdb)))
    if args.tree in ("classes", "all"):
        sections.append(("CLASS HIERARCHY", render_class_tree(pdb)))
    if args.tree in ("calls", "all"):
        sections.append(("STATIC CALL GRAPH", render_call_tree(pdb, args.root)))
    if args.tree == "errors" or (args.tree == "all" and pdb.getErrorVec()):
        sections.append(("DIAGNOSTICS", render_diagnostics(pdb)))
    for title, body in sections:
        print(title)
        print("=" * len(title))
        print(body)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
