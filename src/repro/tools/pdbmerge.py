"""pdbmerge — merge PDB files from separate compilations into one,
eliminating duplicate template instantiations in the process (paper
Table 2).

One algorithm does it, :class:`repro.ductape.pdb.PdbMerger`: a single
pass over the inputs in order that keys each input's items once,
probes one global ``key -> item`` table, appends the new items under
running per-prefix ids and rewrites their refs.  The result is
byte-identical to folding the inputs left to right with pairwise
merges, with the same per-input :class:`MergeStats`.
:func:`merge_pdbs` merges parsed databases; :func:`merge_pdb_texts_tree`
merges PDB texts, parsing each as the pass reaches it.

The merge only deduplicates: two different definitions of one entity
both survive it.  ``--check`` runs the ``odr`` check of
:mod:`repro.check` over the merged result and prints its report, the
text ``pdbcheck --checks odr`` prints for the same inputs.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.ductape.pdb import PDB, MergeStats, PdbMerger
from repro.pdbfmt.items import PdbDocument
from repro.pdbfmt.reader import parse_pdb


def merge_pdbs(pdbs: list[PDB]) -> tuple[PDB, list[MergeStats]]:
    """Merge a list of PDBs, in order, into one *fresh* merged PDB.

    Returns the merged PDB and one :class:`MergeStats` per input after
    the first.  The inputs are never modified, so callers can keep
    reusing them (the merged PDB shares the first input's items, which
    merging never mutates).
    """
    if not pdbs:
        return PDB(), []
    first = pdbs[0].doc
    merger = PdbMerger(PdbDocument(version=first.version, items=list(first.items)))
    stats = [merger.add(p.doc) for p in pdbs[1:]]
    return PDB(merger.doc), stats


def merge_pdb_texts_tree(texts: list[str]) -> tuple[PDB, MergeStats, int]:
    """Merge PDB *texts* in order; the entry point ``pdbbuild`` calls.

    Returns ``(merged, stats, passes)``: ``stats`` sums the per-input
    :class:`MergeStats`, and ``passes`` is 1 when two or more inputs
    were merged, else 0.  The name and the 3-tuple outlive the pairwise
    tree merge this once ran: the benchmark's traced run
    (``perfbench/shims.py``) wraps this function, and the
    ``parse_pdb`` it calls, by name."""
    if not texts:
        return PDB(), MergeStats(), 0
    merger = PdbMerger(parse_pdb(texts[0]))
    total = MergeStats()
    for text in texts[1:]:
        total += merger.add(parse_pdb(text))
    return PDB(merger.doc), total, 1 if len(texts) > 1 else 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbmerge",
        description="merge PDB files, eliminating duplicate template instantiations",
    )
    ap.add_argument("inputs", nargs="+", help="PDB files to merge")
    ap.add_argument("-o", "--output", required=True, help="merged output PDB")
    ap.add_argument(
        "--check",
        action="store_true",
        help="report cross-TU One-Definition-Rule violations in the merged result "
        "(the odr check, as pdbcheck --checks odr)",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    pdbs = [PDB.read(p) for p in args.inputs]
    merged, stats = merge_pdbs(pdbs)
    merged.write(args.output)
    if args.verbose:
        for path, st in zip(args.inputs[1:], stats):
            print(
                f"{path}: {st.items_in} items in, {st.items_added} added, "
                f"{st.duplicates_eliminated} duplicates eliminated "
                f"({st.duplicate_instantiations} template instantiations)"
            )
    if args.check:
        from repro.check import render_text, run_checks

        print(render_text(run_checks(merged, select="odr")))
    print(f"{args.output}: {len(merged.items())} items")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
