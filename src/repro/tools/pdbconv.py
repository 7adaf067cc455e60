"""pdbconv — convert compact PDB into a readable format (paper Table 2).

The readable format spells out item kinds and attribute meanings, one
block per item::

    ROUTINE ro#15 "push"
        location:   StackAr.cpp:35:21
        parent:     class Stack<int> (cl#7)
        access:     pub
        ...

``--check`` validates a PDB instead: every reference must resolve, and
every attribute key must belong to its item's schema.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.ductape.items import PdbItem
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import ItemRef
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS, ITEM_TYPES

_KIND_LABELS = {
    "so": "SOURCE FILE",
    "ro": "ROUTINE",
    "cl": "CLASS",
    "ty": "TYPE",
    "te": "TEMPLATE",
    "na": "NAMESPACE",
    "ma": "MACRO",
}


def convert_pdb(pdb: PDB) -> str:
    """Render a PDB in the readable format."""
    blocks: list[str] = [f"Program database, format {pdb.doc.version}", ""]
    for item in pdb.items():
        raw = item.raw
        head = f'{_KIND_LABELS.get(raw.prefix, raw.prefix)} {raw.ref} "{item.fullName()}"'
        lines = [head]
        if isinstance(item, PdbItem):
            loc = item.location()
            if loc.known:
                lines.append(f"    location:   {loc}")
            parent = item.parent()
            if parent is not None:
                lines.append(
                    f"    parent:     {parent.name()} ({parent.ref})"
                )
            if item.access() != "NA":
                lines.append(f"    access:     {item.access()}")
        for attr in raw.attributes:
            if attr.key.endswith("loc") or attr.key in ("rclass", "rnspace", "cclass", "cnspace", "racs", "cacs", "tacs", "yacs"):
                continue  # already rendered above
            value = attr.text if attr.text is not None else " ".join(attr.words)
            value = _humanise_refs(pdb, value)
            lines.append(f"    {attr.key:<11} {value}")
        blocks.append("\n".join(lines))
        blocks.append("")
    return "\n".join(blocks)


def _humanise_refs(pdb: PDB, value: str) -> str:
    """Append names to item references: ``ro#15`` -> ``ro#15[push]``."""
    out: list[str] = []
    for word in value.split(" "):
        if "#" in word and word.split("#")[0] in ITEM_TYPES:
            try:
                ref = ItemRef.parse(word)
            except ValueError:
                out.append(word)
                continue
            target = pdb.item(ref) if ref else None
            out.append(f"{word}[{target.name()}]" if target is not None else word)
        else:
            out.append(word)
    return " ".join(out)


def check_pdb(pdb: PDB) -> list[str]:
    """Validate a PDB: dangling references and unknown attributes."""
    problems: list[str] = []
    for item in pdb.items():
        raw = item.raw
        schema = ATTRIBUTE_SCHEMAS.get(raw.prefix, {})
        for attr in raw.attributes:
            if attr.key not in schema:
                problems.append(f"{raw.ref}: unknown attribute {attr.key!r}")
            for word in attr.words:
                if "#" in word and word.split("#")[0] in ITEM_TYPES:
                    try:
                        ref = ItemRef.parse(word)
                    except ValueError:
                        problems.append(f"{raw.ref}: malformed reference {word}")
                        continue
                    if ref is not None and pdb.item(ref) is None:
                        problems.append(f"{raw.ref}: dangling reference {word}")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbconv", description="convert a PDB file into a readable format"
    )
    ap.add_argument("pdb", help="input PDB file")
    ap.add_argument("-o", "--output", help="output file (default: stdout)")
    ap.add_argument(
        "-c", "--check", action="store_true", help="validate instead of converting"
    )
    args = ap.parse_args(argv)
    pdb = PDB.read(args.pdb)
    if args.check:
        problems = check_pdb(pdb)
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{args.pdb}: {len(pdb.items())} items, {len(problems)} problem(s)")
        return 1 if problems else 0
    text = convert_pdb(pdb)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
