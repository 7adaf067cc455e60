"""PDB writer: document -> compact ASCII text (paper Figure 3's format)."""

from __future__ import annotations

from repro import obs
from repro.pdbfmt.items import PdbDocument
from repro.pdbfmt.reader import normal_lines


def write_pdb(doc: PdbDocument) -> str:
    """Render a document in the compact PDB format.

    Item records are separated by blank lines; attribute order within an
    item is preserved, so the writer is a deterministic function of the
    document and reparse→rewrite is the identity.

    Every item is written from its stored attribute lines through
    :func:`~repro.pdbfmt.reader.normal_lines`, whether the reader, the
    analyzer or the merge made it, so writing builds no attribute
    objects."""
    with obs.observe("pdbfmt.write", cat="pdbfmt", items=len(doc.items)):
        lines: list[str] = [f"<PDB {doc.version}>", ""]
        for item in doc.items:
            name = item.name if item.name else "<anon>"
            lines.append(f"{item.prefix}#{item.id} {name}")
            lines += normal_lines(item.prefix, item.lines)
            lines.append("")
        return "\n".join(lines)


def write_pdb_file(doc: PdbDocument, path: str) -> None:
    """Write a document to a PDB file on disk."""
    with open(path, "w") as f:
        f.write(write_pdb(doc))
