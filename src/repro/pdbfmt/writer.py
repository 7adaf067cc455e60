"""PDB writer: document -> compact ASCII text (paper Figure 3's format)."""

from __future__ import annotations

from repro import obs
from repro.pdbfmt.items import PdbDocument
from repro.pdbfmt.reader import intern_key, normal_lines


def write_pdb(doc: PdbDocument) -> str:
    """Render a document in the compact PDB format.

    Item records are separated by blank lines; attribute order within an
    item is preserved, so the writer is a deterministic function of the
    document and reparse→rewrite is the identity.

    An item the reader has not materialised is written from its stored
    lines (:func:`~repro.pdbfmt.reader.normal_lines`), byte for byte
    what rendering its attributes would give, so writing a merge result
    builds no attribute objects.  As a side effect every materialised
    attribute's key is canonicalised into the reader's interned key
    table — documents built in memory (analyzer output) end up sharing
    one string object per distinct key with everything the reader
    parses."""
    with obs.observe("pdbfmt.write", cat="pdbfmt", items=len(doc.items)):
        lines: list[str] = [f"<PDB {doc.version}>", ""]
        for item in doc.items:
            name = item.name if item.name else "<anon>"
            lines.append(f"{item.prefix}#{item.id} {name}")
            if item._attrs is None:
                lines += normal_lines(item.prefix, item._raw)
            else:
                for attr in item._attrs:
                    attr.key = intern_key(attr.key)
                    lines.append(attr.render())
            lines.append("")
        return "\n".join(lines)


def write_pdb_file(doc: PdbDocument, path: str) -> None:
    """Write a document to a PDB file on disk."""
    with open(path, "w") as f:
        f.write(write_pdb(doc))
