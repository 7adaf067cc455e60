"""The regex PDB reader: the reference the scanner in ``parse_pdb`` is held to.

One header regex and one item regex per line, attributes split eagerly
into :class:`Attribute` objects and rendered back to lines by the
oracle's own code, so neither ``materialize_attrs`` nor ``normal_lines``
stands behind its answer.  It was the repository's reader before the
partition/slice scanner, then that scanner's error-reporting fallback;
it lives here as a test oracle only (``tests/test_reader_differential.py``,
the E19 reader gate).
Both regexes are ASCII-only, so ``\\d`` and ``\\s`` mean what the
scanner's digit and whitespace sets mean.
"""

from __future__ import annotations

import re

from repro.pdbfmt.items import Attribute, PdbDocument, RawItem
from repro.pdbfmt.reader import PdbParseError
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS

_HEADER_RE = re.compile(r"^<PDB\s+([0-9.]+)>\s*$", re.ASCII)
_ITEM_RE = re.compile(r"^(ferr|so|ro|cl|ty|te|na|ma)#(\d+)(?:\s+(.*))?$", re.ASCII)


def parse_pdb_regex(text: str) -> PdbDocument:
    """Reference implementation: one header + one item regex per line."""
    doc: PdbDocument | None = None
    current: RawItem | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            if doc is not None:
                raise PdbParseError("duplicate <PDB> header", line_no)
            doc = PdbDocument(version=m.group(1))
            continue
        if doc is None:
            raise PdbParseError("content before <PDB> header", line_no)
        m = _ITEM_RE.match(line)
        if m:
            if m.group(2)[0] == "0" and len(m.group(2)) > 1:
                raise PdbParseError(f"item id with a leading zero: {line!r}", line_no)
            prefix, num, name = m.group(1), int(m.group(2)), m.group(3) or ""
            current = RawItem(prefix=prefix, id=num, name=name)
            doc.items.append(current)
            continue
        if current is None:
            raise PdbParseError(f"attribute line outside an item: {line!r}", line_no)
        current.lines.append(_render(_attribute(current.prefix, line)))
    if doc is None:
        raise PdbParseError("empty input: missing <PDB> header", 0)
    return doc


def attributes_regex(item: RawItem) -> tuple[Attribute, ...]:
    """The attributes of an item :func:`parse_pdb_regex` built."""
    return tuple(_attribute(item.prefix, line) for line in item.lines)


def write_pdb_regex(doc: PdbDocument) -> str:
    """A document :func:`parse_pdb_regex` built, as text."""
    out = [f"<PDB {doc.version}>", ""]
    for item in doc.items:
        out += [f"{item.prefix}#{item.id} {item.name or '<anon>'}", *item.lines, ""]
    return "\n".join(out)


def _attribute(prefix: str, line: str) -> Attribute:
    key, _, rest = line.partition(" ")
    if ATTRIBUTE_SCHEMAS.get(prefix, {}).get(key) == "text":
        return Attribute(key, text=rest)
    return Attribute(key, words=rest.split())


def _render(a: Attribute) -> str:
    if a.text is not None:
        return f"{a.key} {a.text}".rstrip()
    return " ".join([a.key, *a.words])
