"""The regex PDB reader: the reference the scanner in ``parse_pdb`` is held to.

One header regex and one item regex per line, attributes parsed eagerly.
It was the repository's reader before the partition/slice scanner, then
that scanner's error-reporting fallback; it lives here as a test oracle
only (``tests/test_reader_differential.py``, the E19 reader gate).
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
        key, _, rest = line.partition(" ")
        grammar = ATTRIBUTE_SCHEMAS.get(current.prefix, {}).get(key)
        if grammar == "text":
            current.attributes.append(Attribute(key, text=rest))
        else:
            current.attributes.append(Attribute(key, words=rest.split()))
    if doc is None:
        raise PdbParseError("empty input: missing <PDB> header", 0)
    return doc
