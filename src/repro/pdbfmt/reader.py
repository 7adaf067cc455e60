"""PDB reader: ASCII text -> document.

Tolerant by design (the format is meant to be hand-inspectable and
hand-editable): unknown attribute keys are preserved verbatim, blank
lines between items are optional, and attribute lines may appear in any
order.  Malformed structure (no header, content before it, a duplicate
header, an attribute line before any item, an item id with a leading
zero) raises :class:`PdbParseError` with the offending line's number.

One path reads every document: each line is scanned with
``str.partition``/slice operations and no per-line regex, and item
prefixes are interned.  An item's attribute lines are stored unparsed
as its ``lines``, its only stored form, so parse time is O(lines); a
query reads them through the item's key index, built on its first
query (:class:`~repro.pdbfmt.items.RawItem`).
``pdbmerge``, the writer and the tools that print every attribute read
the lines through :func:`normal_lines`, which normalises their blanks
(and applies the merge's ref rewrite).  The grammar is ASCII-only:
item ids are ASCII digits and the separator after one is ASCII
whitespace.  The regex reader this scanner replaced is kept as a test
oracle (``tests/reader_oracle.py``); a differential test holds the two
to one document, or one error message and line number, per input.
"""

from __future__ import annotations

import re
import sys
from typing import Optional

from repro.pdbfmt.items import PdbDocument, RawItem
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS

_HEADER_RE = re.compile(r"^<PDB\s+([0-9.]+)>\s*$", re.ASCII)

#: interned item prefixes — membership test and canonical object in one map
_PREFIXES = {p: sys.intern(p) for p in ("ferr", "so", "ro", "cl", "ty", "te", "na", "ma")}

#: per prefix, the attribute keys whose value is text, kept verbatim
_TEXT_KEYS = {
    prefix: frozenset(key for key, grammar in schema.items() if grammar == "text")
    for prefix, schema in ATTRIBUTE_SCHEMAS.items()
}

_WS = " \t\r\f\v\n"
_DIGITS = "0123456789"


class PdbParseError(Exception):
    """Raised on structurally invalid PDB text."""

    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def parse_pdb(text: str) -> PdbDocument:
    """Parse PDB text into a document; raises :class:`PdbParseError` on
    malformed structure."""
    # the header must be the first non-blank line; consuming it up front
    # frees the per-line loop from testing for it except on lines that
    # start with '<' (a duplicate header)
    lines = text.splitlines()
    start = 0
    n_lines = len(lines)
    while start < n_lines and not lines[start].rstrip():
        start += 1
    if start == n_lines:
        raise PdbParseError("empty input: missing <PDB> header", 0)
    m = _HEADER_RE.match(lines[start].rstrip())
    if m is None:
        raise PdbParseError("content before <PDB> header", start + 1)
    doc = PdbDocument(version=m.group(1))
    doc_append = doc.items.append

    def outside_item(line: str) -> None:
        raise PdbParseError(
            f"attribute line outside an item: {line!r}", _line_no(lines, start, line)
        )

    # bound append of the current item's attribute lines; until the
    # first item it is the error for an attribute line with no item, so
    # the loop never tests for that rare case
    current_lines = outside_item
    prefixes = _PREFIXES
    new = RawItem.__new__
    item_cls = RawItem
    for line in map(str.rstrip, lines[start + 1 :]):
        if not line:
            continue
        # item lines look like "so#12 name" — the '#' sits after a
        # 2-char prefix (4 for ferr), which cheaply rules out nearly
        # every attribute line before paying for a partition + lookup
        if "#" in line[2:5]:
            head, sep, rest = line.partition("#")
            iprefix = prefixes.get(head)
            if iprefix is not None:
                n = len(rest)
                k = 0
                while k < n and rest[k] in _DIGITS:
                    k += 1
                if k and (k == n or rest[k] in _WS):
                    if rest[0] == "0" and k > 1:
                        msg = f"item id with a leading zero: {line!r}"
                        raise PdbParseError(msg, _line_no(lines, start, line))
                    # the line was rstripped, so anything after the
                    # ws run is the (non-empty) name; k == n: no name
                    item = new(item_cls)
                    item.prefix = iprefix
                    item.id = int(rest[:k])
                    item.name = rest[k:].lstrip(_WS)
                    item.lines = []
                    doc_append(item)
                    current_lines = item.lines.append
                    continue
        if line[0] == "<" and _HEADER_RE.match(line) is not None:
            raise PdbParseError("duplicate <PDB> header", _line_no(lines, start, line))
        # attribute lines are *stored unparsed*: a query splits them
        # into the item's key index on first use, so parse time is
        # O(lines)
        current_lines(line)
    return doc


def _line_no(lines: list, start: int, line: str) -> int:
    """1-based number of the first line after the header that rstrips to
    ``line``.  The loop raises on an offending line's first occurrence:
    its verdict depends only on the line and on whether an item has been
    seen yet, which never reverts, so an identical earlier line would
    have raised first."""
    return next(i + 1 for i in range(start + 1, len(lines)) if lines[i].rstrip() == line)


#: whitespace a rendered line never holds: any but a single space
_IRREGULAR = re.compile(r"[^\S\n ]|  ")


def normal_lines(prefix: str, lines: list, remap: Optional[dict] = None) -> list:
    """An item's attribute lines as the writer emits them: a
    text-grammar line verbatim, a word-grammar line's words (its value
    text ``split()``) joined by single spaces.
    With ``remap`` (keys are ``prefix#id`` spellings), each word of a
    word-grammar line is first replaced by ``remap.get(word, word)``:
    the merge's ref rewrite."""
    # most stored lines are rendered already: one search per item
    # finds the rare ones with other blanks to normalise
    regular = _IRREGULAR.search("\n".join(lines)) is None
    if regular and not remap:
        return lines
    text_keys = _TEXT_KEYS.get(prefix, ())
    out: list = []
    append = out.append
    get = remap.get if remap else None
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in text_keys or (regular and (get is None or "#" not in rest)):
            append(line)
            continue
        words = rest.split()
        if not words:
            append(key)
        elif get is None:
            append(key + " " + " ".join(words))
        else:
            append(key + " " + " ".join([get(w, w) for w in words]))
    return out


def parse_pdb_file(path: str) -> PdbDocument:
    """Parse a PDB file from disk."""
    with open(path) as f:
        return parse_pdb(f.read())
