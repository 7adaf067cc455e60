"""The TAU instrumentor: source rewriting with TAU measurement macros.

"The TAU instrumentor iterates through the PDB descriptions of functions
and templates to rewrite the original source file, annotating the
functions with TAU measurement macros.  The translated source code can
subsequently be compiled and linked with the TAU library."

Rewriting inserts, right after the opening brace of each selected
entity's body::

    TAU_PROFILE("vector::vector()", CT(*this), TAU_USER);

with ``CT(*this)`` only for member-function templates (paper Figure 6 /
Section 4.1).  Each rewritten file gets ``#include <TAU.h>`` prepended;
:data:`TAU_H` supplies a parseable no-op definition of the macros so the
translated sources re-compile through the front end (bench E5 verifies
this round trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ductape.items import PdbRoutine, PdbTemplate
from repro.ductape.pdb import PDB
from repro.tau.selector import InstrumentationPoint, select_instrumentation

#: the TAU measurement API header (no-op expansion for re-compilation)
TAU_H = """\
#ifndef TAU_H
#define TAU_H

#define TAU_DEFAULT 0
#define TAU_USER 1
#define TAU_PROFILE(name, type, group)
#define TAU_PROFILE_TIMER(var, name, type, group)
#define TAU_PROFILE_START(var)
#define TAU_PROFILE_STOP(var)
#define CT(obj) ""

#endif
"""


@dataclass
class Insertion:
    """One macro insertion: position + the inserted text."""

    line: int
    column: int
    text: str
    timer_name: str


@dataclass
class InstrumentedSource:
    """The rewriting result for one source file."""

    file_name: str
    original: str
    text: str
    insertions: list[Insertion] = field(default_factory=list)


def instrument_sources(
    pdb: PDB, sources: dict[str, str], profile_group: str = "TAU_USER"
) -> dict[str, InstrumentedSource]:
    """Rewrite every file in ``sources`` that contains instrumentable
    entities; files without any come back unchanged (minus the TAU.h
    include).  Returns a map file name -> result."""
    by_file: dict[str, list[InstrumentationPoint]] = {}
    for p in select_instrumentation(pdb):
        by_file.setdefault(p.file_name, []).append(p)
    return {
        file_name: instrument_file(
            file_name, text, by_file.get(file_name, []), profile_group
        )
        for file_name, text in sources.items()
    }


def instrument_file(
    file_name: str,
    text: str,
    points: list[InstrumentationPoint],
    profile_group: str = "TAU_USER",
) -> InstrumentedSource:
    """Apply the instrumentation points that target ``file_name``."""
    insertions: list[Insertion] = []
    lines = text.splitlines()
    for p in points:
        if p.file_name != file_name:
            continue
        body = _body_begin(p)
        if body is None:
            continue
        brace = _find_open_brace(lines, body[0], body[1])
        if brace is None:
            continue
        macro = (
            f' TAU_PROFILE("{p.timer_name()}", {p.type_argument()}, {profile_group});'
        )
        insertions.append(Insertion(brace[0], brace[1], macro, p.timer_name()))
    new_text = _apply_insertions(text, insertions)
    if insertions:
        new_text = '#include "TAU.h"\n' + new_text
    return InstrumentedSource(
        file_name=file_name, original=text, text=new_text, insertions=insertions
    )


def _body_begin(p: InstrumentationPoint):
    item = p.item
    if isinstance(item, (PdbRoutine, PdbTemplate)):
        loc = item.bodyBegin()
        if loc.known or loc.line():
            return (loc.line(), loc.col())
    return None


def _find_open_brace(lines: list[str], line: int, col: int):
    """First ``{`` at or after (line, col) in the file's ``lines``;
    returns its (line, col) or None.  Needed because a constructor's
    body extent begins at the initialiser-list ``:``."""
    if not (1 <= line <= len(lines)):
        return None
    idx = lines[line - 1].find("{", max(0, col - 1))
    if idx >= 0:
        return (line, idx + 1)
    for ln in range(line + 1, len(lines) + 1):
        idx = lines[ln - 1].find("{")
        if idx >= 0:
            return (ln, idx + 1)
    return None


def _apply_insertions(text: str, insertions: list[Insertion]) -> str:
    """Insert macro texts right after their braces, last position first
    so earlier coordinates stay valid."""
    lines = text.splitlines(keepends=True)
    for ins in sorted(insertions, key=lambda i: (i.line, i.column), reverse=True):
        if not (1 <= ins.line <= len(lines)):
            continue
        s = lines[ins.line - 1]
        cut = ins.column  # column is 1-based and points at "{"
        lines[ins.line - 1] = s[:cut] + ins.text + s[cut:]
    return "".join(lines)
