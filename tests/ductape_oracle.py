"""Per-call DUCTAPE resolution: the reference the program graph is held to.

Every query here resolves its cross-references from the raw records on
each call, the way DUCTAPE did before wrappers memoised them and the PDB
built one program graph: ``callees``/``call``/``location`` re-read the
``rcall`` and location words (split by the reader oracle,
``tests/reader_oracle.py``, not through the item's key index), ``callers_of``/``derived_of`` scan every
routine or class, and the class walk and Figure 5 print recurse.  Only
:meth:`PDB.item` (the id index) is shared with the code under test.  It
lives here as a test oracle only (``tests/test_ductape_graph.py``,
``tests/tau_oracle.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.ductape.items import ACTIVE, INACTIVE, PdbClass, PdbLoc, PdbRoutine, PdbSimpleItem
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import ItemRef

from tests.reader_oracle import attributes_regex


def _resolve(item: PdbSimpleItem, word: str):
    ref = ItemRef.parse(word)
    return None if ref is None else item._pdb.item(ref)


def _words(item: PdbSimpleItem, key: str) -> list[list[str]]:
    """The words of each ``key`` line of ``item``, in order."""
    return [a.words for a in attributes_regex(item.raw) if a.key == key]


def _loc(item: PdbSimpleItem, words: list[str]) -> PdbLoc:
    if len(words) < 3 or words[0] == "NULL":
        return PdbLoc(None, 0, 0)
    return PdbLoc(_resolve(item, words[0]), int(words[1]), int(words[2]))


class OracleCall:
    """One ``rcall`` record, resolved anew on every accessor call."""

    def __init__(self, owner: PdbRoutine, words: list[str]):
        self._owner = owner
        self._words = words

    def call(self) -> Optional[PdbRoutine]:
        return _resolve(self._owner, self._words[0])

    def isVirtual(self) -> bool:
        return len(self._words) > 1 and self._words[1] == "virt"

    def location(self) -> PdbLoc:
        return _loc(self._owner, self._words[2:5])


def oracle_callees(r: PdbRoutine) -> list[OracleCall]:
    return [OracleCall(r, words) for words in _words(r, "rcall")]


def call_site(call) -> Optional[tuple[str, int]]:
    """(file name, line) of a call, as TAU's site trip counts key it."""
    loc = call.location()
    if not loc.known:
        return None
    return (loc.file().name(), loc.line())


def location(item) -> PdbLoc:
    found = _words(item, item._loc_key)
    return _loc(item, found[0] if found else [])


def ref_attr(item, key: str):
    found = _words(item, key)
    if not found or not found[0] or found[0][0] == "NULL":
        return None
    return _resolve(item, found[0][0])


def signature(r: PdbRoutine):
    return ref_attr(r, "rsig")


def template(item):
    return ref_attr(item, item._templ_key)


def base_classes(c: PdbClass) -> list[tuple[str, bool, PdbClass]]:
    out = []
    for words in _words(c, "cbase"):
        if len(words) < 3:
            continue
        base = _resolve(c, words[2])
        if base is not None:
            out.append((words[0], words[1] == "virt", base))
    return out


def _routines(pdb: PDB) -> list[PdbRoutine]:
    return [pdb.item(raw.ref) for raw in pdb.doc.items if raw.prefix == "ro"]


def _classes(pdb: PDB) -> list[PdbClass]:
    return [pdb.item(raw.ref) for raw in pdb.doc.items if raw.prefix == "cl"]


def callers_of(pdb: PDB, routine: PdbRoutine) -> list[PdbRoutine]:
    """Each routine with a call that resolves to ``routine``, once."""
    return [
        r for r in _routines(pdb) if any(c.call() is routine for c in oracle_callees(r))
    ]


def derived_of(pdb: PDB, cls: PdbClass) -> list[PdbClass]:
    return [
        c for c in _classes(pdb) if any(base is cls for _, _, base in base_classes(c))
    ]


def call_tree_roots(pdb: PDB) -> list[PdbRoutine]:
    called = {
        c.call().ref
        for r in _routines(pdb)
        for c in oracle_callees(r)
        if c.call() is not None
    }
    return [r for r in _routines(pdb) if r.ref not in called]


def class_roots(pdb: PDB) -> list[PdbClass]:
    return [c for c in _classes(pdb) if not base_classes(c)]


def class_walk(pdb: PDB, root: PdbClass, depth: int = 0, seen=None):
    """``ClassHierarchy.walk`` as the recursive generator it was."""
    seen = set() if seen is None else seen
    yield root, depth
    if root.ref in seen:
        return
    seen.add(root.ref)
    for d in derived_of(pdb, root):
        yield from class_walk(pdb, d, depth + 1, seen)


def print_func_tree(r: PdbRoutine, level: int, out: list[str]) -> None:
    """pdbtree's Figure 5 port as the recursive function it was."""
    r.flag(ACTIVE)
    for it in oracle_callees(r):
        rr = it.call()
        if rr is None:
            continue
        if level != 0 or len(oracle_callees(rr)) > 0:
            line = " " * max(0, (level - 1) * 5)
            if level:
                line += "`--> "
            line += rr.fullName()
            if it.isVirtual():
                line += " (VIRTUAL)"
            if rr.flag() == ACTIVE:
                out.append(line + " ... ")
            else:
                out.append(line)
                print_func_tree(rr, level + 1, out)
    r.flag(INACTIVE)
