"""The PDB class: an entire program database (paper Section 3.3).

"It provides methods to read, write, and merge PDB files, and to get the
source file inclusion tree, the static call tree, and the class
hierarchy.  It provides a list of all items contained in the PDB file as
well as lists of all defined types, files, classes, routines, templates,
macros, and namespaces."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ductape.graph import ProgramGraph
from repro.ductape.items import (
    ITEM_CLASSES,
    PdbClass,
    PdbFerr,
    PdbFile,
    PdbMacro,
    PdbNamespace,
    PdbRoutine,
    PdbSimpleItem,
    PdbTemplate,
    PdbType,
)
from repro.pdbfmt.items import ItemRef, PdbDocument, RawItem
from repro.pdbfmt.reader import normal_lines, parse_pdb
from repro.pdbfmt.writer import write_pdb


@dataclass
class MergeStats:
    """Outcome of merging one input (:meth:`PdbMerger.add`)."""

    items_in: int = 0
    items_added: int = 0
    duplicates_eliminated: int = 0
    duplicate_instantiations: int = 0

    def __iadd__(self, other: "MergeStats") -> "MergeStats":
        self.items_in += other.items_in
        self.items_added += other.items_added
        self.duplicates_eliminated += other.duplicates_eliminated
        self.duplicate_instantiations += other.duplicate_instantiations
        return self


class PDB:
    """An entire PDB file, with navigation and merge support."""

    def __init__(self, doc: Optional[PdbDocument] = None):
        self.doc = doc or PdbDocument()
        #: wrappers materialised on first access, keyed by ItemRef —
        #: loading a database costs only the raw id index; tools that
        #: touch one routine never pay for the other thousand wrappers
        self._wrappers: dict[ItemRef, PdbSimpleItem] = {}
        self._raw: dict[str, dict[int, RawItem]] = {}
        self._reindex()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "PDB":
        return cls(parse_pdb(text))

    @classmethod
    def read(cls, path: str) -> "PDB":
        with open(path) as f:
            return cls.from_text(f.read())

    @classmethod
    def from_il(cls, tree) -> "PDB":
        """Convenience: run the IL Analyzer and wrap the result."""
        from repro.analyzer import analyze

        return cls(analyze(tree))

    def _reindex(self) -> None:
        """Rebuild the raw id index and drop materialised wrappers, the
        item vectors and the program graph (all hold resolved
        cross-references, which merge can invalidate).  Deliberately
        cheap: no ItemRef, wrapper or graph is created here — each
        happens lazily on first access."""
        self._wrappers.clear()
        #: prefix -> items in file order, built on the first _vec call
        self._vecs: dict[str, list] = {}
        #: prefix -> name -> item, built on the first find* lookup
        self._by_name: dict[str, dict[str, PdbSimpleItem]] = {}
        #: the program graph, built on the first :attr:`graph` access
        self._graph: Optional[ProgramGraph] = None
        raw_index: dict[str, dict[int, RawItem]] = {}
        for raw in self.doc.items:
            sub = raw_index.get(raw.prefix)
            if sub is None:
                sub = raw_index[raw.prefix] = {}
            sub[raw.id] = raw
        self._raw = raw_index

    # -- output ------------------------------------------------------------

    def to_text(self) -> str:
        return write_pdb(self.doc)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_text())

    # -- lookup -------------------------------------------------------------

    def item(self, ref: ItemRef) -> Optional[PdbSimpleItem]:
        if ref is None:
            return None
        w = self._wrappers.get(ref)
        if w is None:
            sub = self._raw.get(ref.prefix)
            raw = sub.get(ref.id) if sub is not None else None
            if raw is None:
                return None
            w = ITEM_CLASSES.get(ref.prefix, PdbSimpleItem)(self, raw)
            self._wrappers[ref] = w
        return w

    def items(self) -> list[PdbSimpleItem]:
        item = self.item
        return [item(raw.ref) for raw in self.doc.items]

    def _vec(self, prefix: str) -> list:
        vec = self._vecs.get(prefix)
        if vec is None:
            item = self.item
            vec = self._vecs[prefix] = [
                item(raw.ref) for raw in self.doc.items if raw.prefix == prefix
            ]
        return list(vec)

    def getFileVec(self) -> list[PdbFile]:
        return self._vec("so")

    def getRoutineVec(self) -> list[PdbRoutine]:
        return self._vec("ro")

    def getClassVec(self) -> list[PdbClass]:
        return self._vec("cl")

    def getTypeVec(self) -> list[PdbType]:
        return self._vec("ty")

    def getTemplateVec(self) -> list[PdbTemplate]:
        return self._vec("te")

    def getNamespaceVec(self) -> list[PdbNamespace]:
        return self._vec("na")

    def getMacroVec(self) -> list[PdbMacro]:
        return self._vec("ma")

    def getErrorVec(self) -> list[PdbFerr]:
        """All frontend error records (``ferr``), in file order."""
        return self._vec("ferr")

    def errors_of(self, f: PdbFile) -> list[PdbFerr]:
        """The ``ferr`` records whose diagnostics point into ``f``."""
        return [e for e in self.getErrorVec() if e.file() is f]

    def _find(self, prefix: str, name: str) -> Optional[PdbSimpleItem]:
        """The first ``prefix`` item in file order whose full name or
        name is ``name``."""
        index = self._by_name.get(prefix)
        if index is None:
            index = self._by_name[prefix] = {}
            for item in self._vec(prefix):
                index.setdefault(item.fullName(), item)
                index.setdefault(item.name(), item)
        return index.get(name)

    def findRoutine(self, full_name: str) -> Optional[PdbRoutine]:
        return self._find("ro", full_name)

    def findClass(self, name: str) -> Optional[PdbClass]:
        return self._find("cl", name)

    # -- derived structure queries ----------------------------------------------

    @property
    def graph(self) -> ProgramGraph:
        """The static call graph and class hierarchy, built on first
        access and shared by every caller until the next merge."""
        if self._graph is None:
            self._graph = ProgramGraph(self)
        return self._graph

    def callers_of(self, routine: PdbRoutine) -> list[PdbRoutine]:
        """The routines that call ``routine``, each once, in file order."""
        return list(self.graph.callers.get(routine, ()))

    def derived_of(self, cls: PdbClass) -> list[PdbClass]:
        """The direct subclasses of ``cls``, in file order."""
        return list(self.graph.derived.get(cls, ()))

    def getInclusionTree(self):
        from repro.ductape.inclusion import InclusionTree

        return InclusionTree(self)

    def getCallTree(self):
        from repro.ductape.callgraph import CallTree

        return CallTree(self)

    def getClassHierarchy(self):
        from repro.ductape.classhier import ClassHierarchy

        return ClassHierarchy(self)

    # -- merge ------------------------------------------------------------------

    def merge(self, other: "PDB") -> MergeStats:
        """Merge ``other`` into this PDB, eliminating duplicate items —
        in particular duplicate template instantiations from separate
        compilations (paper Table 2, pdbmerge).  The two-input case of
        :class:`PdbMerger`."""
        stats = PdbMerger(self.doc).add(other.doc)
        self._reindex()
        return stats


class _RefIndex(dict):
    """``ref -> item`` index whose :meth:`get` notes refs it lacks.

    An identity key computed while a ref dangled can change once an item
    with that ref joins the merge, so :class:`PdbMerger` re-keys the
    items whose keys saw a miss."""

    missed = False

    def get(self, ref, default=None):
        item = dict.get(self, ref, default)
        if item is None:
            self.missed = True
        return item


class PdbMerger:
    """Single-pass k-way merge: appends inputs, in order, to ``doc``.

    ``doc`` is kept verbatim, duplicates included (for those, the last
    item holding a key is the one later inputs merge into).  Each
    :meth:`add` keys the incoming items once, against the input's own
    index, probes one global ``key -> ref`` table, and appends the new
    items under running per-prefix ids with their ref words rewritten;
    a later duplicate of an item of the same input merges into the
    first.  Identity keys depend only on names (kind, parent name,
    signature name, file name + position), and a rewritten ref names an
    item with the same prefix and name, so an appended item keeps its
    key: the result is byte-identical to folding the inputs left to
    right with pairwise merges, which re-key the whole accumulator for
    every input.  The one exception is an item whose key saw a ref that
    resolves nowhere; those are re-keyed before every input, and the
    table rebuilt if any key moved.

    The merge works on attribute lines (:attr:`RawItem.lines`): a key
    reads the few values it needs through its item's key index if a
    query already built one, else through a throwaway twin of the item
    (:func:`_key_view`), so the index it builds dies with the twin; an
    appended item holds its source's lines with the ref words
    rewritten.  The merge builds no key index on any item it emits.

    The merge only deduplicates.  Two *different* definitions of one
    entity keep distinct keys and both survive, for the ``odr`` check
    (:mod:`repro.check.odr`) to report on the merged result.  Existing
    items are never mutated, so an input stays unmodified.
    """

    def __init__(self, doc: PdbDocument):
        self.doc = doc
        self._index = _RefIndex((raw.ref, raw) for raw in doc.items)
        self._counters: dict[str, int] = {}
        for raw in doc.items:
            if raw.id > self._counters.get(raw.prefix, 0):
                self._counters[raw.prefix] = raw.id
        self._key_all()

    def _key_all(self) -> None:
        """Key every item of ``doc`` against the merged index."""
        index = self._index
        #: identity key -> the ``prefix#id`` spelling of its item
        self._keys: dict[tuple, str] = {}
        #: (item, key) for the items whose keys saw a miss
        self._dangling: list[tuple] = []
        for raw in self.doc.items:
            index.missed = False
            key = _item_key(index, _key_view(raw))
            self._keys[key] = str(raw.ref)
            if index.missed:
                self._dangling.append((raw, key))

    def _rekey(self) -> None:
        """Re-key the items whose keys saw a dangling ref; if any key
        moved, rebuild the table as the fold's re-keying would."""
        index = self._index
        moved = False
        still = []
        for raw, key in self._dangling:
            index.missed = False
            now = _item_key(index, _key_view(raw))
            moved = moved or now != key
            if index.missed:
                still.append((raw, now))
        if moved:
            self._key_all()
        else:
            self._dangling = still

    def add(self, other: PdbDocument) -> MergeStats:
        """Append ``other``'s new items to ``doc``; returns its stats."""
        if self._dangling:
            self._rekey()
        stats = MergeStats(items_in=len(other.items))
        index = _RefIndex((raw.ref, raw) for raw in other.items)
        keys = self._keys
        counters = self._counters
        remap: dict[str, str] = {}
        pending: list[tuple] = []
        for raw in other.items:
            index.missed = False
            view = _key_view(raw)
            key = _item_key(index, view)
            existing = keys.get(key)
            if existing is not None:
                remap[str(raw.ref)] = existing
                stats.duplicates_eliminated += 1
                prefix = raw.prefix
                if prefix in ("cl", "ro") and (
                    view.get("ctempl" if prefix == "cl" else "rtempl") is not None
                ):
                    stats.duplicate_instantiations += 1
                continue
            new_id = counters[raw.prefix] = counters.get(raw.prefix, 0) + 1
            keys[key] = remap[str(raw.ref)] = f"{raw.prefix}#{new_id}"
            pending.append((raw, new_id, key, index.missed))
            stats.items_added += 1
        # remap keys are exactly the ``prefix#id`` spellings of incoming
        # refs, so a plain dict probe rewrites every ref word and passes
        # every other word through
        merged_index = self._index
        items = self.doc.items
        for raw, new_id, key, missed in pending:
            lines = normal_lines(raw.prefix, raw.lines, remap)
            clone = RawItem(raw.prefix, new_id, raw.name, lines)
            items.append(clone)
            merged_index[clone.ref] = clone
            if missed:
                self._dangling.append((clone, key))
        return stats


#: attributes whose location can place an item, in the order tried
_LOC_KEYS = ("rloc", "cloc", "tloc", "nloc", "maloc", "yloc", "floc")


def _key_view(raw: RawItem) -> RawItem:
    """``raw`` itself when it already has a key index, else a throwaway
    twin over the same lines, so the key reads leave no index behind."""
    if raw._index is not None:
        return raw
    return RawItem(raw.prefix, raw.id, raw.name, raw.lines)


def _item_key(index: dict, raw: RawItem) -> tuple:
    """Identity key for merge deduplication.

    Two items from separate compilations are "the same entity" when their
    kind, name, and defining source position coincide — template
    instantiations share the template's definition position, so repeated
    ``Stack<int>`` subtrees collapse (the paper's headline merge feature).
    """
    prefix = raw.prefix
    if prefix == "so":
        return ("so", raw.name)
    if prefix == "ty":
        return ("ty", raw.name, _parent_name(index, raw, "yclass", "ynspace"))
    if prefix == "na":
        return ("na", raw.name, _parent_name(index, raw, "nnspace"))
    loc_key = _loc_key(index, raw)
    if prefix == "ma":
        return ("ma", raw.name, loc_key)
    if prefix == "ferr":
        # one record per distinct (file, position, message): re-merging
        # the same failed TU does not duplicate its error list
        return ("ferr", raw.name, loc_key, raw.get("fmsg") or "")
    if prefix == "te":
        return ("te", raw.name, loc_key, raw.first_word("tkind"))
    if prefix == "cl":
        return ("cl", raw.name, _parent_name(index, raw, "cclass", "cnspace"), loc_key)
    if prefix == "ro":
        sig = raw.get_ref("rsig")
        sig_name = ""
        if sig is not None:
            sig_item = index.get(sig)
            sig_name = sig_item.name if sig_item is not None else ""
        return (
            "ro",
            raw.name,
            _parent_name(index, raw, "rclass", "rnspace"),
            sig_name,
            loc_key,
        )
    return (prefix, raw.name, loc_key)


def _loc_key(index: dict, raw: RawItem) -> tuple:
    """(file name, line, column) of the first location attribute that
    names a file, else ``()``."""
    for key in _LOC_KEYS:
        value = raw.get(key)
        if value is None:
            continue
        words = value.split()
        if len(words) < 3:
            continue
        file, line, column = ItemRef.parse(words[0]), int(words[1]), int(words[2])
        if file is not None:
            f = index.get(file)
            return (f.name if f is not None else "?", line, column)
    return ()


def _parent_name(index: dict, raw: RawItem, *keys: str) -> str:
    for key in keys:
        ref = raw.get_ref(key)
        if ref is not None:
            parent = index.get(ref)
            if parent is not None:
                return f"{ref.prefix}:{parent.name}"
    return ""
