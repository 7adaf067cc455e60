"""The left-fold merge: the reference the single-pass merge is held to.

``fold`` merges inputs the way ``pdbmerge`` did before the single pass:
a deep copy of the first input, then one pairwise merge per later input,
each of which re-keys the whole accumulator.  Quadratic, so it lives
here as a test oracle only (``tests/test_merge_differential.py``,
``tests/test_merge_tree.py``, the E19 merge gate).

The oracle keys and copies items through their :class:`Attribute`
objects (``get_location``, ``get_ref``, ``_copy``), the way the merge
did before it read attribute lines: a copy is rebuilt attribute by
attribute with ``add``/``add_text``, each ref word rewritten on its
own.  ``_item_key`` and its helpers are
that merge's key, kept verbatim, so a differential run tests the
line-reading key as well.
"""

from __future__ import annotations

from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import PdbDocument, RawItem


def fold(pdbs: list[PDB]) -> tuple[PDB, list[MergeStats]]:
    """Fold ``pdbs`` left to right into a fresh PDB; inputs stay unmodified."""
    if not pdbs:
        return PDB(), []
    base = PdbDocument(version=pdbs[0].doc.version)
    for raw in pdbs[0].doc.items:
        base.items.append(_copy(raw, raw.id, {}))
    stats = [pair_merge(base, other.doc) for other in pdbs[1:]]
    return PDB(base), stats


def pair_merge(doc: PdbDocument, other: PdbDocument) -> MergeStats:
    """Merge ``other`` into ``doc`` (the pairwise merge the fold applies)."""
    stats = MergeStats(items_in=len(other.items))
    self_index = doc.index()
    other_index = other.index()
    self_keys: dict[tuple, RawItem] = {}
    for raw in doc.items:
        self_keys[_item_key(self_index, raw)] = raw
    remap: dict[str, str] = {}
    counters: dict[str, int] = {}
    for raw in doc.items:
        counters[raw.prefix] = max(counters.get(raw.prefix, 0), raw.id)
    pending: list[tuple] = []
    for raw in other.items:
        key = _item_key(other_index, raw)
        existing = self_keys.get(key)
        if existing is not None:
            remap[str(raw.ref)] = str(existing.ref)
            stats.duplicates_eliminated += 1
            if raw.prefix in ("cl", "ro") and raw.get("ctempl" if raw.prefix == "cl" else "rtempl"):
                stats.duplicate_instantiations += 1
            continue
        counters[raw.prefix] = counters.get(raw.prefix, 0) + 1
        clone = RawItem(prefix=raw.prefix, id=counters[raw.prefix], name=raw.name)
        remap[str(raw.ref)] = str(clone.ref)
        pending.append((raw, clone.id))
        self_keys[key] = clone
        stats.items_added += 1
    # copied once every ref of ``other`` has its new spelling
    for raw, new_id in pending:
        doc.items.append(_copy(raw, new_id, remap))
    return stats


def _copy(raw: RawItem, new_id: int, remap: dict) -> RawItem:
    """An independent copy of ``raw`` as item ``new_id``, each value
    word ``w`` of a word-grammar attribute replaced by ``remap.get(w, w)``."""
    item = RawItem(prefix=raw.prefix, id=new_id, name=raw.name)
    for a in raw.attributes:
        if a.text is not None:
            item.add_text(a.key, a.text)
        else:
            item.add(a.key, *[remap.get(w, w) for w in a.words])
    return item


def _item_key(index: dict, raw: RawItem) -> tuple:
    """Identity key for merge deduplication.

    Two items from separate compilations are "the same entity" when their
    kind, name, and defining source position coincide — template
    instantiations share the template's definition position, so repeated
    ``Stack<int>`` subtrees collapse (the paper's headline merge feature).
    """
    loc_key = _loc_key(index, raw)
    if raw.prefix == "so":
        return ("so", raw.name)
    if raw.prefix == "ty":
        return ("ty", raw.name, _parent_name(index, raw, "yclass", "ynspace"))
    if raw.prefix == "ma":
        return ("ma", raw.name, loc_key)
    if raw.prefix == "ferr":
        # one record per distinct (file, position, message): re-merging
        # the same failed TU does not duplicate its error list
        a = raw.get("fmsg")
        return ("ferr", raw.name, loc_key, a.text if a is not None else "")
    if raw.prefix == "na":
        return ("na", raw.name, _parent_name(index, raw, "", "nnspace"))
    if raw.prefix == "te":
        return ("te", raw.name, loc_key, raw.first_word("tkind"))
    if raw.prefix == "cl":
        return ("cl", raw.name, _parent_name(index, raw, "cclass", "cnspace"), loc_key)
    if raw.prefix == "ro":
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
    return (raw.prefix, raw.name, loc_key)


def _loc_key(index: dict, raw: RawItem) -> tuple:
    for key in ("rloc", "cloc", "tloc", "nloc", "maloc", "yloc", "floc"):
        loc = raw.get_location(key)
        if loc is not None and loc.file is not None:
            f = index.get(loc.file)
            return (f.name if f is not None else "?", loc.line, loc.column)
    return ()


def _parent_name(index: dict, raw: RawItem, class_key: str, ns_key: str) -> str:
    for key in (class_key, ns_key):
        if not key:
            continue
        ref = raw.get_ref(key)
        if ref is not None:
            parent = index.get(ref)
            if parent is not None:
                return f"{ref.prefix}:{parent.name}"
    return ""
