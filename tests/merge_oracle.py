"""The left-fold merge: the reference the single-pass merge is held to.

``fold`` merges inputs the way ``pdbmerge`` did before the single pass:
a deep copy of the first input, then one pairwise merge per later input,
each of which re-keys the whole accumulator.  Quadratic, so it lives
here as a test oracle only (``tests/test_merge_differential.py``,
``tests/test_merge_tree.py``, the E19 merge gate).

The oracle keys and copies items through the reader oracle's eager
split of their lines (``tests/reader_oracle.py``), not through the
item's key index or ``normal_lines``: a copy is rebuilt attribute by
attribute with ``add``/``add_text``, each ref word rewritten on its
own.  ``_item_key`` and its helpers are the merge's key as it stood
before the merge read attribute lines, so a differential run tests the
line-reading key as well.
"""

from __future__ import annotations

from typing import Optional

from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import ItemRef, PdbDocument, RawItem

from tests.reader_oracle import attributes_regex


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
        self_keys[_item_key(self_index, raw, _first(raw))] = raw
    remap: dict[str, str] = {}
    counters: dict[str, int] = {}
    for raw in doc.items:
        counters[raw.prefix] = max(counters.get(raw.prefix, 0), raw.id)
    pending: list[tuple] = []
    for raw in other.items:
        attrs = _first(raw)
        key = _item_key(other_index, raw, attrs)
        existing = self_keys.get(key)
        if existing is not None:
            remap[str(raw.ref)] = str(existing.ref)
            stats.duplicates_eliminated += 1
            if raw.prefix in ("cl", "ro") and ("ctempl" if raw.prefix == "cl" else "rtempl") in attrs:
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
    for a in attributes_regex(raw):
        if a.text is not None:
            item.add_text(a.key, a.text)
        else:
            item.add(a.key, *[remap.get(w, w) for w in a.words])
    return item


def _first(raw: RawItem) -> dict:
    """``key ->`` the first attribute with that key, eagerly split."""
    attrs: dict = {}
    for a in attributes_regex(raw):
        attrs.setdefault(a.key, a)
    return attrs


def _first_word(attrs: dict, key: str) -> Optional[str]:
    a = attrs.get(key)
    if a is None:
        return None
    words = a.words if a.text is None else a.text.split()
    return words[0] if words else None


def _ref(attrs: dict, key: str) -> Optional[ItemRef]:
    word = _first_word(attrs, key)
    return None if word is None or word == "NULL" else ItemRef.parse(word)


def _item_key(index: dict, raw: RawItem, attrs: dict) -> tuple:
    """Identity key for merge deduplication.

    Two items from separate compilations are "the same entity" when their
    kind, name, and defining source position coincide — template
    instantiations share the template's definition position, so repeated
    ``Stack<int>`` subtrees collapse (the paper's headline merge feature).
    """
    loc_key = _loc_key(index, attrs)
    if raw.prefix == "so":
        return ("so", raw.name)
    if raw.prefix == "ty":
        return ("ty", raw.name, _parent_name(index, attrs, "yclass", "ynspace"))
    if raw.prefix == "ma":
        return ("ma", raw.name, loc_key)
    if raw.prefix == "ferr":
        # one record per distinct (file, position, message): re-merging
        # the same failed TU does not duplicate its error list
        a = attrs.get("fmsg")
        return ("ferr", raw.name, loc_key, a.text if a is not None else "")
    if raw.prefix == "na":
        return ("na", raw.name, _parent_name(index, attrs, "", "nnspace"))
    if raw.prefix == "te":
        return ("te", raw.name, loc_key, _first_word(attrs, "tkind"))
    if raw.prefix == "cl":
        return ("cl", raw.name, _parent_name(index, attrs, "cclass", "cnspace"), loc_key)
    if raw.prefix == "ro":
        sig = _ref(attrs, "rsig")
        sig_name = ""
        if sig is not None:
            sig_item = index.get(sig)
            sig_name = sig_item.name if sig_item is not None else ""
        return (
            "ro",
            raw.name,
            _parent_name(index, attrs, "rclass", "rnspace"),
            sig_name,
            loc_key,
        )
    return (raw.prefix, raw.name, loc_key)


def _loc_key(index: dict, attrs: dict) -> tuple:
    for key in ("rloc", "cloc", "tloc", "nloc", "maloc", "yloc", "floc"):
        a = attrs.get(key)
        if a is None or len(a.words) < 3:
            continue
        file, line, column = ItemRef.parse(a.words[0]), int(a.words[1]), int(a.words[2])
        if file is not None:
            f = index.get(file)
            return (f.name if f is not None else "?", line, column)
    return ()


def _parent_name(index: dict, attrs: dict, class_key: str, ns_key: str) -> str:
    for key in (class_key, ns_key):
        if not key:
            continue
        ref = _ref(attrs, key)
        if ref is not None:
            parent = index.get(ref)
            if parent is not None:
                return f"{ref.prefix}:{parent.name}"
    return ""
