"""The left-fold merge: the reference the single-pass merge is held to.

``fold`` merges inputs the way ``pdbmerge`` did before the single pass:
a deep copy of the first input, then one pairwise merge per later input,
each of which re-keys the whole accumulator.  Quadratic, so it lives
here as a test oracle only (``tests/test_merge_differential.py``,
``tests/test_merge_tree.py``, the E19 merge gate).
"""

from __future__ import annotations

from repro.ductape.pdb import PDB, MergeStats, _item_key
from repro.pdbfmt.items import PdbDocument, RawItem


def fold(pdbs: list[PDB]) -> tuple[PDB, list[MergeStats]]:
    """Fold ``pdbs`` left to right into a fresh PDB; inputs stay unmodified."""
    if not pdbs:
        return PDB(), []
    base = PdbDocument(version=pdbs[0].doc.version)
    for raw in pdbs[0].doc.items:
        item = RawItem(prefix=raw.prefix, id=raw.id, name=raw.name)
        for a in raw.attributes:
            item.attributes.append(a.clone())
        base.items.append(item)
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
    pending: list[RawItem] = []
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
        for a in raw.attributes:
            clone.attributes.append(a.clone())
        remap[str(raw.ref)] = str(clone.ref)
        pending.append(clone)
        self_keys[key] = clone
        stats.items_added += 1
    for clone in pending:
        for a in clone.attributes:
            a.words = [remap.get(w, w) for w in a.words]
        doc.items.append(clone)
    return stats
