"""Raw PDB item records — the document model under DUCTAPE.

An item stores its attribute lines and nothing else: the reader fills
them, the analyzer appends to them (``RawItem.add``), the merge copies
them with refs rewritten, and the writer emits them in order, making
write→parse→write a fixed point (property-tested).  Queries read the
lines through a key index built on the first one: a value is the text
after the key, and splitting it into words, or resolving its refs, is
the caller's job (DUCTAPE's typed view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass(frozen=True)
class ItemRef:
    """A ``so#66``-style reference to another item."""

    prefix: str
    id: int

    def __post_init__(self):
        # refs are dict keys everywhere (indices, caller maps, SCC
        # tables); precomputing the hash beats the generated
        # hash((prefix, id)) tuple build on every lookup
        object.__setattr__(self, "_hash", hash((self.prefix, self.id)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"{self.prefix}#{self.id}"

    @staticmethod
    def parse(text: str) -> Optional["ItemRef"]:
        ref = _REF_CACHE.get(text)
        if ref is not None:
            return ref
        if text == "NULL":
            return None
        # one spelling per ref (the one the merge rewrites): digits, no leading zero
        prefix, _, num = text.partition("#")
        if not (num.isascii() and num.isdigit()) or (num[0] == "0" and len(num) > 1):
            raise ValueError(f"not an item reference: {text!r}")
        ref = ItemRef(prefix, int(num))
        _REF_CACHE[text] = ref
        return ref


#: memo for :meth:`ItemRef.parse` — ref spellings repeat constantly
#: (every ``rcall``/``sinc``/``cbase`` word), and ItemRef is immutable
_REF_CACHE: dict = {}


@dataclass(frozen=True)
class PdbLocation:
    """``so#66 23 15`` — file reference, line, column.

    A missing location renders as ``NULL 0 0`` (paper Figure 3 shows this
    for an absent header-end position)."""

    file: Optional[ItemRef]
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        f = "NULL" if self.file is None else str(self.file)
        return f"{f} {self.line} {self.column}"

    @property
    def known(self) -> bool:
        return self.file is not None

    @staticmethod
    def null() -> "PdbLocation":
        return PdbLocation(None, 0, 0)


class RawItem:
    """One PDB item: ``<prefix>#<id> <name>`` plus attribute lines.

    The attribute lines (:attr:`lines`) are the item's one stored form:
    the reader fills them, :meth:`add`/:meth:`add_text` append to them,
    and the merge and the writer read them.  Every query reads them
    through one key index, built on the first query and dropped by the
    next append; an item no tool queries never builds one.  A value is
    a string: callers that want its words split it."""

    #: the key index behind every query, built on the first one
    _index: Optional[dict] = None

    def __init__(self, prefix: str, id: int, name: str, lines: Optional[list[str]] = None):
        self.prefix = prefix
        self.id = id
        self.name = name
        self.lines: list[str] = [] if lines is None else lines

    def _values(self) -> dict:
        """The key index: ``key -> value texts`` in line order, a line's
        key being its text before the first space and its value the
        rest, verbatim."""
        index = self._index
        if index is None:
            index = self._index = {}
            for line in self.lines:
                key, _, value = line.partition(" ")
                values = index.get(key)
                if values is None:
                    index[key] = [value]
                else:
                    values.append(value)
        return index

    def __eq__(self, other: object):
        if other.__class__ is not RawItem:
            return NotImplemented
        # deferred import: the reader already imports this module
        from repro.pdbfmt.reader import normal_lines

        return (
            self.prefix == other.prefix
            and self.id == other.id
            and self.name == other.name
            and normal_lines(self.prefix, self.lines) == normal_lines(other.prefix, other.lines)
        )

    def __repr__(self) -> str:
        return (
            f"RawItem(prefix={self.prefix!r}, id={self.id!r}, "
            f"name={self.name!r}, lines={self.lines!r})"
        )

    @property
    def ref(self) -> ItemRef:
        # cached: ids never mutate (merge clones instead of renumbering);
        # the spelling memo shares one ref per spelling, and its probe is
        # cheaper than building a frozen dataclass per item
        r = self.__dict__.get("_ref")
        if r is None:
            r = self.__dict__["_ref"] = ItemRef.parse(f"{self.prefix}#{self.id}")
        return r

    def add(self, key: str, *words: object) -> "RawItem":
        self.lines.append(" ".join([key, *map(str, words)]))
        if self._index is not None:
            self._index = None
        return self

    def add_text(self, key: str, text: str) -> "RawItem":
        self.lines.append(f"{key} {text}".rstrip())
        if self._index is not None:
            self._index = None
        return self

    def get(self, key: str) -> Optional[str]:
        """The value text of the first ``key`` line, or None."""
        index = self._index
        if index is None:  # the hottest read: no call once the index exists
            index = self._values()
        values = index.get(key)
        return values[0] if values else None

    def get_all(self, key: str) -> list[str]:
        """The value texts of every ``key`` line, in order (a fresh list)."""
        return list(self._values().get(key, ()))

    def first_word(self, key: str) -> Optional[str]:
        value = self.get(key)
        if value is None:
            return None
        words = value.split(None, 1)
        return words[0] if words else None

    def get_ref(self, key: str) -> Optional[ItemRef]:
        w = self.first_word(key)
        if w is None or w == "NULL":
            return None
        return ItemRef.parse(w)

    def get_location(self, key: str) -> Optional[PdbLocation]:
        value = self.get(key)
        if value is None:
            return None
        w = value.split()
        if len(w) < 3:
            return None
        return PdbLocation(ItemRef.parse(w[0]), int(w[1]), int(w[2]))

    def get_positions(self, key: str) -> Optional[list[PdbLocation]]:
        """``*pos`` attributes hold four locations: header begin/end then
        body begin/end."""
        value = self.get(key)
        if value is None:
            return None
        locs: list[PdbLocation] = []
        w = value.split()
        for i in range(0, len(w) - 2, 3):
            locs.append(PdbLocation(ItemRef.parse(w[i]), int(w[i + 1]), int(w[i + 2])))
        return locs


@dataclass
class PdbDocument:
    """A complete PDB: version header + items in file order."""

    version: str = "1.0"
    items: list[RawItem] = field(default_factory=list)

    def add(self, item: RawItem) -> RawItem:
        self.items.append(item)
        return item

    def by_prefix(self, prefix: str) -> list[RawItem]:
        return [i for i in self.items if i.prefix == prefix]

    def find(self, ref: ItemRef) -> Optional[RawItem]:
        for i in self.items:
            if i.prefix == ref.prefix and i.id == ref.id:
                return i
        return None

    def index(self) -> dict[ItemRef, RawItem]:
        return {i.ref: i for i in self.items}

    def __iter__(self) -> Iterator[RawItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)
