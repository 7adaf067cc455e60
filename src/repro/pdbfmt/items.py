"""Raw PDB item records — the document model under DUCTAPE.

An item stores its attribute lines and nothing else: the reader fills
them, the analyzer appends to them (``RawItem.add``), the merge copies
them with refs rewritten, and the writer emits them in order, making
write→parse→write a fixed point (property-tested).  Attributes keep
their values as word lists / text in a read-only view built on the
first query; the typed view is DUCTAPE's job.
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


class Attribute:
    """One attribute line, read: key + value words (or verbatim text).

    A view of one line of its :class:`RawItem`, built by
    :func:`~repro.pdbfmt.reader.materialize_attrs`.  The word list is
    held unsplit (``_rest``) and split on first :attr:`words` access —
    most consumers touch only a few keys per item, so a query stops
    paying for the rest."""

    __slots__ = ("key", "text", "_words", "_rest")

    def __init__(
        self, key: str, words: Optional[list[str]] = None, text: Optional[str] = None
    ):
        self.key = key
        self.text = text  # for "text"-grammar attributes
        self._words = [] if words is None else words
        self._rest = None

    @property
    def words(self) -> list[str]:
        w = self._words
        if w is None:
            w = self._words = self._rest.split()
        return w

    def __eq__(self, other: object):
        if other.__class__ is not Attribute:
            return NotImplemented
        return (
            self.key == other.key
            and self.text == other.text
            and self.words == other.words
        )

    def __repr__(self) -> str:
        return f"Attribute(key={self.key!r}, words={self.words!r}, text={self.text!r})"


class RawItem:
    """One PDB item: ``<prefix>#<id> <name>`` plus attribute lines.

    The attribute lines (:attr:`lines`) are the item's one stored form:
    the reader fills them, :meth:`add`/:meth:`add_text` append to them,
    and the merge and the writer read them.  :attr:`attributes` is a
    read-only view of them, built on the first query together with the
    key index behind :meth:`get`, and dropped by the next append.  An
    item no tool queries never builds an :class:`Attribute`."""

    #: the attribute view and its key index, built on the first query
    _attrs: Optional[tuple] = None
    _index: Optional[dict] = None

    def __init__(self, prefix: str, id: int, name: str, lines: Optional[list[str]] = None):
        self.prefix = prefix
        self.id = id
        self.name = name
        self.lines: list[str] = [] if lines is None else lines

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        attrs = self._attrs
        return attrs if attrs is not None else self._materialize()[0]

    def _materialize(self) -> tuple:
        """Build and cache the attribute view and its key index."""
        # deferred import: the reader already imports this module
        from repro.pdbfmt.reader import materialize_attrs

        attrs = self._attrs = tuple(materialize_attrs(self.prefix, self.lines))
        index: dict = {}
        for a in attrs:
            index.setdefault(a.key, []).append(a)
        self._index = index
        return attrs, index

    def __eq__(self, other: object):
        if other.__class__ is not RawItem:
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.id == other.id
            and self.name == other.name
            and self.attributes == other.attributes
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
        if self._attrs is not None:
            self._attrs = self._index = None
        return self

    def add_text(self, key: str, text: str) -> "RawItem":
        self.lines.append(f"{key} {text}".rstrip())
        if self._attrs is not None:
            self._attrs = self._index = None
        return self

    def get(self, key: str) -> Optional[Attribute]:
        index = self._index
        if index is None:
            index = self._materialize()[1]
        found = index.get(key)
        return found[0] if found else None

    def get_all(self, key: str) -> list[Attribute]:
        index = self._index
        if index is None:
            index = self._materialize()[1]
        return list(index.get(key, ()))

    def first_word(self, key: str) -> Optional[str]:
        a = self.get(key)
        if a is None:
            return None
        if a.text is not None:
            return a.text.split()[0] if a.text.split() else None
        return a.words[0] if a.words else None

    def get_ref(self, key: str) -> Optional[ItemRef]:
        w = self.first_word(key)
        if w is None or w == "NULL":
            return None
        return ItemRef.parse(w)

    def get_location(self, key: str) -> Optional[PdbLocation]:
        a = self.get(key)
        if a is None or len(a.words) < 3:
            return None
        return PdbLocation(ItemRef.parse(a.words[0]), int(a.words[1]), int(a.words[2]))

    def get_positions(self, key: str) -> Optional[list[PdbLocation]]:
        """``*pos`` attributes hold four locations: header begin/end then
        body begin/end."""
        a = self.get(key)
        if a is None:
            return None
        locs: list[PdbLocation] = []
        w = a.words
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
