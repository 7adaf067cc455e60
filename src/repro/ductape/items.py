"""DUCTAPE item classes — the hierarchy of paper Figure 4.

Wrappers over :class:`repro.pdbfmt.items.RawItem` records.  A wrapper
reads its record's value texts through the record's key index
(``get``/``get_all``, ``first_word``/``get_ref``) and splits a value
into words itself.  The cross-item references the tools follow over
and over — single refs (``_ref_attr``: parents, signature, template),
body positions and the qualified name — resolve on first touch and are
memoised on the wrapper, so each resolves once per :class:`PDB`;
resolved calls, callers, derived classes and roots live in the PDB's
lazily built program graph (:class:`~repro.ductape.graph.ProgramGraph`).
``PDB._reindex`` (run by merge) drops the wrappers and the graph.  A
list-valued query returns a fresh list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.pdbfmt.items import ItemRef, RawItem

if TYPE_CHECKING:  # pragma: no cover
    from repro.ductape.pdb import PDB

#: routine flag values used by tools walking the call graph (Figure 5)
INACTIVE = 0
ACTIVE = 1


class PdbLoc:
    """A resolved source location: file object + line + column."""

    def __init__(self, file: Optional["PdbFile"], line: int, column: int):
        self._file = file
        self._line = line
        self._column = column

    def file(self) -> Optional["PdbFile"]:
        return self._file

    def line(self) -> int:
        return self._line

    def col(self) -> int:
        return self._column

    @property
    def known(self) -> bool:
        return self._file is not None

    def __str__(self) -> str:
        if self._file is None:
            return "<unknown>"
        return f"{self._file.name()}:{self._line}:{self._column}"


class PdbSimpleItem:
    """Root of the DUCTAPE hierarchy: a name and a PDB id."""

    def __init__(self, pdb: "PDB", raw: RawItem):
        self._pdb = pdb
        self._raw = raw
        self._flag = INACTIVE
        #: attribute key -> its parsed value: the item (``_ref_attr``)
        #: or the body positions; each key has one grammar, so it has
        #: one entry.  ``"fullName"`` (no attribute key) holds the
        #: qualified name.
        self._memo: dict = {}

    def name(self) -> str:
        return self._raw.name

    def id(self) -> int:
        return self._raw.id

    def prefix(self) -> str:
        return self._raw.prefix

    @property
    def ref(self) -> ItemRef:
        return self._raw.ref

    @property
    def raw(self) -> RawItem:
        return self._raw

    def flag(self, value: Optional[int] = None) -> int:
        """Get or set the traversal flag (pdbtree's cycle marker)."""
        if value is not None:
            self._flag = value
        return self._flag

    def fullName(self) -> str:
        return self.name()

    # -- raw-attribute helpers shared by subclasses -------------------------

    def _resolve(self, ref: Optional[ItemRef]):
        if ref is None:
            return None
        return self._pdb.item(ref)

    def _ref_attr(self, key: str):
        """The item the first ``key`` line names (None if absent or
        dangling)."""
        memo = self._memo
        if key not in memo:
            memo[key] = self._resolve(self._raw.get_ref(key))
        return memo[key]

    def _ref_list(self, key: str) -> list:
        """The items the ``key`` lines name, in order, dangling refs left
        out."""
        resolved = (self._resolve(ItemRef.parse(v.split()[0])) for v in self._raw.get_all(key))
        return [x for x in resolved if x is not None]

    def _loc_from_words(self, words: list[str]) -> PdbLoc:
        if len(words) < 3 or words[0] == "NULL":
            return PdbLoc(None, 0, 0)
        return PdbLoc(self._resolve(ItemRef.parse(words[0])), int(words[1]), int(words[2]))

    def _word_attr(self, key: str, default: str = "") -> str:
        w = self._raw.first_word(key)
        return w if w is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._raw.prefix}#{self._raw.id} {self.fullName()}>"


class PdbFile(PdbSimpleItem):
    """A source file (``so``), with its direct inclusions."""

    def includes(self) -> list["PdbFile"]:
        return self._ref_list("sinc")

    def isSystem(self) -> bool:
        return self._word_attr("ssys") == "yes"


class PdbItem(PdbSimpleItem):
    """Items with a source location, parent scope, and access mode."""

    _loc_key = "loc"
    _class_key = ""
    _nspace_key = ""
    _acs_key = ""

    def location(self) -> PdbLoc:
        value = self._raw.get(self._loc_key)
        return self._loc_from_words(value.split() if value is not None else [])

    def parentClass(self) -> Optional["PdbClass"]:
        return self._ref_attr(self._class_key) if self._class_key else None

    def parentNamespace(self) -> Optional["PdbNamespace"]:
        return self._ref_attr(self._nspace_key) if self._nspace_key else None

    def parent(self) -> Optional[PdbSimpleItem]:
        return self.parentClass() or self.parentNamespace()

    def access(self) -> str:
        return self._word_attr(self._acs_key, "NA") if self._acs_key else "NA"

    def fullName(self) -> str:
        cached = self._memo.get("fullName")
        if cached is not None:
            return cached
        parts = [self.name()]
        p = self.parent()
        guard = 0
        while p is not None and guard < 64:
            parts.append(p.name())
            p = p.parent() if isinstance(p, PdbItem) else None
            guard += 1
        full = "::".join(reversed(parts))
        self._memo["fullName"] = full
        return full


class PdbMacro(PdbItem):
    """A preprocessor macro (``ma``): kind and text (Table 1)."""

    _loc_key = "maloc"

    def kind(self) -> str:
        return self._word_attr("makind", "def")

    def text(self) -> str:
        return self._raw.get("matext") or ""


class PdbFerr(PdbItem):
    """A frontend error record (``ferr``): one recovered diagnostic of a
    translation unit that failed (partially or wholly) to compile.

    ``name()`` is the translation unit the record belongs to; ``file()``
    is the source file the diagnostic points into (usually the same, but
    a broken header blames the header)."""

    _loc_key = "floc"

    def file(self) -> Optional["PdbFile"]:
        return self._ref_attr("ffile")

    def severity(self) -> str:
        return self._word_attr("fsev", "error")

    def kind(self) -> str:
        return self._word_attr("fkind", "parse")

    def message(self) -> str:
        return self._raw.get("fmsg") or ""

    def render(self) -> str:
        """Format like a compiler diagnostic: ``file:line:col: error: msg``."""
        loc = self.location()
        prefix = f"{loc}: " if loc.known else ""
        return f"{prefix}{self.severity()}: {self.message()}"


class PdbType(PdbItem):
    """A type (``ty``): kind plus kind-specific attributes."""

    _loc_key = "yloc"
    _class_key = "yclass"
    _nspace_key = "ynspace"
    _acs_key = "yacs"

    def kind(self) -> str:
        return self._word_attr("ykind", "unknown")

    def integerKind(self) -> str:
        return self._word_attr("yikind")

    def referencedType(self) -> Optional[PdbSimpleItem]:
        for key in ("yref", "ytref", "yptr", "yelem"):
            t = self._ref_attr(key)
            if t is not None:
                return t
        return None

    def returnType(self) -> Optional[PdbSimpleItem]:
        return self._ref_attr("yrett")

    def argumentTypes(self) -> list[PdbSimpleItem]:
        return self._ref_list("yargt")

    def hasEllipsis(self) -> bool:
        return self._word_attr("yellip") == "yes"

    def isConst(self) -> bool:
        value = self._raw.get("yqual")
        return value is not None and "const" in value.split()

    def exceptionTypes(self) -> list[PdbSimpleItem]:
        return self._ref_list("yexcep")

    def enumerators(self) -> list[tuple[str, int]]:
        out = []
        for w in map(str.split, self._raw.get_all("yename")):
            if len(w) >= 2:
                out.append((w[0], int(w[1])))
        return out


class PdbFatItem(PdbItem):
    """Items with a header and a body (``*pos`` extents)."""

    _pos_key = "pos"

    def headerBegin(self) -> PdbLoc:
        return self._pos_loc(0)

    def headerEnd(self) -> PdbLoc:
        return self._pos_loc(1)

    def bodyBegin(self) -> PdbLoc:
        return self._pos_loc(2)

    def bodyEnd(self) -> PdbLoc:
        return self._pos_loc(3)

    def _pos_loc(self, index: int) -> PdbLoc:
        # only the asked-for position is resolved: a definition test
        # (``bodyBegin().known``) resolves one file, not four
        locs = self._memo.get(self._pos_key)
        if locs is None:
            locs = self._memo[self._pos_key] = self._raw.get_positions(self._pos_key) or []
        if index >= len(locs):
            return PdbLoc(None, 0, 0)
        loc = locs[index]
        return PdbLoc(self._resolve(loc.file), loc.line, loc.column)


class PdbTemplate(PdbFatItem):
    """A template (``te``): kind constants per Figure 6's ``templ_t``."""

    _loc_key = "tloc"
    _class_key = "tclass"
    _nspace_key = "tnspace"
    _acs_key = "tacs"
    _pos_key = "tpos"

    TE_CLASS = "class"
    TE_FUNC = "func"
    TE_MEMFUNC = "memfunc"
    TE_STATMEM = "statmem"
    TE_MEMCLASS = "memclass"

    def kind(self) -> str:
        return self._word_attr("tkind", self.TE_CLASS)

    def text(self) -> str:
        return self._raw.get("ttext") or ""

    def parentClass(self):
        # tclass may reference a te (owner class template) or a cl
        return self._ref_attr("tclass")


class PdbNamespace(PdbFatItem):
    """A namespace (``na``): members and aliases (Table 1)."""

    _loc_key = "nloc"
    _nspace_key = "nnspace"
    _pos_key = "npos"

    def members(self) -> list[PdbSimpleItem]:
        return self._ref_list("nmem")

    def aliases(self) -> list[tuple[str, "PdbNamespace"]]:
        out = []
        for w in map(str.split, self._raw.get_all("nalias")):
            target = self._resolve(ItemRef.parse(w[0]))
            alias = w[1] if len(w) > 1 else ""
            if target is not None:
                out.append((alias, target))
        return out


class PdbTemplateItem(PdbFatItem):
    """Entities that can be instantiated from templates (Figure 4)."""

    _templ_key = "templ"
    _specl_key = "specl"

    def template(self) -> Optional[PdbTemplate]:
        """The template this entity was instantiated from, if the IL
        Analyzer could determine it (it cannot for specializations)."""
        return self._ref_attr(self._templ_key)

    def isTemplateInstantiation(self) -> bool:
        return self.template() is not None

    def isSpecialized(self) -> bool:
        return self._word_attr(self._specl_key) == "yes"


class PdbCall(NamedTuple):
    """One ``rcall`` record, resolved once: the callee (None when its
    ref dangles), the virtual flag and the call location."""

    callee: Optional["PdbRoutine"]
    virtual: bool
    loc: PdbLoc

    def call(self) -> Optional["PdbRoutine"]:
        return self.callee

    def isVirtual(self) -> bool:
        return self.virtual

    def location(self) -> PdbLoc:
        return self.loc


class PdbRoutine(PdbTemplateItem):
    """A routine (``ro``) — Table 1's full attribute set."""

    _loc_key = "rloc"
    _class_key = "rclass"
    _nspace_key = "rnspace"
    _acs_key = "racs"
    _pos_key = "rpos"
    _templ_key = "rtempl"
    _specl_key = "rspecl"

    #: routine kinds (rkind)
    RO_FUNC = "func"
    RO_MEMFUNC = "memfunc"
    RO_CTOR = "ctor"
    RO_DTOR = "dtor"
    RO_OP = "op"
    RO_CONV = "conv"

    def signature(self) -> Optional[PdbType]:
        return self._ref_attr("rsig")

    def kind(self) -> str:
        return self._word_attr("rkind", self.RO_FUNC)

    def linkage(self) -> str:
        return self._word_attr("rlink", "C++")

    def storageClass(self) -> str:
        return self._word_attr("rstore", "NA")

    def virtuality(self) -> str:
        return self._word_attr("rvirt", "no")

    def isVirtual(self) -> bool:
        return self.virtuality() in ("virt", "pure")

    def isPureVirtual(self) -> bool:
        return self.virtuality() == "pure"

    def isInline(self) -> bool:
        return self._word_attr("rinline") == "yes"

    def isStatic(self) -> bool:
        return self._word_attr("rstatic") == "yes"

    def parameters(self) -> list[tuple[Optional[PdbSimpleItem], str, bool]]:
        """(type item, name, has_default) per declared parameter."""
        out = []
        for w in map(str.split, self._raw.get_all("rarg")):
            if not w:
                continue
            t = self._resolve(ItemRef.parse(w[0]))
            name = w[1] if len(w) > 1 else "_"
            has_default = len(w) > 2 and w[2] == "D"
            out.append((t, name, has_default))
        return out

    def requiredParameterCount(self) -> int:
        return sum(1 for _, _, d in self.parameters() if not d)

    def callees(self) -> list[PdbCall]:
        """The functions this routine calls (Figure 5's ``callvec``), one
        record per ``rcall`` line, unresolved callees included."""
        return [
            PdbCall(
                self._resolve(ItemRef.parse(w[0])),
                len(w) > 1 and w[1] == "virt",
                self._loc_from_words(w[2:5]),
            )
            for w in map(str.split, self._raw.get_all("rcall"))
        ]

    def callers(self) -> list["PdbRoutine"]:
        return self._pdb.callers_of(self)


class PdbMember:
    """One data member of a class (a ``cmem`` attribute group)."""

    def __init__(self, owner: "PdbClass", name: str, values: dict[str, str]):
        self._owner = owner
        self._name = name
        #: cm* key -> the value text of its line in this group
        self._values = values

    def _words(self, key: str) -> list[str]:
        return self._values.get(key, "").split()

    def name(self) -> str:
        return self._name

    def location(self) -> PdbLoc:
        return self._owner._loc_from_words(self._words("cmloc"))

    def access(self) -> str:
        w = self._words("cmacs")
        return w[0] if w else "NA"

    def kind(self) -> str:
        w = self._words("cmkind")
        return w[0] if w else "var"

    def type(self) -> Optional[PdbSimpleItem]:
        w = self._words("cmtype")
        if not w or w[0] == "NULL":
            return None
        return self._owner._resolve(ItemRef.parse(w[0]))


class PdbClass(PdbTemplateItem):
    """A class (``cl``) — Table 1's full attribute set."""

    _loc_key = "cloc"
    _class_key = "cclass"
    _nspace_key = "cnspace"
    _acs_key = "cacs"
    _pos_key = "cpos"
    _templ_key = "ctempl"
    _specl_key = "cspecl"

    def kind(self) -> str:
        return self._word_attr("ckind", "class")

    def baseClasses(self) -> list[tuple[str, bool, "PdbClass"]]:
        """Direct bases: (access, is_virtual, class)."""
        out = []
        for w in map(str.split, self._raw.get_all("cbase")):
            if len(w) < 3:
                continue
            base = self._resolve(ItemRef.parse(w[2]))
            if base is not None:
                out.append((w[0], w[1] == "virt", base))
        return out

    def derivedClasses(self) -> list["PdbClass"]:
        return self._pdb.derived_of(self)

    def friendClasses(self) -> list["PdbClass"]:
        return self._ref_list("cfriend")

    def friendRoutines(self) -> list[PdbRoutine]:
        return self._ref_list("cfrfunc")

    def memberFunctions(self) -> list[PdbRoutine]:
        return self._ref_list("cfunc")

    def dataMembers(self) -> list[PdbMember]:
        """The ``cmem`` groups: each member with its cm* detail lines."""
        out: list[PdbMember] = []
        current_name: Optional[str] = None
        current: dict[str, str] = {}
        for line in self._raw.lines:
            key, _, value = line.partition(" ")
            if key == "cmem":
                if current_name is not None:
                    out.append(PdbMember(self, current_name, current))
                current_name = value.strip()
                current = {}
            elif key in ("cmloc", "cmacs", "cmkind", "cmtype") and current_name is not None:
                current[key] = value
        if current_name is not None:
            out.append(PdbMember(self, current_name, current))
        return out


#: prefix -> wrapper class
ITEM_CLASSES: dict[str, type] = {
    "so": PdbFile,
    "ro": PdbRoutine,
    "cl": PdbClass,
    "ty": PdbType,
    "te": PdbTemplate,
    "na": PdbNamespace,
    "ma": PdbMacro,
    "ferr": PdbFerr,
}
