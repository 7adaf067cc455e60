"""IL Analyzer driver: IL tree -> PDB document.

Id assignment is demand-driven but deterministic: each pass walks the
IL's creation-order registries, so the same IL always produces the same
PDB.  Items are emitted grouped by kind in the order source files,
templates, namespaces, classes, routines, types, macros — mirroring the
"separate traversals" design the paper describes.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.analyzer.passes import (
    emit_classes,
    emit_files,
    emit_macros,
    emit_namespaces,
    emit_routines,
    emit_types,
)
from repro.analyzer.passes.templates_pass import emit_templates
from repro.analyzer.templatematch import TemplateIndex
from repro.cpp.cpptypes import Type
from repro.cpp.il import Class, ILTree, Namespace, Routine, Template
from repro.cpp.source import SourceFile, SourceLocation
from repro.pdbfmt.items import PdbDocument, RawItem

#: pass order — one traversal per construct kind (paper Section 3.1)
DEFAULT_PASSES = ("so", "te", "na", "cl", "ro", "ty", "ma")

#: pseudo-files the front end synthesises; never reported
_SYNTHETIC_FILES = ("<builtin>", "<predefined>", "<default-arg>", "<paste>")


class ILAnalyzer:
    """Produces a PDB document from an ILTree."""

    def __init__(self, tree: ILTree, passes: tuple[str, ...] = DEFAULT_PASSES):
        self.tree = tree
        self.passes = passes
        self.doc = PdbDocument()
        self.template_index = TemplateIndex(tree.all_templates)
        self._counters: dict[str, int] = {}
        self._file_ids: dict[int, RawItem] = {}
        self._class_ids: dict[int, RawItem] = {}
        self._routine_ids: dict[int, RawItem] = {}
        self._template_ids: dict[int, RawItem] = {}
        self._namespace_ids: dict[int, RawItem] = {}
        self._type_ids: dict[Type, RawItem] = {}
        #: items created on demand, grouped by prefix, in creation order
        self._created: dict[str, list[RawItem]] = {p: [] for p in DEFAULT_PASSES}

    # -- id allocation ---------------------------------------------------

    def _new_item(self, prefix: str, name: str) -> RawItem:
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        item = RawItem(prefix=prefix, id=n, name=name)
        self._created[prefix].append(item)
        return item

    # -- reference helpers (memoised, demand-driven) --------------------------

    def file_item(self, f: SourceFile) -> RawItem:
        item = self._file_ids.get(id(f))
        if item is None:
            item = self._new_item("so", f.name)
            self._file_ids[id(f)] = item
        return item

    def class_item(self, c: Class) -> RawItem:
        item = self._class_ids.get(id(c))
        if item is None:
            item = self._new_item("cl", c.name)
            self._class_ids[id(c)] = item
        return item

    def routine_item(self, r: Routine) -> RawItem:
        item = self._routine_ids.get(id(r))
        if item is None:
            item = self._new_item("ro", r.name)
            self._routine_ids[id(r)] = item
        return item

    def template_item(self, t: Template) -> RawItem:
        item = self._template_ids.get(id(t))
        if item is None:
            item = self._new_item("te", t.name)
            self._template_ids[id(t)] = item
        return item

    def namespace_item(self, n: Namespace) -> RawItem:
        item = self._namespace_ids.get(id(n))
        if item is None:
            item = self._new_item("na", n.name)
            self._namespace_ids[id(n)] = item
        return item

    def type_item(self, t: Type) -> RawItem:
        """The ty item for ``t`` (class types route to ``cl`` items —
        use :meth:`type_ref` for reference strings)."""
        from repro.analyzer.passes.types_pass import populate_type_item

        item = self._type_ids.get(t)
        if item is None:
            item = self._new_item("ty", t.spelling())
            self._type_ids[t] = item
            populate_type_item(self, item, t)
        return item

    def type_ref(self, t: Optional[Type]) -> str:
        """Render a type reference: ``cl#N`` for class types, ``ty#N``
        otherwise, ``NULL`` for missing."""
        from repro.cpp.cpptypes import ClassType

        if t is None:
            return "NULL"
        if isinstance(t, ClassType):
            return str(self.class_item(t.decl).ref)
        return str(self.type_item(t).ref)

    # -- location helpers ---------------------------------------------------------

    def location_words(self, loc: Optional[SourceLocation]) -> list[str]:
        if loc is None or loc.file.name in _SYNTHETIC_FILES:
            return ["NULL", "0", "0"]
        return [str(self.file_item(loc.file).ref), str(loc.line), str(loc.column)]

    def pos_words(self, position) -> list[str]:
        """Four locations: header begin/end, body begin/end."""
        out: list[str] = []
        for rng in (position.header, position.body):
            if rng is None:
                out += ["NULL", "0", "0", "NULL", "0", "0"]
            else:
                out += self.location_words(rng.begin) + self.location_words(rng.end)
        return out

    # -- visibility -----------------------------------------------------------------

    @staticmethod
    def visible(entity) -> bool:
        """PRELINK-mode instantiations are flagged IL-invisible."""
        return bool(getattr(entity, "flags", {}).get("il_visible", True))

    # -- parent scope helpers ----------------------------------------------------------

    def parent_attrs(self, item: RawItem, entity, class_key: str, ns_key: str) -> None:
        parent = entity.parent
        if isinstance(parent, Class):
            item.add(class_key, self.class_item(parent).ref)
        elif isinstance(parent, Namespace) and not parent.is_global:
            item.add(ns_key, self.namespace_item(parent).ref)

    # -- driver --------------------------------------------------------------------------

    def run(self) -> PdbDocument:
        dispatch = {
            "so": emit_files,
            "te": emit_templates,
            "na": emit_namespaces,
            "cl": emit_classes,
            "ro": emit_routines,
            "ty": emit_types,
            "ma": emit_macros,
        }
        for p in self.passes:
            with obs.observe(f"analyzer.{p}", cat="analyzer"):
                dispatch[p](self)
        # Assemble the document in pass order; demand-created items (types
        # referenced from signatures, files referenced from locations)
        # appear with their kind group, ordered by id.
        with obs.observe("analyzer.assemble", cat="analyzer"):
            for prefix in DEFAULT_PASSES:
                for item in sorted(self._created[prefix], key=lambda i: i.id):
                    self.doc.add(item)
        return self.doc


def analyze(tree: ILTree, passes: tuple[str, ...] = DEFAULT_PASSES) -> PdbDocument:
    """Run the IL Analyzer over ``tree``, returning the PDB document."""
    return ILAnalyzer(tree, passes).run()
