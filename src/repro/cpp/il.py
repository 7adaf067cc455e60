"""High-level intermediate language (IL) nodes.

The front end produces an :class:`ILTree` — the analog of the EDG IL the
paper's IL Analyzer walks.  Like EDG's IL, it "preserves the information
available in source code, including original names and locations"
(paper Section 2), and records template instantiations as first-class
subtrees alongside the templates they came from.

Entities deliberately carry *both* pieces of template provenance:

* ``is_instantiation`` — the flag EDG's IL exposes ("an entity has been
  instantiated, not the template from which it is derived"), and
* ``template_of`` — ground truth the instantiation engine knows.

The IL Analyzer is required (paper Section 3.1) to reconstruct the link by
location matching without reading ``template_of``; the ground-truth field
exists so tests can check the reconstruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.cpp.cpptypes import FunctionType, Type, TypeTable
from repro.cpp.source import SourceFile, SourceLocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpp.preprocessor import MacroRecord


class Access(enum.Enum):
    """Member access mode; NA for non-members (PDB ``racs``/``cmacs``)."""

    NA = "NA"
    PUBLIC = "pub"
    PROTECTED = "prot"
    PRIVATE = "priv"


class Virtuality(enum.Enum):
    """PDB ``rvirt``: no / virtual / pure virtual."""

    NO = "no"
    VIRTUAL = "virt"
    PURE = "pure"


class RoutineKind(enum.Enum):
    """Routine kinds (PDB ``rkind``)."""
    FUNCTION = "func"
    MEMBER = "memfunc"
    CONSTRUCTOR = "ctor"
    DESTRUCTOR = "dtor"
    OPERATOR = "op"
    CONVERSION = "conv"


class ClassKind(enum.Enum):
    """Class keys (PDB ``ckind``)."""
    CLASS = "class"
    STRUCT = "struct"
    UNION = "union"


class TemplateKind(enum.Enum):
    """PDB ``tkind`` — matches the pdbItem::templ_t constants the TAU
    instrumentor switches on (paper Figure 6)."""

    CLASS = "class"
    FUNCTION = "func"
    MEMBER_FUNCTION = "memfunc"
    STATIC_MEMBER = "statmem"
    MEMBER_CLASS = "memclass"


@dataclass(frozen=True)
class SourceRange:
    """Begin/end location pair (PDB positions come in such pairs)."""

    begin: SourceLocation
    end: SourceLocation


@dataclass
class ItemPosition:
    """Header and body extents of a "fat" item (PDB ``rpos``/``cpos``/``tpos``)."""

    header: Optional[SourceRange] = None
    body: Optional[SourceRange] = None


Scope = Union["Namespace", "Class"]


class Declaration:
    """Base for named IL entities with a source location and a parent scope."""

    def __init__(self, name: str, location: SourceLocation, parent: Optional[Scope]):
        self.name = name
        self.location = location
        self.parent = parent
        self.access: Access = Access.NA

    @property
    def full_name(self) -> str:
        """Qualified name, e.g. ``PETE::Stack<int>::push``."""
        parts: list[str] = [self.name]
        p = self.parent
        while p is not None and getattr(p, "name", "") not in ("", "<global>"):
            parts.append(p.name)
            p = p.parent
        return "::".join(reversed(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.full_name} @{self.location}>"


@dataclass
class TemplateParameter:
    """One template parameter: a type (``class T``) or non-type (``int N``)."""

    kind: str  # "type" | "nontype" | "template"
    name: str
    default_text: Optional[str] = None
    nontype_type: Optional[Type] = None


@dataclass
class Parameter:
    """One routine parameter."""

    name: str
    type: Type
    default_text: Optional[str] = None
    location: Optional[SourceLocation] = None


@dataclass
class CallSite:
    """One static call reference (PDB ``rcall``): callee, virtual flag,
    and the source location of the call expression."""

    callee: "Routine"
    is_virtual: bool
    location: SourceLocation


class Routine(Declaration):
    """A function: free, member, constructor, destructor, or operator."""

    def __init__(
        self,
        name: str,
        location: SourceLocation,
        parent: Optional[Scope],
        signature: FunctionType,
        kind: RoutineKind = RoutineKind.FUNCTION,
    ):
        super().__init__(name, location, parent)
        self.signature = signature
        self.kind = kind
        self.parameters: list[Parameter] = []
        self.linkage: str = "C++"
        self.storage: str = "NA"  # NA | static | extern
        self.virtuality: Virtuality = Virtuality.NO
        self.is_static_member = False
        self.is_inline = False
        self.is_explicit = False
        self.is_const = False
        self.defined = False  # has a body been seen
        self.calls: list[CallSite] = []
        self.position = ItemPosition()
        self.template_of: Optional["Template"] = None
        self.template_args: list[Type] = []
        self.is_instantiation = False
        self.is_specialization = False
        self.used = False  # referenced from executed code (used-mode driver)
        self.body_tokens: Optional[tuple[int, int]] = None  # deferred-parse slice
        self.flags: dict[str, object] = {}

    @property
    def parent_class(self) -> Optional["Class"]:
        return self.parent if isinstance(self.parent, Class) else None

    def add_call(self, callee: "Routine", is_virtual: bool, location: SourceLocation) -> None:
        self.calls.append(CallSite(callee, is_virtual, location))

    def callees(self) -> list[CallSite]:
        return list(self.calls)


class Field(Declaration):
    """A data member (PDB ``cmem`` rows)."""

    def __init__(
        self,
        name: str,
        location: SourceLocation,
        parent: "Class",
        type: Type,
        is_static: bool = False,
        is_mutable: bool = False,
    ):
        super().__init__(name, location, parent)
        self.type = type
        self.is_static = is_static
        self.is_mutable = is_mutable

    @property
    def member_kind(self) -> str:
        return "svar" if self.is_static else "var"


class Class(Declaration):
    """A class, struct, or union."""

    def __init__(
        self,
        name: str,
        location: SourceLocation,
        parent: Optional[Scope],
        kind: ClassKind = ClassKind.CLASS,
    ):
        super().__init__(name, location, parent)
        self.kind = kind
        self.bases: list[tuple["Class", Access, bool]] = []  # (base, access, virtual)
        self.fields: list[Field] = []
        self.routines: list[Routine] = []
        self.inner_classes: list["Class"] = []
        self.inner_enums: list["Enum"] = []
        self.inner_typedefs: list["Typedef"] = []
        self.friend_classes: list["Class"] = []
        self.friend_routines: list[Routine] = []
        self.position = ItemPosition()
        self.template_of: Optional["Template"] = None
        self.template_args: list[Type] = []
        self.is_instantiation = False
        self.is_specialization = False
        self.defined = False  # body seen (vs forward declaration)
        self.is_abstract = False
        self.flags: dict[str, object] = {}

    def add_base(self, base: "Class", access: Access, virtual: bool = False) -> None:
        self.bases.append((base, access, virtual))

    def derived_from(self, other: "Class") -> bool:
        """True when ``other`` is this class or a (transitive) base."""
        if other is self:
            return True
        return any(b.derived_from(other) for b, _, _ in self.bases)

    def find_member(self, name: str) -> Optional[Union[Field, "Typedef", "Enum", "Class"]]:
        """Find a non-function member by name, searching bases."""
        for f in self.fields:
            if f.name == name:
                return f
        for t in self.inner_typedefs:
            if t.name == name:
                return t
        for e in self.inner_enums:
            if e.name == name:
                return e
        for c in self.inner_classes:
            if c.name == name:
                return c
        for base, _, _ in self.bases:
            m = base.find_member(name)
            if m is not None:
                return m
        return None

    def find_routines(self, name: str) -> list[Routine]:
        """All member functions named ``name`` (overload set), bases last."""
        out = [r for r in self.routines if r.name == name]
        for base, _, _ in self.bases:
            if not out:
                out.extend(base.find_routines(name))
        return out

    def constructors(self) -> list[Routine]:
        return [r for r in self.routines if r.kind is RoutineKind.CONSTRUCTOR]

    def destructor(self) -> Optional[Routine]:
        for r in self.routines:
            if r.kind is RoutineKind.DESTRUCTOR:
                return r
        return None


class Enum(Declaration):
    """An enumeration with (name, value) enumerators."""
    def __init__(self, name: str, location: SourceLocation, parent: Optional[Scope]):
        super().__init__(name, location, parent)
        self.enumerators: list[tuple[str, int]] = []


class Typedef(Declaration):
    """A named type alias."""
    def __init__(
        self, name: str, location: SourceLocation, parent: Optional[Scope], underlying: Type
    ):
        super().__init__(name, location, parent)
        self.underlying = underlying


class Variable(Declaration):
    """A namespace-scope variable (e.g. ``std::cout``)."""

    def __init__(
        self, name: str, location: SourceLocation, parent: Optional[Scope], type: Type
    ):
        super().__init__(name, location, parent)
        self.type = type
        self.storage: str = "NA"


class Template(Declaration):
    """A template definition (class, function, member function, or static
    member), holding its body as a deferred token range for instantiation.

    ``text`` is the reconstructed source text (PDB ``ttext``).
    """

    def __init__(
        self,
        name: str,
        location: SourceLocation,
        parent: Optional[Scope],
        kind: TemplateKind,
    ):
        super().__init__(name, location, parent)
        self.kind = kind
        self.parameters: list[TemplateParameter] = []
        self.text: str = ""
        self.position = ItemPosition()
        # Token slice (start, end) into the TU token stream, and the scope
        # snapshot needed to re-parse at instantiation time.
        self.decl_tokens: Optional[tuple[int, int]] = None
        self.instantiations: list[Declaration] = []
        self.specializations: list["Template"] = []
        self.primary: Optional["Template"] = None  # set on specializations
        self.spec_args: list[Type] = []  # pattern args of a specialization
        self.owner_class_template: Optional["Template"] = None  # memfunc -> class templ

    @property
    def is_specialization(self) -> bool:
        return self.primary is not None

    def param_names(self) -> list[str]:
        return [p.name for p in self.parameters]


class Namespace(Declaration):
    """A namespace; the global scope is the namespace named ``<global>``."""

    def __init__(
        self,
        name: str,
        location: SourceLocation,
        parent: Optional["Namespace"] = None,
    ):
        super().__init__(name, location, parent)
        self.namespaces: list["Namespace"] = []
        self.classes: list[Class] = []
        self.routines: list[Routine] = []
        self.enums: list[Enum] = []
        self.typedefs: list[Typedef] = []
        self.variables: list[Variable] = []
        self.templates: list[Template] = []
        self.aliases: dict[str, "Namespace"] = {}
        self.using_namespaces: list["Namespace"] = []
        #: ``using std::cout;`` — name -> binding imported from elsewhere
        self.using_decls: dict[str, object] = {}
        self.position = ItemPosition()

    @property
    def is_global(self) -> bool:
        return self.name == "<global>"

    def member_names(self) -> list[str]:
        out: list[str] = []
        for group in (
            self.namespaces, self.classes, self.routines,
            self.enums, self.typedefs, self.variables, self.templates,
        ):
            out.extend(d.name for d in group)  # type: ignore[attr-defined]
        return out


class ILTree:
    """The complete IL for one translation unit (or a merged set).

    Creation-order registries (``all_*``) give the IL Analyzer stable,
    deterministic traversal order, which in turn keeps PDB ids stable.
    """

    def __init__(self, types: Optional[TypeTable] = None):
        self.types = types or TypeTable()
        # The global namespace anchors the scope tree.
        dummy = SourceFile(name="<builtin>", text="")
        self.global_namespace = Namespace("<global>", SourceLocation(dummy, 1, 1))
        self.files: list[SourceFile] = []
        self.main_file: Optional[SourceFile] = None
        self.all_classes: list[Class] = []
        self.all_routines: list[Routine] = []
        self.all_templates: list[Template] = []
        self.all_namespaces: list[Namespace] = []
        self.all_enums: list[Enum] = []
        self.all_typedefs: list[Typedef] = []
        self.all_variables: list[Variable] = []
        self.macros: list["MacroRecord"] = []

    # -- registration (keeps creation order) ---------------------------

    def register_class(self, c: Class) -> Class:
        self.all_classes.append(c)
        return c

    def register_routine(self, r: Routine) -> Routine:
        self.all_routines.append(r)
        return r

    def register_template(self, t: Template) -> Template:
        self.all_templates.append(t)
        return t

    def register_namespace(self, n: Namespace) -> Namespace:
        self.all_namespaces.append(n)
        return n

    def register_enum(self, e: Enum) -> Enum:
        self.all_enums.append(e)
        return e

    def register_typedef(self, t: Typedef) -> Typedef:
        self.all_typedefs.append(t)
        return t

    def register_variable(self, v: Variable) -> Variable:
        self.all_variables.append(v)
        return v

    # -- queries --------------------------------------------------------

    def find_routine(self, full_name: str) -> Optional[Routine]:
        for r in self.all_routines:
            if r.full_name == full_name:
                return r
        return None

    def find_class(self, full_name: str) -> Optional[Class]:
        for c in self.all_classes:
            if c.full_name == full_name:
                return c
        return None

    def find_template(self, name: str) -> Optional[Template]:
        for t in self.all_templates:
            if t.name == name or t.full_name == name:
                return t
        return None

    def node_count(self) -> int:
        """Rough IL size metric (bench E10: used vs all mode)."""
        n = len(self.all_namespaces) + len(self.all_enums) + len(self.all_typedefs)
        n += len(self.all_variables) + len(self.all_templates)
        for c in self.all_classes:
            n += 1 + len(c.fields) + len(c.inner_typedefs) + len(c.inner_enums)
        for r in self.all_routines:
            n += 1 + len(r.parameters) + len(r.calls)
        return n
