"""Name binding and lookup.

The :class:`Binder` tracks the parser's lexical position — namespace
stack, class stack, function block scopes, and template parameter
bindings — and answers name lookups against it.  Lookup order follows
C++'s unqualified lookup closely enough for the supported subset:

1. function-local block scopes (innermost first),
2. the enclosing class(es), including base classes,
3. enclosing namespaces outward, honouring ``using namespace``,
4. the global namespace.

Template parameter bindings are consulted before class members, which is
what makes the same parser code serve both template *definition* parsing
(parameters bound to dependent :class:`TemplateParamType`) and
*instantiation* re-parsing (parameters bound to concrete types).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cpp.cpptypes import Type, TypeTable
from repro.cpp.il import (
    Class,
    Enum,
    Field,
    ILTree,
    Namespace,
    Routine,
    Template,
    Typedef,
    Variable,
)
from repro.cpp.source import SourceLocation


@dataclass
class LocalVar:
    """A function-local variable or parameter binding."""

    name: str
    type: Type
    location: SourceLocation


@dataclass
class EnumeratorRef:
    """A reference to one enumerator of an enum."""

    enum: Enum
    name: str
    value: int


#: What a lookup can produce.
Binding = Union[
    LocalVar,
    Field,
    Variable,
    Typedef,
    Enum,
    Class,
    Namespace,
    Template,
    Type,  # template parameter binding
    list,  # overload set: list[Routine] or list[Template]
]


class Binder:
    """Lexical context + name lookup for the parser."""

    def __init__(self, tree: ILTree):
        self.tree = tree
        self.types: TypeTable = tree.types
        self.namespace_stack: list[Namespace] = [tree.global_namespace]
        self.class_stack: list[Class] = []
        self.block_scopes: list[dict[str, LocalVar]] = []
        self.tparam_stack: list[dict[str, Type]] = []
        self.current_routine: Optional[Routine] = None

    # -- scope management ----------------------------------------------

    @property
    def current_namespace(self) -> Namespace:
        return self.namespace_stack[-1]

    @property
    def current_class(self) -> Optional[Class]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def current_scope(self):
        return self.current_class or self.current_namespace

    def enter_namespace(self, ns: Namespace) -> None:
        self.namespace_stack.append(ns)

    def exit_namespace(self) -> None:
        self.namespace_stack.pop()

    def enter_class(self, c: Class) -> None:
        self.class_stack.append(c)

    def exit_class(self) -> None:
        self.class_stack.pop()

    def push_block(self) -> None:
        self.block_scopes.append({})

    def pop_block(self) -> dict[str, LocalVar]:
        return self.block_scopes.pop()

    def declare_local(self, name: str, type: Type, location: SourceLocation) -> LocalVar:
        var = LocalVar(name, type, location)
        if self.block_scopes:
            self.block_scopes[-1][name] = var
        return var

    def push_tparams(self, bindings: dict[str, Type]) -> None:
        self.tparam_stack.append(bindings)

    def pop_tparams(self) -> None:
        self.tparam_stack.pop()

    # -- namespace member search -----------------------------------------

    @staticmethod
    def find_in_namespace(ns: Namespace, name: str) -> Optional[Binding]:
        for c in ns.classes:
            if c.name == name:
                return c
        for t in ns.typedefs:
            if t.name == name:
                return t
        for e in ns.enums:
            if e.name == name:
                return e
        for v in ns.variables:
            if v.name == name:
                return v
        # functions and function templates with the same name form one
        # overload set (a non-template overload must not be shadowed)
        routines = [r for r in ns.routines if r.name == name]
        templates = [t for t in ns.templates if t.name == name]
        if routines or templates:
            return routines + templates
        for sub in ns.namespaces:
            if sub.name == name:
                return sub
        alias = ns.aliases.get(name)
        if alias is not None:
            return alias
        for e in ns.enums:
            for ename, value in e.enumerators:
                if ename == name:
                    return EnumeratorRef(e, ename, value)
        imported = ns.using_decls.get(name)
        if imported is not None:
            return imported  # type: ignore[return-value]
        return None

    @staticmethod
    def find_in_class(cls: Class, name: str) -> Optional[Binding]:
        if cls.name == name or _strip_targs(cls.name) == name:
            # injected-class-name: Stack inside Stack<int> names the class
            return cls
        m = cls.find_member(name)
        if m is not None:
            return m
        routines = cls.find_routines(name)
        if routines:
            return routines
        for e in cls.inner_enums:
            for ename, value in e.enumerators:
                if ename == name:
                    return EnumeratorRef(e, ename, value)
        return None

    # -- unqualified lookup -----------------------------------------------

    def lookup(self, name: str) -> Optional[Binding]:
        # 1. locals
        for scope in reversed(self.block_scopes):
            if name in scope:
                return scope[name]
        # 2. template parameters
        for frame in reversed(self.tparam_stack):
            if name in frame:
                return frame[name]
        # 3. enclosing classes (and their bases)
        for cls in reversed(self.class_stack):
            found = self.find_in_class(cls, name)
            if found is not None:
                return found
        # the class a member routine belongs to, when parsing out-of-line
        if self.current_routine is not None and not self.class_stack:
            owner = self.current_routine.parent_class
            if owner is not None:
                found = self.find_in_class(owner, name)
                if found is not None:
                    return found
        # 4. namespaces outward, with using-directives
        seen: set[int] = set()
        for ns in reversed(self.namespace_stack):
            found = self.find_in_namespace(ns, name)
            if found is not None:
                return found
            for used in ns.using_namespaces:
                if id(used) in seen:
                    continue
                seen.add(id(used))
                found = self.find_in_namespace(used, name)
                if found is not None:
                    return found
        return None

    # -- qualified lookup ---------------------------------------------------

    def resolve_scope_path(self, parts: list[str]) -> Optional[Union[Namespace, Class]]:
        """Resolve ``A::B`` to the namespace or class it names."""
        if not parts:
            return self.current_namespace
        first = self.lookup(parts[0])
        node: Optional[Union[Namespace, Class]]
        if isinstance(first, (Namespace, Class)):
            node = first
        elif isinstance(first, Typedef):
            node = first.underlying.class_decl()
        else:
            return None
        for part in parts[1:]:
            nxt: Optional[Binding] = None
            if isinstance(node, Namespace):
                nxt = self.find_in_namespace(node, part)
            elif isinstance(node, Class):
                nxt = self.find_in_class(node, part)
            if isinstance(nxt, (Namespace, Class)):
                node = nxt
            elif isinstance(nxt, Typedef):
                node = nxt.underlying.class_decl()
            else:
                return None
        return node

    def lookup_qualified(self, parts: list[str], name: str) -> Optional[Binding]:
        """Lookup ``parts::name`` (e.g. ``std::vector``)."""
        scope = self.resolve_scope_path(parts)
        if scope is None:
            return None
        if isinstance(scope, Namespace):
            return self.find_in_namespace(scope, name)
        return self.find_in_class(scope, name)


def _strip_targs(name: str) -> str:
    """``Stack<int>`` -> ``Stack``."""
    i = name.find("<")
    return name if i < 0 else name[:i]
