"""EDG-style template instantiation engine.

Implements the three instantiation schemes the paper discusses (Section 2):

``USED``
    The mode PDT relies on: every template entity *used* in the
    compilation is instantiated and represented in the IL; unused member
    functions and static data members are not.  Class instantiation
    creates the class subtree (members declared, fields typed); member
    function *bodies* are instantiated lazily when a call or explicit
    request marks them used.

``ALL``
    Full instantiation of every member at class-instantiation time —
    the comparison point for bench E10 (IL size / front-end time).

``PRELINK``
    EDG's default automatic scheme: templates are instantiated for code
    generation by a link-time closure loop, but the instantiations are
    *not recorded in the IL* where an analysis tool could see them.  We
    instantiate (type-checking still needs it) but mark the entities
    IL-invisible and log the would-be prelinker requests, which
    :mod:`repro.cpp.prelink` replays (bench E11).

Instantiation re-parses the template's captured token slice with the
template parameters bound to concrete types.  Because tokens carry their
original source locations, every instantiated entity reports positions
inside its template's definition — exactly the property the paper's IL
Analyzer exploits to match instantiations back to templates by location.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Optional

from repro import obs
from repro.cpp.cpptypes import (
    ArrayType,
    ClassType,
    FunctionType,
    NonTypeArg,
    PointerType,
    QualifiedType,
    ReferenceType,
    TemplateIdType,
    TemplateParamType,
    Type,
    TypedefType,
)
from repro.cpp.diagnostics import CppError, DiagnosticSink, TooManyErrors
from repro.cpp.il import (
    Class,
    ILTree,
    Namespace,
    Routine,
    RoutineKind,
    SourceRange,
    Template,
)
from repro.cpp.scope import Binder
from repro.cpp.source import SourceLocation
from repro.cpp.tokens import Token


class InstantiationMode(enum.Enum):
    """EDG-style instantiation schemes (paper Section 2)."""
    USED = "used"
    ALL = "all"
    PRELINK = "prelink"


class InstantiationEngine:
    """Caches and performs template instantiations for one TU."""

    def __init__(
        self,
        tree: ILTree,
        tokens: list[Token],
        sink: DiagnosticSink,
        mode: InstantiationMode = InstantiationMode.USED,
    ):
        self.tree = tree
        self.tokens = tokens
        self.sink = sink
        self.mode = mode
        self._class_cache: dict[tuple, Class] = {}
        self._func_cache: dict[tuple, Routine] = {}
        self._explicit_specs: dict[tuple, Class] = {}
        #: members whose inline bodies await used-mode instantiation
        self._inline_deferred: dict[int, tuple[Class, int]] = {}
        #: class-instantiation parameter bindings, for body instantiation
        self._class_bindings: dict[int, dict[str, Type]] = {}
        self._worklist: deque[Routine] = deque()
        self._in_worklist: set[int] = set()
        self._draining = False
        #: prelinker request log: (template name, arg spellings, location)
        self.prelink_requests: list[tuple[str, tuple[str, ...], SourceLocation]] = []
        #: counters for the E10/E11 benches
        self.stats = {
            "class_instantiations": 0,
            "routine_bodies_instantiated": 0,
            "function_template_instantiations": 0,
            "members_declared": 0,
        }

    # -- class instantiation ------------------------------------------------------

    def instantiate_class(
        self, template: Template, args: list[Type], loc: SourceLocation
    ) -> Class:
        """Instantiate ``template<args>`` (declarations only in USED mode)."""
        args = self._normalise_args(template, args, loc)
        key = (id(template), tuple(args))
        cached = self._class_cache.get(key)
        if cached is not None:
            return cached
        spec_cls = self._explicit_specs.get(key)
        if spec_cls is not None:
            self._class_cache[key] = spec_cls
            return spec_cls
        chosen, bindings = self._select_template(template, args)
        name = template.name + "<" + ", ".join(a.spelling() for a in args) + ">"
        cls = Class(name, chosen.location, chosen.parent)
        cls.is_instantiation = True
        cls.template_of = chosen
        cls.template_args = list(args)
        cls.access = chosen.access
        self._class_cache[key] = cls  # before parsing: breaks recursive types
        self._class_bindings[id(cls)] = bindings
        self.tree.register_class(cls)
        self._attach_to_parent(cls, chosen)
        chosen.instantiations.append(cls)
        self.stats["class_instantiations"] += 1
        if chosen.decl_tokens is None:
            self.sink.warn(f"template {template.name!r} has no definition", loc)
            return cls
        parser = self._make_parser(chosen.parent, bindings)
        parser.pos = chosen.decl_tokens[0]
        try:
            parser.parse_class_definition(existing=cls, attach_to_scope=False)
        except TooManyErrors:
            raise
        except CppError as exc:
            self.sink.warn(f"instantiation of {name} failed: {exc.message}", loc)
        for r in cls.routines:
            # member declarations are part of the instantiated subtree
            r.is_instantiation = True
        self.stats["members_declared"] += len(cls.routines) + len(cls.fields)
        if self.mode is InstantiationMode.ALL:
            self.instantiate_all_members(cls)
        if self.mode is InstantiationMode.PRELINK:
            self._hide_from_il(cls)
            self.prelink_requests.append(
                (template.name, tuple(a.spelling() for a in args), loc)
            )
        return cls

    def _normalise_args(
        self, template: Template, args: list[Type], loc: SourceLocation
    ) -> list[Type]:
        """Append default template arguments for missing trailing params."""
        params = template.parameters
        if len(args) >= len(params):
            return list(args[: len(params)]) if params else list(args)
        out = list(args)
        for p in params[len(args) :]:
            if p.default_text is None:
                break
            bindings = {
                q.name: out[i] for i, q in enumerate(params[: len(out)])
            }
            t = self._parse_type_text(p.default_text, template.parent, bindings)
            if t is None:
                break
            out.append(t)
        return out

    def _parse_type_text(
        self, text: str, parent, bindings: dict[str, Type]
    ) -> Optional[Type]:
        """Parse a type from loose text (default template arguments)."""
        from repro.cpp.lexer import tokenize
        from repro.cpp.source import SourceFile

        f = SourceFile(name="<default-arg>", text=text)
        toks = tokenize(f)
        parser = self._make_parser(parent, bindings, tokens=toks)
        try:
            return parser.parse_full_type()
        except TooManyErrors:
            raise
        except CppError:
            return None

    def _select_template(
        self, primary: Template, args: list[Type]
    ) -> tuple[Template, dict[str, Type]]:
        """Pick the best partial specialization, defaulting to the primary."""
        best: Optional[tuple[Template, dict[str, Type]]] = None
        for spec in primary.specializations:
            if len(spec.spec_args) != len(args):
                continue
            bindings: dict[str, Type] = {}
            if all(unify(p, a, bindings, self.tree.types) for p, a in zip(spec.spec_args, args)):
                # most-specialized = most pattern structure; approximate by
                # fewest bound parameters
                if best is None or len(bindings) < len(best[1]):
                    best = (spec, bindings)
        if best is not None:
            return best
        bindings = {}
        for i, p in enumerate(primary.parameters):
            if i < len(args):
                bindings[p.name] = args[i]
        return primary, bindings

    def _attach_to_parent(self, cls: Class, template: Template) -> None:
        parent = template.parent
        if isinstance(parent, Namespace):
            parent.classes.append(cls)
        elif isinstance(parent, Class):
            parent.inner_classes.append(cls)

    def _make_parser(self, parent, bindings: dict[str, Type], tokens=None):
        from repro.cpp.declparse import Parser

        binder = Binder(self.tree)
        chain: list[Namespace] = []
        p = parent
        while p is not None:
            if isinstance(p, Namespace) and not p.is_global:
                chain.append(p)
            p = getattr(p, "parent", None)
        for ns in reversed(chain):
            binder.namespace_stack.append(ns)
        if bindings:
            binder.push_tparams(bindings)
        return Parser(tokens or self.tokens, self.tree, binder, self.sink, self)

    # -- used-mode body machinery ------------------------------------------------------

    def defer_inline_body(self, routine: Routine, cls: Class) -> None:
        """An inline member body of an instantiated class: record the
        token slice; instantiate only when used."""
        if routine.body_tokens is None:
            return
        self._inline_deferred[id(routine)] = (cls, routine.body_tokens[0])
        if self.mode is InstantiationMode.ALL:
            self.note_routine_used(routine)

    def note_routine_used(self, routine: Routine) -> None:
        """Mark used; queue body instantiation if one is pending."""
        routine.used = True
        if routine.defined or id(routine) in self._in_worklist:
            return
        if self._has_pending_body(routine):
            self._worklist.append(routine)
            self._in_worklist.add(id(routine))

    def _has_pending_body(self, routine: Routine) -> bool:
        if id(routine) in self._inline_deferred:
            return True
        cls = routine.parent_class
        if cls is not None and cls.is_instantiation and cls.template_of is not None:
            return self._find_member_template(cls.template_of, routine) is not None
        return False

    def drain(self) -> None:
        """Process pending body instantiations to a fixed point.

        The parser drains after every top-level declaration, so most
        drains find nothing to do.  A non-empty outermost drain is one
        ``cpp.instantiate`` span; a drain nested in it (a body whose
        parse drains again) runs inside that span, so no time is
        counted twice."""
        if not self._worklist:
            return
        if self._draining:
            self._drain_worklist()
            return
        self._draining = True
        try:
            with obs.observe("cpp.instantiate", cat="cpp"):
                self._drain_worklist()
        finally:
            self._draining = False

    def _drain_worklist(self) -> None:
        while self._worklist:
            r = self._worklist.popleft()
            self._in_worklist.discard(id(r))
            if not r.defined:
                self._instantiate_body(r)

    def instantiate_all_members(self, cls: Class) -> None:
        """Explicit instantiation / ALL mode: every member body."""
        for r in list(cls.routines):
            self.note_routine_used(r)
        self.drain()

    # -- body instantiation ---------------------------------------------------------------

    def _instantiate_body(self, routine: Routine) -> None:
        inline = self._inline_deferred.pop(id(routine), None)
        if inline is not None:
            cls, start = inline
            bindings = self._class_bindings.get(id(cls), {})
            parser = self._make_parser(cls.parent, bindings)
            parser.binder.class_stack.append(cls)
            parser.parse_function_body_at(routine, start)
            routine.is_instantiation = True
            if routine.template_of is None and cls.template_of is not None:
                routine.template_of = cls.template_of
            self.stats["routine_bodies_instantiated"] += 1
            if self.mode is InstantiationMode.PRELINK:
                routine.flags["il_visible"] = False
            return
        cls = routine.parent_class
        if cls is None or cls.template_of is None:
            return
        te = self._find_member_template(cls.template_of, routine)
        if te is None or te.decl_tokens is None:
            return
        class_bindings = self._class_bindings.get(id(cls), {})
        parser = self._make_parser(te.parent, class_bindings)
        parser.pos = te.decl_tokens[0]
        try:
            self._parse_member_definition(parser, te, routine, cls)
        except TooManyErrors:
            raise
        except CppError as exc:
            self.sink.warn(
                f"body instantiation of {routine.full_name} failed: {exc.message}",
                routine.location,
            )
            return
        routine.is_instantiation = True
        routine.template_of = te
        te.instantiations.append(routine)
        self.stats["routine_bodies_instantiated"] += 1
        if self.mode is InstantiationMode.PRELINK:
            routine.flags["il_visible"] = False

    def _find_member_template(self, ct: Template, routine: Routine) -> Optional[Template]:
        raw = routine.name.split("<")[0]
        if routine.kind is RoutineKind.CONSTRUCTOR:
            raw = ct.name
        candidates = [
            t
            for t in self.tree.all_templates
            if t.owner_class_template is ct and t.name == raw
        ]
        exact = [
            t
            for t in candidates
            if len(getattr(t, "sig_declarator").parameters) == len(routine.parameters)
            and getattr(t, "sig_declarator").const == routine.is_const
        ]
        if exact:
            return exact[0]
        loose = [
            t
            for t in candidates
            if len(getattr(t, "sig_declarator").parameters) == len(routine.parameters)
        ]
        if loose:
            return loose[0]
        return candidates[0] if candidates else None

    def _parse_member_definition(
        self, parser, te: Template, routine: Routine, cls: Class
    ) -> None:
        """Re-parse an out-of-line member template definition with the
        class's bindings, attaching the body to ``routine``."""
        specs = parser._parse_decl_spec_flags()  # noqa: F841 — consumed for position
        if parser._at_out_of_line_ctor_like():
            base = self.tree.types.void
        else:
            base = parser.parse_type_specifier()
        d = parser.parse_declarator(base)
        routine.location = d.name_location or routine.location
        routine.parameters = d.parameters or routine.parameters
        if isinstance(d.type, FunctionType):
            routine.signature = d.type
        header_end = parser.peek(-1).location if parser.pos > 0 else routine.location
        start_tok = parser.tokens[te.decl_tokens[0]]
        routine.position.header = SourceRange(start_tok.location, header_end)
        if parser.at(":") or parser.at("{"):
            body_start = parser.pos
            while not parser.at("{"):
                if parser.at("("):
                    parser.skip_balanced("(")
                else:
                    parser.advance()
            close_idx = parser.skip_balanced("{")
            routine.position.body = SourceRange(
                parser.tokens[body_start].location, parser.tokens[close_idx].location
            )
            parser.binder.class_stack.append(cls)
            parser.parse_function_body_at(routine, body_start)
        else:
            routine.defined = True  # declaration-only member template

    # -- function templates --------------------------------------------------------------------

    def instantiate_function_template(
        self,
        template: Template,
        arg_types: list[Type],
        explicit_args: Optional[list[Type]],
        loc: SourceLocation,
    ) -> Optional[Routine]:
        """Deduce arguments and instantiate a free function template."""
        d = getattr(template, "sig_declarator", None)
        if d is None or template.decl_tokens is None:
            return None
        bindings: dict[str, Type] = {}
        params = template.parameters
        if explicit_args:
            for p, a in zip(params, explicit_args):
                bindings[p.name] = a
        patterns = [p.type for p in d.parameters]
        for pat, actual in zip(patterns, arg_types):
            unify(pat, actual, bindings, self.tree.types)
        for p in params:
            if p.name not in bindings and p.default_text is not None:
                t = self._parse_type_text(p.default_text, template.parent, bindings)
                if t is not None:
                    bindings[p.name] = t
        if any(p.name not in bindings for p in params):
            return None
        ordered = tuple(bindings[p.name] for p in params)
        key = (id(template), ordered)
        cached = self._func_cache.get(key)
        if cached is not None:
            return cached
        parser = self._make_parser(template.parent, dict(bindings))
        parser.pos = template.decl_tokens[0]
        try:
            specs = parser._parse_decl_spec_flags()
            base = parser.parse_type_specifier()
            decl = parser.parse_declarator(base)
        except TooManyErrors:
            raise
        except CppError as exc:
            self.sink.warn(
                f"instantiation of {template.name} failed: {exc.message}", loc
            )
            return None
        r = Routine(
            decl.name,
            decl.name_location or template.location,
            template.parent,
            decl.type if isinstance(decl.type, FunctionType) else self.tree.types.function(
                base, [p.type for p in decl.parameters]
            ),
            RoutineKind.OPERATOR if decl.is_operator else RoutineKind.FUNCTION,
        )
        r.parameters = decl.parameters
        r.is_instantiation = True
        r.template_of = template
        r.template_args = list(ordered)
        r.is_inline = specs.is_inline
        start_tok = parser.tokens[template.decl_tokens[0]]
        r.position.header = SourceRange(start_tok.location, parser.peek(-1).location)
        self._func_cache[key] = r
        self.tree.register_routine(r)
        if isinstance(template.parent, Namespace):
            template.parent.routines.append(r)
        template.instantiations.append(r)
        self.stats["function_template_instantiations"] += 1
        if parser.at("{"):
            body_start = parser.pos
            close_idx = parser.skip_balanced("{")
            r.position.body = SourceRange(
                parser.tokens[body_start].location, parser.tokens[close_idx].location
            )
            parser.parse_function_body_at(r, body_start)
        if self.mode is InstantiationMode.PRELINK:
            r.flags["il_visible"] = False
            self.prelink_requests.append(
                (template.name, tuple(t.spelling() for t in ordered), loc)
            )
        return r

    # -- specializations / prelink ----------------------------------------------------------------

    def register_explicit_specialization(
        self, primary: Template, args: list[Type], cls: Class
    ) -> None:
        key = (id(primary), tuple(args))
        self._explicit_specs[key] = cls
        self._class_cache[key] = cls

    def _hide_from_il(self, cls: Class) -> None:
        cls.flags = getattr(cls, "flags", {})
        cls.flags["il_visible"] = False  # type: ignore[attr-defined]
        for r in cls.routines:
            r.flags["il_visible"] = False


def unify(pattern: Type, actual: Type, bindings: dict[str, Type], types) -> bool:
    """Template argument deduction: match ``actual`` against ``pattern``,
    extending ``bindings``.  Loose by design — the front end needs call
    resolution, not full overload semantics."""
    if isinstance(pattern, TemplateParamType):
        target = _decay(actual)
        prior = bindings.get(pattern.name)
        if prior is not None:
            return _decay(prior) is _decay(target) or prior.spelling() == target.spelling()
        bindings[pattern.name] = target
        return True
    if isinstance(pattern, QualifiedType):
        return unify(pattern.base, _unqual(actual), bindings, types)
    if isinstance(pattern, ReferenceType):
        return unify(pattern.referenced, _unref(actual), bindings, types)
    if isinstance(pattern, PointerType):
        s = _decay(actual)
        if isinstance(s, PointerType):
            return unify(pattern.pointee, s.pointee, bindings, types)
        if isinstance(s, ArrayType):
            return unify(pattern.pointee, s.element, bindings, types)
        return False
    if isinstance(pattern, TemplateIdType):
        s = _decay(actual)
        if isinstance(s, ClassType):
            decl = s.decl
            src = decl.template_of
            primary = src.primary if (src is not None and src.primary is not None) else src
            if primary is template_primary(pattern.template):
                if len(pattern.args) == len(decl.template_args):
                    return all(
                        unify(p, a, bindings, types)
                        for p, a in zip(pattern.args, decl.template_args)
                    )
        return False
    if isinstance(pattern, NonTypeArg):
        if pattern.dependent:
            prior = bindings.get(pattern.text)
            if prior is not None:
                return prior.spelling() == actual.spelling()
            bindings[pattern.text] = actual
            return True
        return pattern.spelling() == actual.spelling()
    # concrete pattern: loose compatibility
    if pattern is actual or pattern.strip() is actual.strip():
        return True
    pa, aa = pattern.strip(), actual.strip()
    return pa.class_decl() is None and aa.class_decl() is None and not isinstance(
        pa, (PointerType, ArrayType)
    ) and not isinstance(aa, (PointerType, ArrayType))


def template_primary(t: Template) -> Template:
    """The primary template behind ``t`` (itself unless a specialization)."""
    return t.primary if t.primary is not None else t


def _decay(t: Type) -> Type:
    """Strip references, cv, and typedefs for deduction binding."""
    while True:
        if isinstance(t, ReferenceType):
            t = t.referenced
        elif isinstance(t, QualifiedType):
            t = t.base
        elif isinstance(t, TypedefType):
            t = t.decl.underlying
        else:
            return t


def _unref(t: Type) -> Type:
    return t.referenced if isinstance(t, ReferenceType) else t


def _unqual(t: Type) -> Type:
    while isinstance(t, (QualifiedType, ReferenceType)):
        t = t.base if isinstance(t, QualifiedType) else t.referenced
    return t
