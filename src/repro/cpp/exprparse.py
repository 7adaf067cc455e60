"""Expression parsing with call extraction and light type inference.

The front end does not build expression ASTs; it computes just enough
typing to resolve *which routine a call refers to* and records a
:class:`~repro.cpp.il.CallSite` on the routine being parsed.  That is
exactly the information the paper's PDB carries (``rcall`` rows) and what
pdbtree/TAU consume.

Resolution the paper calls out explicitly and we implement:

* member calls through objects/references/pointers (virtuality flagged),
* overloaded operators (member and free, e.g. ``cout << x`` chains),
* constructor calls for temporaries (``throw Overflow()``), ``new``,
  and (in :mod:`stmtparse`) object declarations and scope-end destructors
  — EDG's "lifetime" handling,
* function template calls with argument deduction, triggering used-mode
  instantiation,
* member calls on instantiated class templates, triggering lazy body
  instantiation of just the members actually used.

Inside a *template definition*, dependent expressions resolve to nothing
and record no calls — calls materialise when the body is re-parsed at
instantiation, faithfully to how EDG's used mode populates the IL.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from repro.cpp.cpptypes import (
    ArrayType,
    FunctionType,
    PointerType,
    Type,
)
from repro.cpp.diagnostics import CppError
from repro.cpp.il import (
    Class,
    Enum,
    Namespace,
    Routine,
    Template,
    TemplateKind,
    Typedef,
    Variable,
    Virtuality,
)
from repro.cpp.scope import EnumeratorRef, LocalVar
from repro.cpp.source import SourceLocation
from repro.cpp.tokens import BINARY_PRECEDENCE, KEYWORDS, TokenKind
from repro.cpp.typeparse import TypeParserMixin


@dataclass
class ExprInfo:
    """Everything later parse stages need to know about an expression."""

    type: Type
    #: unresolved overload set (the expression names functions)
    routines: list[Routine] = dc_field(default_factory=list)
    #: function templates the name may refer to
    templates: list[Template] = dc_field(default_factory=list)
    #: explicit template args given at the name (``max<int>``)
    explicit_args: Optional[list[Type]] = None
    #: the expression names a type (enables ``T(args)`` construction)
    is_type: bool = False
    #: member access went through a pointer/reference (virtual dispatch)
    via_indirection: bool = False
    name: str = ""

    @property
    def callable(self) -> bool:
        return bool(self.routines or self.templates)


_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])


class ExprParserMixin(TypeParserMixin):
    """Expression grammar; mixed into the full Parser."""

    # -- entry points --------------------------------------------------------

    def parse_expression(self) -> ExprInfo:
        """assignment-expression (no top-level comma)."""
        return self._parse_assignment()

    def parse_comma_expression(self) -> ExprInfo:
        e = self._parse_assignment()
        while self.at(","):
            self.advance()
            e = self._parse_assignment()
        return e

    def _unknown(self, hint: str = "") -> ExprInfo:
        return ExprInfo(self.types.unknown(hint))

    # -- assignment / ternary ---------------------------------------------------

    def _parse_assignment(self) -> ExprInfo:
        if self.at("throw"):
            return self._parse_throw()
        lhs = self._parse_ternary()
        if self.cur.kind is TokenKind.PUNCT and self.cur.text in _ASSIGN_OPS:
            op = self.advance()
            rhs = self._parse_assignment()
            self._maybe_operator_call(op.text, lhs, [rhs], op.location)
            return ExprInfo(lhs.type)
        return lhs

    def _parse_throw(self) -> ExprInfo:
        self.expect("throw")
        if not self.at_any(";", ")", ","):
            self._parse_assignment()
        return ExprInfo(self.types.void)

    def _parse_ternary(self) -> ExprInfo:
        cond = self._parse_binary()
        if self.at("?"):
            self.advance()
            then = self.parse_comma_expression()
            self.expect(":")
            self._parse_assignment()
            return ExprInfo(then.type)
        return cond

    # -- binary operators ----------------------------------------------------------

    def _parse_binary(self, min_prec: int = 1) -> ExprInfo:
        """Precedence climbing: one unary operand, then every operator
        binding at least ``min_prec``; recurses only for a right operand."""
        lhs = self._parse_unary()
        while True:
            op = self.cur
            prec = BINARY_PRECEDENCE.get(op.text, 0) if op.kind is TokenKind.PUNCT else 0
            if prec < min_prec:
                return lhs
            # ">" can end a template argument list; the template-arg parser
            # never descends here, so a ">" in expression context is an op.
            self.advance()
            rhs = self._parse_binary(prec + 1)
            result = self._maybe_operator_call(op.text, lhs, [rhs], op.location)
            lhs = result if result is not None else ExprInfo(
                self._builtin_binary_type(op.text, lhs, rhs)
            )

    def _builtin_binary_type(self, op: str, lhs: ExprInfo, rhs: ExprInfo) -> Type:
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return self.types.bool_
        for e in (lhs, rhs):
            s = e.type.strip()
            if s is self.types.builtins["double"] or s is self.types.builtins["float"]:
                return s
        s = lhs.type.strip()
        if isinstance(s, (PointerType, ArrayType)):
            return lhs.type
        return self.types.int_

    def _maybe_operator_call(
        self, op: str, lhs: ExprInfo, rhs_args: list[ExprInfo], loc: SourceLocation
    ) -> Optional[ExprInfo]:
        """If ``lhs`` is of class type and ``operator<op>`` is declared
        (member or free), record the call and return its result."""
        cls = lhs.type.class_decl()
        opname = f"operator{op}"
        if cls is not None:
            members = cls.find_routines(opname)
            if members:
                r = self._pick_overload(members, rhs_args)
                if r is not None:
                    self._record_call(r, loc, via_object=True)
                    return ExprInfo(self._return_type_of(r))
            # free operator: operator<<(ostream&, T) style
            free = self.binder.lookup(opname)
            if isinstance(free, list):
                cands = [
                    r for r in free
                    if isinstance(r, Routine) and len(r.parameters) == 1 + len(rhs_args)
                ]
                for r in cands:
                    p0 = r.parameters[0].type.class_decl()
                    if p0 is not None and cls.derived_from(p0):
                        self._record_call(r, loc, via_object=False)
                        return ExprInfo(self._return_type_of(r))
                templs = [t for t in free if isinstance(t, Template)]
                inst = self._try_template_call(
                    templs, [lhs] + rhs_args, None, loc
                )
                if inst is not None:
                    return inst
        if lhs.type.is_dependent:
            return ExprInfo(self.types.unknown("dependent"))
        return None

    # -- unary ------------------------------------------------------------------------

    def _parse_unary(self) -> ExprInfo:
        t = self.cur
        if t.is_punct("!"):
            self.advance()
            self._parse_unary()
            return ExprInfo(self.types.bool_)
        if t.is_punct("-") or t.is_punct("+") or t.is_punct("~"):
            self.advance()
            e = self._parse_unary()
            return ExprInfo(e.type)
        if t.is_punct("++") or t.is_punct("--"):
            op = self.advance()
            e = self._parse_unary()
            self._maybe_operator_call(op.text, e, [], op.location)
            return ExprInfo(e.type)
        if t.is_punct("*"):
            op = self.advance()
            e = self._parse_unary()
            s = e.type.strip()
            if isinstance(s, PointerType):
                return ExprInfo(s.pointee)
            if isinstance(s, ArrayType):
                return ExprInfo(s.element)
            r = self._maybe_operator_call("*", e, [], op.location)
            return r if r is not None else self._unknown("deref")
        if t.is_punct("&"):
            self.advance()
            e = self._parse_unary()
            return ExprInfo(self.types.pointer_to(e.type))
        if t.is_ident("sizeof"):
            self.advance()
            if self.at("("):
                mark = self.mark()
                self.advance()
                ty = self.try_parse_type()
                if ty is not None:
                    ty = self.parse_ptr_operators(ty)
                    if self.at(")"):
                        self.advance()
                        return ExprInfo(self.types.builtin("unsigned long"))
                self.rewind(mark)
            self._parse_unary()
            return ExprInfo(self.types.builtin("unsigned long"))
        if t.is_ident("new"):
            return self._parse_new()
        if t.is_ident("delete"):
            return self._parse_delete()
        if t.kind is TokenKind.IDENT and t.text in (
            "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast"
        ):
            self.advance()
            self.expect("<")
            ty = self.parse_full_type()
            self.expect(">")
            self.expect("(")
            self.parse_comma_expression()
            self.expect(")")
            return ExprInfo(ty)
        return self._parse_postfix()

    def _parse_new(self) -> ExprInfo:
        new_tok = self.expect("new")
        if self.at("("):
            self.skip_balanced("(")  # placement new (rare)
        base = self.parse_type_specifier()
        base = self.parse_ptr_operators(base)
        if self.at("["):
            self.advance()
            if not self.at("]"):
                self.parse_comma_expression()
            self.expect("]")
            self._record_ctor(base, [], new_tok.location)
            return ExprInfo(self.types.pointer_to(base))
        args: list[ExprInfo] = []
        if self.at("("):
            args = self._parse_call_args()
        self._record_ctor(base, args, new_tok.location)
        return ExprInfo(self.types.pointer_to(base))

    def _parse_delete(self) -> ExprInfo:
        del_tok = self.expect("delete")
        if self.at("["):
            self.advance()
            self.expect("]")
        e = self._parse_unary()
        s = e.type.strip()
        if isinstance(s, PointerType):
            cls = s.pointee.class_decl()
            if cls is not None:
                dtor = self._ensure_destructor(cls)
                if dtor is not None:
                    self._record_call(dtor, del_tok.location, via_object=True)
        return ExprInfo(self.types.void)

    # -- postfix ----------------------------------------------------------------------

    def _parse_postfix(self) -> ExprInfo:
        e = self._parse_primary()
        while True:
            if self.at("("):
                loc = self.loc()
                args = self._parse_call_args()
                e = self._resolve_call(e, args, loc)
            elif self.at(".") or self.at("->"):
                arrow = self.advance()
                e = self._parse_member_access(e, indirection=arrow.text == "->")
            elif self.at("["):
                open_tok = self.advance()
                idx = self.parse_comma_expression()
                self.expect("]")
                r = self._maybe_operator_call("[]", e, [idx], open_tok.location)
                if r is not None:
                    e = r
                else:
                    s = e.type.strip()
                    if isinstance(s, ArrayType):
                        e = ExprInfo(s.element)
                    elif isinstance(s, PointerType):
                        e = ExprInfo(s.pointee)
                    else:
                        e = self._unknown("subscript")
            elif self.at("++") or self.at("--"):
                op = self.advance()
                self._maybe_operator_call(op.text, e, [], op.location)
                e = ExprInfo(e.type)
            else:
                return e

    def _parse_call_args(self) -> list[ExprInfo]:
        self.expect("(")
        args: list[ExprInfo] = []
        if self.accept(")"):
            return args
        while True:
            args.append(self._parse_assignment())
            if not self.accept(","):
                break
        self.expect(")")
        return args

    def _parse_member_access(self, obj: ExprInfo, indirection: bool) -> ExprInfo:
        if self.at("~"):
            self.advance()
            nm = self.expect_ident()
            cls = self._object_class(obj, indirection)
            if cls is not None:
                d = self._ensure_destructor(cls)
                if d is not None:
                    return ExprInfo(self.types.void, routines=[d], via_indirection=indirection)
            return self._unknown("dtor-call")
        nm = self.expect_ident()
        explicit_args: Optional[list[Type]] = None
        if self.at("<"):
            explicit_args = self.try_parse_template_args()
        cls = self._object_class(obj, indirection)
        if cls is None:
            # dependent or unmodeled object type: swallow silently; calls
            # materialise at instantiation re-parse.
            return self._unknown("member:" + nm.text)
        found = None
        from repro.cpp.scope import Binder

        found = Binder.find_in_class(cls, nm.text)
        if found is None:
            self.sink.note(f"no member {nm.text!r} in {cls.full_name}", nm.location)
            return self._unknown(nm.text)
        return self._binding_to_expr(found, nm.text, explicit_args, indirection)

    def _object_class(self, obj: ExprInfo, indirection: bool) -> Optional[Class]:
        t = obj.type
        if indirection:
            s = t.strip()
            if isinstance(s, PointerType):
                t = s.pointee
            else:
                # operator-> chain on smart pointers
                r = self._maybe_operator_call("->", obj, [], self.loc())
                if r is not None:
                    s2 = r.type.strip()
                    if isinstance(s2, PointerType):
                        t = s2.pointee
                    else:
                        t = r.type
                else:
                    return None
        return t.class_decl()

    # -- primary -------------------------------------------------------------------------

    def _parse_primary(self) -> ExprInfo:
        t = self.cur
        if t.kind is TokenKind.NUMBER:
            self.advance()
            txt = t.text.lower()
            if ("." in txt or "e" in txt) and not txt.startswith("0x"):
                return ExprInfo(self.types.double)
            return ExprInfo(self.types.int_)
        if t.kind is TokenKind.STRING:
            self.advance()
            return ExprInfo(
                self.types.pointer_to(self.types.qualified(self.types.builtin("char"), const=True))
            )
        if t.kind is TokenKind.CHAR:
            self.advance()
            return ExprInfo(self.types.builtin("char"))
        if t.is_ident("true") or t.is_ident("false"):
            self.advance()
            return ExprInfo(self.types.bool_)
        if t.is_ident("this"):
            self.advance()
            cls = self._this_class()
            if cls is not None:
                return ExprInfo(self.types.pointer_to(self.types.class_type(cls)))
            return self._unknown("this")
        if t.is_punct("("):
            # cast or parenthesised expression
            mark = self.mark()
            self.advance()
            ty = self.try_parse_type()
            if ty is not None:
                ty = self.parse_ptr_operators(ty)
                if self.at(")"):
                    self.advance()
                    # C-style cast only when an operand follows
                    if not self.at_any(")", ",", ";", "]", "}"):
                        self._parse_unary()
                        return ExprInfo(ty)
            self.rewind(mark)
            self.advance()
            e = self.parse_comma_expression()
            self.expect(")")
            return e
        if t.kind is TokenKind.IDENT and (t.text not in KEYWORDS or t.text in (
            "operator",
        )):
            return self._parse_id_expression()
        # builtin function-style cast: int(x), double(y)
        if t.kind is TokenKind.IDENT and t.text in (
            "int", "bool", "char", "double", "float", "long", "short", "unsigned", "void"
        ):
            ty = self.parse_type_specifier()
            if self.at("("):
                self._parse_call_args()
            return ExprInfo(ty)
        raise CppError(f"unexpected token {t.text!r} in expression", t.location)

    def _this_class(self) -> Optional[Class]:
        if self.binder.current_class is not None:
            return self.binder.current_class
        r = self.binder.current_routine
        if r is not None:
            return r.parent_class
        return None

    def _parse_id_expression(self) -> ExprInfo:
        """A (possibly qualified, possibly templated) name in expression
        position."""
        self.accept("::")
        parts: list[str] = []
        explicit_args: Optional[list[Type]] = None
        while True:
            if self.at_ident("operator"):
                # address/call of an operator function by name
                from repro.cpp.typeparse import Declarator

                d = Declarator()
                self.advance()
                name = "operator" + self._parse_operator_name(d)
                loc = self.loc()
                break
            nm = self.expect_ident()
            name, loc = nm.text, nm.location
            if self.at("<"):
                saved = self.mark()
                args = self.try_parse_template_args()
                if args is not None and self._plausible_template_name(parts, name):
                    explicit_args = args
                else:
                    self.rewind(saved)
            if self.at("::"):
                self.advance()
                parts.append(name + _render_args(explicit_args))
                explicit_args = None
                continue
            break
        if parts:
            binding = self.binder.lookup_qualified(
                [p.split("<")[0] for p in parts], name
            )
            # fall back to scanning class instantiations for A<x>::member
            if binding is None:
                binding = self._qualified_fallback(parts, name)
        else:
            binding = self.binder.lookup(name)
        if binding is None:
            self.sink.note(f"unresolved name {name!r}", loc)
            return self._unknown(name)
        return self._binding_to_expr(binding, name, explicit_args, indirection=False)

    def _plausible_template_name(self, parts: list[str], name: str) -> bool:
        """Heuristic for ``name<`` in expression context: only treat as a
        template-id when the name visibly binds to templates or a type."""
        if parts:
            return True
        b = self.binder.lookup(name)
        if isinstance(b, list):
            return any(isinstance(x, Template) for x in b)
        return isinstance(b, (Class, Typedef)) or isinstance(b, Type)

    def _qualified_fallback(self, parts: list[str], name: str):
        """Resolve ``Stack<int>::member`` where the qualifier is a
        template-id the scope-path walker does not track."""
        qual = "::".join(parts)
        cls = self.tree.find_class(qual)
        if cls is None and len(parts) == 1:
            for c in self.tree.all_classes:
                if c.name == parts[0]:
                    cls = c
                    break
        if cls is not None:
            from repro.cpp.scope import Binder

            return Binder.find_in_class(cls, name)
        return None

    def _binding_to_expr(
        self,
        binding,
        name: str,
        explicit_args: Optional[list[Type]],
        indirection: bool,
    ) -> ExprInfo:
        if isinstance(binding, LocalVar):
            return ExprInfo(binding.type, name=name)
        if isinstance(binding, Variable):
            return ExprInfo(binding.type, name=name)
        if isinstance(binding, EnumeratorRef):
            return ExprInfo(self.types.enum_type(binding.enum), name=name)
        if isinstance(binding, Type):
            return ExprInfo(binding, is_type=True, name=name)
        if isinstance(binding, Class):
            return ExprInfo(self.types.class_type(binding), is_type=True, name=name)
        if isinstance(binding, Typedef):
            return ExprInfo(self.types.typedef_type(binding), is_type=True, name=name)
        if isinstance(binding, Enum):
            return ExprInfo(self.types.enum_type(binding), is_type=True, name=name)
        if isinstance(binding, Namespace):
            return self._unknown(name)
        from repro.cpp.il import Field

        if isinstance(binding, Field):
            return ExprInfo(binding.type, name=name)
        if isinstance(binding, Routine):
            binding = [binding]
        if isinstance(binding, list):
            routines = [r for r in binding if isinstance(r, Routine)]
            templates = [
                t for t in binding
                if isinstance(t, Template)
                and t.kind in (TemplateKind.FUNCTION, TemplateKind.STATIC_MEMBER)
            ]
            class_templates = [
                t for t in binding
                if isinstance(t, Template) and t.kind is TemplateKind.CLASS
            ]
            if class_templates and explicit_args is not None:
                # Stack<int>(...) — construction of a template instantiation
                if any(a.is_dependent for a in explicit_args):
                    return ExprInfo(
                        self.types.template_id(class_templates[0], explicit_args),
                        is_type=True,
                        name=name,
                    )
                assert self.engine is not None
                cls = self.engine.instantiate_class(
                    class_templates[0], explicit_args, self.loc()
                )
                return ExprInfo(self.types.class_type(cls), is_type=True, name=name)
            if routines or templates:
                rtype = (
                    self._return_type_of(routines[0])
                    if routines
                    else self.types.unknown(name)
                )
                return ExprInfo(
                    rtype,
                    routines=routines,
                    templates=templates,
                    explicit_args=explicit_args,
                    via_indirection=indirection,
                    name=name,
                )
        return self._unknown(name)

    # -- call resolution --------------------------------------------------------------

    def _resolve_call(
        self, callee: ExprInfo, args: list[ExprInfo], loc: SourceLocation
    ) -> ExprInfo:
        # T(args): construction of a temporary
        if callee.is_type:
            self._record_ctor(callee.type, args, loc)
            return ExprInfo(callee.type)
        best: Optional[Routine] = None
        if callee.routines:
            best = self._pick_overload(callee.routines, args)
        if callee.templates:
            # deduction may beat an existing (e.g. previously
            # instantiated) overload whose parameter types only convert;
            # ties go to the non-template (the C++ preference)
            best_score = self._overload_score(best, args) if best is not None else -1
            if best_score < 10 + 5 * len(args):
                assert self.engine is not None
                for t in callee.templates:
                    inst = self.engine.instantiate_function_template(
                        t, [a.type for a in args], callee.explicit_args, loc
                    )
                    if inst is None:
                        continue
                    if self._overload_score(inst, args) > best_score:
                        best = inst
                    break
        if best is not None:
            self._record_call(best, loc, via_object=True, indirection=callee.via_indirection)
            return ExprInfo(self._return_type_of(best))
        # object with operator()
        cls = callee.type.class_decl()
        if cls is not None:
            ops = cls.find_routines("operator()")
            if ops:
                r = self._pick_overload(ops, args)
                if r is not None:
                    self._record_call(r, loc, via_object=True)
                    return ExprInfo(self._return_type_of(r))
        if not callee.type.is_dependent and callee.name and not callee.callable:
            self.sink.note(f"call target {callee.name!r} not resolved", loc)
        return self._unknown("call")

    def _overload_score(self, r: Routine, args: list[ExprInfo]) -> int:
        """The same viability score _pick_overload uses, for one routine."""
        score = 0
        if len(args) == len(r.parameters):
            score += 10
        for a, p in zip(args, r.parameters):
            score += _type_match_score(a.type, p.type)
        return score

    def _pick_overload(
        self, candidates: list[Routine], args: list[ExprInfo]
    ) -> Optional[Routine]:
        """Arity-first overload selection with a light type-match score."""
        viable: list[tuple[int, Routine]] = []
        for r in candidates:
            params = r.parameters
            required = sum(1 for p in params if p.default_text is None)
            if not (required <= len(args) <= len(params)) and not r.signature.ellipsis:
                continue
            score = 0
            if len(args) == len(params):
                score += 10
            for a, p in zip(args, params):
                score += _type_match_score(a.type, p.type)
            viable.append((score, r))
        if not viable:
            # No candidate admits this arity.  The source presumably
            # compiles (extraction, not validation, is our job), so fall
            # back to the nearest-arity candidate rather than losing the
            # call reference.
            nearest = min(
                candidates, key=lambda r: abs(len(r.parameters) - len(args))
            )
            return nearest
        viable.sort(key=lambda x: -x[0])
        return viable[0][1]

    def _try_template_call(
        self,
        templates: list[Template],
        args: list[ExprInfo],
        explicit_args: Optional[list[Type]],
        loc: SourceLocation,
    ) -> Optional[ExprInfo]:
        assert self.engine is not None
        for t in templates:
            r = self.engine.instantiate_function_template(
                t, [a.type for a in args], explicit_args, loc
            )
            if r is not None:
                self._record_call(r, loc, via_object=False)
                return ExprInfo(self._return_type_of(r))
        return None

    def _return_type_of(self, r: Routine) -> Type:
        if isinstance(r.signature, FunctionType):
            return r.signature.return_type
        return self.types.unknown(r.name)

    # -- call recording -------------------------------------------------------------------

    def _record_call(
        self,
        callee: Routine,
        loc: SourceLocation,
        via_object: bool,
        indirection: bool = False,
    ) -> None:
        """Record a static call reference and mark the callee used.

        Virtuality: a call is flagged virtual when the callee is declared
        virtual (pdbtree's ``(VIRTUAL)`` tag keys off the call site)."""
        caller = self.binder.current_routine
        if caller is not None:
            is_virtual = callee.virtuality is not Virtuality.NO
            caller.add_call(callee, is_virtual, loc)
        if self.engine is not None:
            self.engine.note_routine_used(callee)

    def _record_ctor(self, ty: Type, args: list[ExprInfo], loc: SourceLocation) -> None:
        """Record the constructor call implied by constructing a ``ty``."""
        cls = ty.class_decl()
        if cls is None:
            return
        ctors = cls.constructors()
        if not ctors:
            return  # implicit default ctor: no user routine to reference
        r = self._pick_overload(ctors, args)
        if r is None:
            r = ctors[0]
        self._record_call(r, loc, via_object=True)

    def _ensure_destructor(self, cls: Class) -> Optional[Routine]:
        return cls.destructor()


def _type_match_score(arg: Type, param: Type) -> int:
    """Loose compatibility score between an argument and parameter type."""
    if arg is param:
        return 5
    sa, sp = arg.strip(), param.strip()
    if sa is sp:
        return 4
    ca, cp = sa.class_decl(), sp.class_decl()
    if ca is not None and cp is not None:
        if ca is cp:
            return 4
        if ca.derived_from(cp):
            return 3
        return 0
    if (ca is None) == (cp is None):
        return 1  # both builtin-ish: convertible
    return 0


def _render_args(args: Optional[list[Type]]) -> str:
    if not args:
        return ""
    return "<" + ", ".join(a.spelling() for a in args) + ">"
