"""C preprocessor: includes, macros, conditionals.

Implements the subset the corpora need, with standard semantics:

* ``#include "..."`` / ``#include <...>`` via :class:`SourceManager`
  resolution; direct inclusions are recorded on the including
  :class:`SourceFile` (the PDB ``sinc`` attribute),
* object- and function-like macros with ``#`` stringize and ``##`` paste,
  recursion blocked by an expansion stack,
* ``#define/#undef/#ifdef/#ifndef/#if/#elif/#else/#endif`` with a constant
  expression evaluator in C's semantics (``defined``, integer arithmetic,
  comparisons, short-circuit logical operators, ternary),
* ``__FILE__`` and ``__LINE__`` builtins,
* ``#pragma`` / ``#error`` passthrough/report.

Every macro definition produces a :class:`MacroRecord` so the IL Analyzer
can emit PDB ``ma`` items (paper Table 1).

Expanded tokens keep the *invocation site* location, so downstream PDB
positions always point at real user source.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.cpp.diagnostics import CppError, DiagnosticSink, TooManyErrors
from repro.cpp.headercache import CACHE_DEPTH_LIMIT, HeaderCache
from repro.cpp.lexer import tokenize
from repro.cpp.source import SourceFile, SourceLocation, SourceManager
from repro.cpp.tokens import BINARY_PRECEDENCE, Token, TokenKind, tokens_to_text

#: Directive names the preprocessor understands.
_DIRECTIVES = frozenset(
    "include define undef ifdef ifndef if elif else endif pragma error warning".split()
)


@dataclass
class Macro:
    """A macro definition.

    ``params`` is None for object-like macros; a (possibly empty) name list
    for function-like macros.  ``variadic`` marks a trailing ``...``.
    """

    name: str
    params: Optional[list[str]]
    body: list[Token]
    location: SourceLocation
    variadic: bool = False

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


@dataclass
class MacroRecord:
    """Definition/undefinition event, for the PDB ``ma`` item stream."""

    name: str
    kind: str  # "def" | "undef"
    text: str  # the full directive text, e.g. "#define MAX(a,b) ..."
    location: SourceLocation


@dataclass
class _CondState:
    """State of one #if/#elif/#else/#endif nest level."""

    taken: bool  # a branch at this level has been taken
    active: bool  # current branch is live
    seen_else: bool = False


class Preprocessor:
    """Preprocesses one translation unit into a flat token list."""

    def __init__(
        self,
        manager: SourceManager,
        sink: Optional[DiagnosticSink] = None,
        predefined: Optional[dict[str, str]] = None,
        header_cache: Optional[HeaderCache] = None,
    ):
        self.manager = manager
        self.sink = sink or DiagnosticSink()
        #: cross-TU header memo, shared by every preprocessor a Frontend
        #: creates; when set, the macro table tracks reads so cached
        #: subtrees key on the macro state they actually consulted
        self.header_cache = header_cache
        self.macros: dict[str, Macro] = (
            {} if header_cache is None else header_cache.wrap_macro_table()
        )
        self.macro_records: list[MacroRecord] = []
        #: every file whose tokens this preprocessor consumed, in first-use
        #: order — the dependency set a build cache must hash (pdbbuild)
        self.consumed_files: list[SourceFile] = []
        self._include_stack: list[SourceFile] = []
        self._expansion_stack: list[str] = []
        for name in ("__FILE__", "__LINE__"):
            self._predefine(name, "")  # bodies synthesised per use site
        for name, value in (predefined or {}).items():
            self._predefine(name, value)

    def _predefine(self, name: str, value: str) -> None:
        tmp = SourceFile(name="<predefined>", text=value)
        body = [t for t in tokenize(tmp) if t.kind is not TokenKind.EOF]
        loc = SourceLocation(tmp, 1, 1)
        self.macros[name] = Macro(name, None, body, loc)

    # -- top-level driver ----------------------------------------------

    def preprocess(self, file: SourceFile) -> list[Token]:
        """Preprocess ``file`` and everything it includes; returns the
        token stream for the whole translation unit (single EOF at end)."""
        out = self._process_file(file)
        eof_loc = SourceLocation(file, file.text.count("\n") + 1, 1)
        out.append(Token(TokenKind.EOF, "", eof_loc))
        return out

    @property
    def _recover(self) -> bool:
        """Whether user-source errors should be reported and skipped."""
        return not self.sink.fatal_errors

    def _process_file(
        self, file: SourceFile, loc: Optional[SourceLocation] = None
    ) -> list[Token]:
        """Process one file; ``loc`` is the including ``#include`` line
        (None for the main file), attached to include-graph errors so the
        rendered diagnostic points at the offending directive."""
        if file in self._include_stack:
            cycle = " -> ".join(f.name for f in self._include_stack + [file])
            raise CppError(f"circular include: {cycle}", loc)
        if len(self._include_stack) > 200:
            raise CppError(f"include depth limit exceeded at {file.name}", loc)
        if file not in self.consumed_files:
            self.consumed_files.append(file)
        hc = self.header_cache
        if hc is not None and hc._recs:
            depth = len(self._include_stack) + 1
            for rec in hc._recs:
                rec.note_file(file, depth)
        self._include_stack.append(file)
        try:
            with obs.observe("cpp.preprocess.lex", cat="cpp", file=file.name):
                toks = tokenize(file, self.sink)
            return self._process_tokens(toks, file)
        finally:
            self._include_stack.pop()

    def _process_tokens(self, toks: list[Token], file: SourceFile) -> list[Token]:
        out: list[Token] = []
        conds: list[_CondState] = []
        i = 0
        n = len(toks)
        while i < n:
            tok = toks[i]
            if tok.kind is TokenKind.EOF:
                break
            if tok.is_punct("#") and tok.at_line_start:
                line, i = self._grab_line(toks, i + 1)
                try:
                    self._directive(line, tok.location, file, conds, out)
                except TooManyErrors:
                    raise
                except CppError as exc:
                    # recovery: report the directive's failure, skip it
                    if not self._recover:
                        raise
                    self.sink.soft_error(exc.message, exc.location or tok.location)
                continue
            active = all(c.active for c in conds)
            if not active:
                i += 1
                continue
            if tok.kind is TokenKind.IDENT and tok.text in self.macros:
                try:
                    expanded, i = self._maybe_expand(toks, i)
                except TooManyErrors:
                    raise
                except CppError as exc:
                    # recovery: emit the name unexpanded and move on
                    if not self._recover:
                        raise
                    self.sink.soft_error(exc.message, exc.location or tok.location)
                    out.append(tok)
                    i += 1
                    continue
                out.extend(expanded)
                continue
            out.append(tok)
            i += 1
        if conds:
            self.sink.error("unterminated conditional directive", toks[0].location)
        return out

    @staticmethod
    def _grab_line(toks: list[Token], i: int) -> tuple[list[Token], int]:
        """Collect tokens up to (not including) the next line start."""
        line: list[Token] = []
        while i < len(toks) and not toks[i].at_line_start and toks[i].kind is not TokenKind.EOF:
            line.append(toks[i])
            i += 1
        return line, i

    # -- directives ------------------------------------------------------

    def _directive(
        self,
        line: list[Token],
        hash_loc: SourceLocation,
        file: SourceFile,
        conds: list[_CondState],
        out: list[Token],
    ) -> None:
        if not line:  # null directive "#"
            return
        name = line[0].text
        rest = line[1:]
        active = all(c.active for c in conds)
        # Conditional structure is tracked even in inactive regions.
        if name == "ifdef" or name == "ifndef":
            if active and rest:
                defined = rest[0].text in self.macros
                live = defined if name == "ifdef" else not defined
            else:
                live = False
            conds.append(_CondState(taken=live, active=live))
            return
        if name == "if":
            # pushed first: a condition that fails to evaluate reads as false
            st = _CondState(taken=False, active=False)
            conds.append(st)
            if active:
                st.taken = st.active = bool(self._eval_condition(rest, hash_loc))
            return
        if name == "elif":
            if not conds:
                self.sink.error("#elif without #if", hash_loc)
                return
            st = conds[-1]
            if st.seen_else:
                self.sink.error("#elif after #else", hash_loc)
                return
            outer_active = all(c.active for c in conds[:-1])
            if st.taken or not outer_active:
                st.active = False
            else:
                st.active = bool(self._eval_condition(rest, hash_loc))
                st.taken = st.taken or st.active
            return
        if name == "else":
            if not conds:
                self.sink.error("#else without #if", hash_loc)
                return
            st = conds[-1]
            if st.seen_else:
                self.sink.error("duplicate #else", hash_loc)
                return
            st.seen_else = True
            outer_active = all(c.active for c in conds[:-1])
            st.active = (not st.taken) and outer_active
            st.taken = True
            return
        if name == "endif":
            if not conds:
                self.sink.error("#endif without #if", hash_loc)
                return
            conds.pop()
            return
        if not active:
            return
        if name == "include":
            self._do_include(rest, hash_loc, file, out)
        elif name == "define":
            self._do_define(rest, hash_loc)
        elif name == "undef":
            if rest:
                self.macros.pop(rest[0].text, None)
                self.macro_records.append(
                    MacroRecord(rest[0].text, "undef", "#undef " + rest[0].text, hash_loc)
                )
        elif name == "pragma":
            pass  # pragmas are accepted and ignored
        elif name in ("error", "warning"):
            msg = tokens_to_text(rest)
            if name == "error":
                self.sink.error(f"#error {msg}", hash_loc)
            else:
                self.sink.warn(f"#warning {msg}", hash_loc)
        else:
            self.sink.warn(f"unknown directive #{name}", hash_loc)

    def _do_include(
        self,
        rest: list[Token],
        loc: SourceLocation,
        file: SourceFile,
        out: list[Token],
    ) -> None:
        if not rest:
            self.sink.error("#include expects a file name", loc)
            return
        if rest[0].kind is TokenKind.STRING:
            spec, angled = rest[0].text[1:-1], False
        elif rest[0].is_punct("<"):
            # Reconstruct the <...> spec from tokens until ">".
            parts: list[str] = []
            for t in rest[1:]:
                if t.is_punct(">"):
                    break
                parts.append(t.text)
            spec, angled = "".join(parts), True
        else:
            self.sink.error("malformed #include", loc)
            return
        target = self.manager.resolve_include(spec, angled, file)
        if target is None:
            self.sink.error(f"include file not found: {spec}", loc)
            return
        file.add_include(target)
        hc = self.header_cache
        if hc is not None and hc._recs:
            # an enclosing subtree is being recorded: its replay must
            # re-add this edge, re-resolve this spec (a re-registered or
            # shadowing file changes the subtree), and stays valid only
            # while ``target`` is not in the include stack (the branch
            # below consults it either way)
            for rec in hc._recs:
                rec.edges.append((file, target))
                rec.stack_checked.add(target)
                rec.include_checks.append((spec, angled, file, target, target.text))
        if target in self._include_stack:
            # Re-inclusion of an in-progress file: record edge, skip body.
            return
        if hc is None or len(self._include_stack) > CACHE_DEPTH_LIMIT:
            out.extend(self._process_file(target, loc))
        else:
            out.extend(hc.include(self, target, loc))

    def _do_define(self, rest: list[Token], loc: SourceLocation) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            self.sink.error("#define expects a macro name", loc)
            return
        name_tok = rest[0]
        params: Optional[list[str]] = None
        variadic = False
        body_start = 1
        # Function-like only when "(" immediately follows the name.
        if (
            len(rest) > 1
            and rest[1].is_punct("(")
            and not rest[1].leading_space
        ):
            params = []
            i = 2
            while i < len(rest) and not rest[i].is_punct(")"):
                if rest[i].is_punct(","):
                    i += 1
                    continue
                if rest[i].is_punct("..."):
                    variadic = True
                elif rest[i].kind is TokenKind.IDENT:
                    params.append(rest[i].text)
                i += 1
            body_start = i + 1
        body = rest[body_start:]
        macro = Macro(name_tok.text, params, body, name_tok.location, variadic)
        self.macros[name_tok.text] = macro
        text = "#define " + tokens_to_text(rest)
        self.macro_records.append(MacroRecord(name_tok.text, "def", text, name_tok.location))

    # -- macro expansion ---------------------------------------------------

    def _maybe_expand(self, toks: list[Token], i: int) -> tuple[list[Token], int]:
        """Expand the macro reference at ``toks[i]``; returns (tokens, new_i).

        If a function-like macro name is not followed by ``(``, it is not
        an invocation and passes through unchanged.
        """
        tok = toks[i]
        macro = self.macros[tok.text]
        if tok.text in self._expansion_stack:
            return [tok], i + 1
        if macro.is_function_like:
            j = i + 1
            if j >= len(toks) or not toks[j].is_punct("("):
                return [tok], i + 1
            args, j = self._collect_args(toks, j, tok.location)
            replaced = self._substitute(macro, args, tok)
            result = self._rescan(replaced, tok)
            return result, j
        body = self._builtin_or_body(macro, tok)
        replaced = [self._retarget(t, tok) for t in body]
        result = self._rescan(replaced, tok)
        return result, i + 1

    def _builtin_or_body(self, macro: Macro, use: Token) -> list[Token]:
        if macro.name == "__FILE__":
            return [Token(TokenKind.STRING, f'"{use.location.file.name}"', use.location)]
        if macro.name == "__LINE__":
            return [Token(TokenKind.NUMBER, str(use.location.line), use.location)]
        return macro.body

    @staticmethod
    def _retarget(t: Token, use: Token) -> Token:
        """Clone a body token so it reports the invocation-site location."""
        return Token(
            t.kind, t.text, use.location,
            at_line_start=False, leading_space=t.leading_space,
            expanded_from=use.text,
        )

    def _collect_args(
        self, toks: list[Token], i: int, loc: SourceLocation
    ) -> tuple[list[list[Token]], int]:
        """Collect macro arguments; ``toks[i]`` is the opening paren."""
        assert toks[i].is_punct("(")
        depth = 0
        args: list[list[Token]] = [[]]
        j = i
        while j < len(toks):
            t = toks[j]
            if t.kind is TokenKind.EOF:
                break
            if t.is_punct("(") or t.is_punct("[") or t.is_punct("{"):
                depth += 1
                if depth > 1:
                    args[-1].append(t)
            elif t.is_punct(")") or t.is_punct("]") or t.is_punct("}"):
                depth -= 1
                if depth == 0:
                    return args, j + 1
                args[-1].append(t)
            elif t.is_punct(",") and depth == 1:
                args.append([])
            else:
                if depth >= 1:
                    args[-1].append(t)
            j += 1
        raise CppError("unterminated macro argument list", loc)

    def _substitute(self, macro: Macro, args: list[list[Token]], use: Token) -> list[Token]:
        params = macro.params or []
        if args == [[]] and not params:
            args = []
        if macro.variadic:
            fixed, rest = args[: len(params)], args[len(params) :]
            va: list[Token] = []
            for k, a in enumerate(rest):
                if k:
                    va.append(Token(TokenKind.PUNCT, ",", use.location))
                va.extend(a)
            bindings = dict(zip(params, fixed))
            bindings["__VA_ARGS__"] = va
        else:
            if len(args) != len(params):
                raise CppError(
                    f"macro {macro.name} expects {len(params)} argument(s), got {len(args)}",
                    use.location,
                )
            bindings = dict(zip(params, args))
        out: list[Token] = []
        body = macro.body
        i = 0
        while i < len(body):
            t = body[i]
            # Stringize: # param
            if t.is_punct("#") and i + 1 < len(body) and body[i + 1].text in bindings:
                arg = bindings[body[i + 1].text]
                text = tokens_to_text(arg).replace("\\", "\\\\").replace('"', '\\"')
                out.append(Token(TokenKind.STRING, f'"{text}"', use.location))
                i += 2
                continue
            # Paste: lhs ## rhs
            if i + 1 < len(body) and body[i + 1].is_punct("##"):
                lhs = self._expand_binding(t, bindings, use, expand=False)
                rhs_tok = body[i + 2] if i + 2 < len(body) else None
                rhs = (
                    self._expand_binding(rhs_tok, bindings, use, expand=False)
                    if rhs_tok is not None
                    else []
                )
                glue = (lhs[-1].text if lhs else "") + (rhs[0].text if rhs else "")
                out.extend(self._retarget(x, use) for x in lhs[:-1])
                if glue:
                    pasted_file = SourceFile(name="<paste>", text=glue)
                    pasted = [
                        self._retarget(x, use)
                        for x in tokenize(pasted_file)
                        if x.kind is not TokenKind.EOF
                    ]
                    out.extend(pasted)
                out.extend(self._retarget(x, use) for x in rhs[1:])
                i += 3
                continue
            out.extend(
                self._retarget(x, use)
                for x in self._expand_binding(t, bindings, use, expand=True)
            )
            i += 1
        return out

    def _expand_binding(
        self,
        t: Optional[Token],
        bindings: dict[str, list[Token]],
        use: Token,
        expand: bool,
    ) -> list[Token]:
        if t is None:
            return []
        if t.kind is TokenKind.IDENT and t.text in bindings:
            arg = bindings[t.text]
            if expand:
                return self._rescan(list(arg), use)
            return list(arg)
        return [t]

    def _rescan(self, tokens: list[Token], use: Token) -> list[Token]:
        """Re-scan replaced tokens for further macro invocations."""
        self._expansion_stack.append(use.text)
        try:
            out: list[Token] = []
            i = 0
            while i < len(tokens):
                t = tokens[i]
                if t.kind is TokenKind.IDENT and t.text in self.macros and (
                    t.text not in self._expansion_stack
                ):
                    expanded, i = self._maybe_expand(tokens, i)
                    out.extend(expanded)
                else:
                    out.append(t)
                    i += 1
            return out
        finally:
            self._expansion_stack.pop()

    # -- #if expression evaluation ------------------------------------------

    def _eval_condition(self, line: list[Token], loc: SourceLocation) -> int:
        """Evaluate a ``#if`` condition line to an integer."""
        # Phase 1: resolve `defined` before macro expansion.
        resolved: list[Token] = []
        i = 0
        while i < len(line):
            t = line[i]
            if t.is_ident("defined"):
                if i + 1 < len(line) and line[i + 1].is_punct("("):
                    name = line[i + 2].text if i + 2 < len(line) else ""
                    i += 4  # defined ( name )
                else:
                    name = line[i + 1].text if i + 1 < len(line) else ""
                    i += 2
                val = "1" if name in self.macros else "0"
                resolved.append(Token(TokenKind.NUMBER, val, t.location))
                continue
            resolved.append(t)
            i += 1
        # Phase 2: macro-expand.
        expanded = self._rescan(resolved, Token(TokenKind.IDENT, "<#if>", loc))
        # Phase 3: remaining identifiers become 0 (incl. true/false).
        final: list[Token] = []
        for t in expanded:
            if t.kind is TokenKind.IDENT:
                val = "1" if t.text == "true" else "0"
                final.append(Token(TokenKind.NUMBER, val, t.location))
            else:
                final.append(t)
        final.append(Token(TokenKind.EOF, "", loc))
        return _PPExprEvaluator(final, loc, self.sink).evaluate()


class _PPExprEvaluator:
    """Precedence-climbing ``#if`` evaluator with C semantics: ``/`` and
    ``%`` truncate, operands C does not evaluate report nothing, leftover
    tokens are an error, and a value outside the 64-bit ranges, a shift
    count outside ``[0, 64)``, a floating literal or a division by zero
    is reported and reads as 0."""

    def __init__(self, toks: list[Token], loc: SourceLocation, sink: DiagnosticSink):
        self.toks = toks  # ends in an EOF token
        self.pos = 0
        self.loc = loc
        self.sink = sink
        #: > 0 while inside an operand C does not evaluate
        self.unevaluated = 0

    def evaluate(self) -> int:
        if self.toks[0].kind is TokenKind.EOF:
            self.sink.error("empty #if condition", self.loc)
            return 0
        val = self._ternary()
        t = self.toks[self.pos]
        if t.kind is not TokenKind.EOF:
            raise CppError(f"missing binary operator before {t.text!r} in #if", self.loc)
        return val

    def _error(self, message: str) -> int:
        if not self.unevaluated:
            self.sink.error(message, self.loc)
        return 0

    def _checked(self, v: int) -> int:
        if -(1 << 63) <= v < 1 << 64:  # intmax_t or uintmax_t
            return v
        return self._error("integer overflow in #if")

    def _operand(self, unevaluated: bool, parse, *args) -> int:
        self.unevaluated += unevaluated
        v = parse(*args)
        self.unevaluated -= unevaluated
        return v

    def _eat(self, text: str) -> None:
        if self.toks[self.pos].text != text:
            raise CppError(f"malformed #if expression (expected {text!r})", self.loc)
        self.pos += 1

    def _ternary(self) -> int:
        cond = self._binary(1)
        if not self.toks[self.pos].is_punct("?"):
            return cond
        self.pos += 1
        a = self._operand(not cond, self._ternary)
        self._eat(":")
        b = self._operand(bool(cond), self._ternary)
        return a if cond else b

    def _binary(self, min_prec: int) -> int:
        lhs = self._unary()
        while True:
            t = self.toks[self.pos]
            prec = BINARY_PRECEDENCE.get(t.text, 0) if t.kind is TokenKind.PUNCT else 0
            if prec < min_prec:
                return lhs
            if t.text in (".*", "->*"):
                raise CppError(f"unexpected token {t.text!r} in #if expression", self.loc)
            self.pos += 1
            rhs = self._operand(t.text == ("||" if lhs else "&&"), self._binary, prec + 1)
            lhs = self._apply(t.text, lhs, rhs)

    def _apply(self, op: str, a: int, b: int) -> int:
        if op in ("<<", ">>") and not 0 <= b < 64:
            return self._error("shift count out of range in #if")
        if op in ("/", "%"):
            if b == 0:
                return self._error("division by zero in #if")
            q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
            return self._checked(q if op == "/" else a - b * q)
        return self._checked(int(_PP_BINARY[op](a, b)))

    def _unary(self) -> int:
        t = self.toks[self.pos]
        if t.kind is TokenKind.EOF:
            raise CppError("malformed #if expression", self.loc)
        self.pos += 1
        if t.kind is TokenKind.PUNCT and t.text in _PP_UNARY:
            return self._checked(int(_PP_UNARY[t.text](self._unary())))
        if t.is_punct("("):
            v = self._ternary()
            self._eat(")")
            return v
        if t.kind is TokenKind.NUMBER:
            return self._number(t.text)
        if t.kind is TokenKind.CHAR:
            body = t.text[1:-1]
            if body.startswith("\\"):
                esc = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39}
                return esc.get(body[1:2], 0)
            return ord(body[0]) if body else 0
        raise CppError(f"unexpected token {t.text!r} in #if expression", self.loc)

    def _number(self, text: str) -> int:
        t = text.rstrip("uUlL")
        if t.lower().startswith("0x"):
            base = 16
        elif "." in t or "e" in t.lower():
            return self._error("floating constant in #if")
        else:
            base = 8 if t.startswith("0") and t.isdigit() else 10
        try:
            return self._checked(int(t, base))
        except ValueError:
            raise CppError(f"invalid integer constant {text!r} in #if", self.loc) from None


_PP_UNARY = {"!": operator.not_, "-": operator.neg, "+": operator.pos, "~": operator.invert}

#: ``#if`` binary operators but ``/`` and ``%``
_PP_BINARY = {
    "||": lambda a, b: bool(a or b), "&&": lambda a, b: bool(a and b),
    "|": operator.or_, "^": operator.xor, "&": operator.and_,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge, "<<": operator.lshift, ">>": operator.rshift,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}
