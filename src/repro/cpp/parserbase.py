"""Parser plumbing: token navigation, backtracking, error reporting.

All parser mixins (:mod:`typeparse`, :mod:`exprparse`, :mod:`stmtparse`,
:mod:`declparse`) operate on this shared state.  The token list is the
*whole* preprocessed translation unit; template definitions remember
``(start, end)`` index slices into it and are re-parsed through the same
machinery at instantiation time, which is how original source positions
survive into instantiated entities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.scope import Binder
from repro.cpp.source import SourceLocation
from repro.cpp.tokens import KEYWORDS, Token, TokenKind, tokens_to_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpp.il import ILTree
    from repro.cpp.instantiate import InstantiationEngine

#: Keywords that can begin a decl-specifier sequence.
TYPE_KEYWORDS = frozenset(
    """
    void bool char wchar_t short int long float double signed unsigned
    const volatile class struct union enum typename
    """.split()
)

#: Storage/function specifiers that can precede a type.
DECL_SPECIFIERS = frozenset(
    "static extern inline virtual explicit mutable friend typedef register auto".split()
)

#: Token kinds ``at``/``accept``/``expect`` match by text.
_WORD_KINDS = (TokenKind.PUNCT, TokenKind.IDENT)


class ParserBase:
    """Token-cursor mechanics shared by the parser mixins."""

    def __init__(
        self,
        tokens: list[Token],
        tree: "ILTree",
        binder: Binder,
        sink: DiagnosticSink,
        engine: Optional["InstantiationEngine"] = None,
    ):
        if not tokens or tokens[-1].kind is not TokenKind.EOF:
            raise ValueError("the parser's token list must end in an EOF token")
        self.tokens = tokens
        self.pos = 0
        self.tree = tree
        self.binder = binder
        self.sink = sink
        self.engine = engine
        self.types = tree.types

    # -- cursor -----------------------------------------------------------
    # ``tokens`` ends in its one EOF token and ``advance`` stops there, so
    # ``tokens[pos]`` is valid and consuming any other token needs no check.

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        if i < len(self.tokens):
            return self.tokens[i]
        return self.tokens[-1]  # EOF

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def loc(self) -> SourceLocation:
        return self.cur.location

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t.text == text and t.kind in _WORD_KINDS

    def at_any(self, *texts: str) -> bool:
        t = self.tokens[self.pos]
        return t.text in texts and t.kind in _WORD_KINDS

    def accept(self, text: str) -> Optional[Token]:
        t = self.tokens[self.pos]
        if t.text == text and t.kind in _WORD_KINDS:
            self.pos += 1
            return t
        return None

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text or t.kind not in _WORD_KINDS:
            raise CppError(f"expected {text!r}, found {t.text!r}", t.location)
        self.pos += 1
        return t

    def expect_ident(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind is not TokenKind.IDENT or t.text in KEYWORDS:
            raise CppError(f"expected identifier, found {t.text!r}", t.location)
        self.pos += 1
        return t

    @property
    def at_eof(self) -> bool:
        return self.cur.kind is TokenKind.EOF

    def at_ident(self, text: Optional[str] = None) -> bool:
        return self.cur.kind is TokenKind.IDENT and (text is None or self.cur.text == text)

    def at_plain_ident(self) -> bool:
        return self.cur.kind is TokenKind.IDENT and self.cur.text not in KEYWORDS

    # -- backtracking -------------------------------------------------------

    def mark(self) -> int:
        return self.pos

    def rewind(self, mark: int) -> None:
        self.pos = mark

    # -- bracket skipping -----------------------------------------------------

    _CLOSERS = {"(": ")", "[": "]", "{": "}"}

    def skip_balanced(self, open_text: str) -> int:
        """With cursor on ``open_text``, skip to just past its matching
        closer; returns index of the closer token."""
        close = self._CLOSERS[open_text]
        start_loc = self.cur.location
        self.expect(open_text)
        depth = 1
        while depth > 0:
            if self.at_eof:
                raise CppError(f"unbalanced {open_text!r}", start_loc)
            t = self.advance()
            if t.is_punct(open_text):
                depth += 1
            elif t.is_punct(close):
                depth -= 1
        return self.pos - 1

    def skip_angle(self) -> int:
        """With cursor on ``<``, skip past the matching ``>`` (template
        headers and argument lists only — no expression ambiguity there);
        returns the index of the closer."""
        start_loc = self.cur.location
        self.expect("<")
        depth = 1
        while depth > 0:
            if self.at_eof:
                raise CppError("unbalanced '<'", start_loc)
            t = self.advance()
            if t.is_punct("<"):
                depth += 1
            elif t.is_punct(">"):
                depth -= 1
            elif t.is_punct(">>"):
                depth -= 2
        return self.pos - 1

    def skip_to_semicolon(self) -> None:
        """Error recovery: skip to just past the next ``;`` at depth 0."""
        depth = 0
        while not self.at_eof:
            t = self.cur
            if t.is_punct(";") and depth == 0:
                self.advance()
                return
            if t.text in self._CLOSERS:
                depth += 1
            elif t.text in (")", "]", "}"):
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def collect_balanced_text(self, open_text: str) -> str:
        """Collect the raw text between balanced brackets (for default
        argument values and non-type template arguments)."""
        start = self.pos
        self.skip_balanced(open_text)
        return tokens_to_text(self.tokens[start + 1 : self.pos - 1])

    # -- classification ---------------------------------------------------------

    def starts_decl_specifier(self) -> bool:
        """Token-level check: could the current token begin a type?"""
        t = self.cur
        if t.kind is not TokenKind.IDENT:
            return t.is_punct("::")
        return t.text in TYPE_KEYWORDS or t.text in DECL_SPECIFIERS
