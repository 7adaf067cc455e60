"""The character-at-a-time C++ lexer: the reference the compiled scanner
``repro.cpp.lexer.tokenize`` is held to.

It walks the text one character at a time: ``_advance`` keeps line and
column per character, ``_skip_trivia`` eats blanks, comments and line
continuations, three ``_scan_*`` helpers read identifiers, numbers and
quoted literals, and punctuators are tried longest first with
``startswith``.  A stray character is reported and lexing resumes by
recursion.  It was the repository's lexer before the single-pattern
scanner; it lives here as a test oracle only
(``tests/test_lexer_differential.py``).  Changes since: a backslash
before CR LF is a line continuation, as a backslash before LF is, and a
line continuation also splices a line comment and a literal.
"""

from __future__ import annotations

from typing import Optional

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.source import SourceFile, SourceLocation
from repro.cpp.tokens import PUNCTUATORS, Token, TokenKind

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


class Lexer:
    """Lexes one :class:`SourceFile` into a token list."""

    def __init__(self, file: SourceFile, sink: Optional[DiagnosticSink] = None):
        self.file = file
        self.text = file.text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.at_line_start = True
        self.leading_space = False
        self.sink = sink
        #: recover from lexical errors instead of raising
        self.recover = sink is not None and not sink.fatal_errors

    def _lex_error(self, message: str, loc: SourceLocation) -> None:
        """Report a lexical error; raises unless in recovery mode."""
        if self.recover and self.sink is not None:
            self.sink.soft_error(message, loc)
        else:
            raise CppError(message, loc)

    # -- character helpers --------------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.file, self.line, self.col)

    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        # NUL sentinel at EOF: unlike "", it is never `in` a charset string
        return self.text[i] if i < len(self.text) else "\0"

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos >= len(self.text):
                return
            ch = self.text[self.pos]
            self.pos += 1
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace, comments, and line continuations."""
        while self.pos < len(self.text):
            ch = self._peek()
            if ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
                self.leading_space = True
            elif ch == "\\" and self._peek(1) == "\r" and self._peek(2) == "\n":
                self._advance(3)
                self.leading_space = True
            elif ch == "\n":
                self._advance()
                self.at_line_start = True
                self.leading_space = False
            elif ch in " \t\r\f\v":
                self._advance()
                self.leading_space = True
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    if self._peek() == "\\" and self._peek(1) == "\n":
                        self._advance(2)  # spliced: the comment goes on
                    elif self._peek() == "\\" and self._peek(1) == "\r" and self._peek(2) == "\n":
                        self._advance(3)
                    else:
                        self._advance()
                self.leading_space = True
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    # recovery: the truncated comment swallows the rest
                    self._lex_error("unterminated block comment", start)
                self.leading_space = True
            else:
                return

    # -- token scanners ------------------------------------------------

    def _scan_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self._peek() in _IDENT_CONT:
            self._advance()
        return self.text[start : self.pos]

    def _scan_number(self) -> str:
        start = self.pos
        # Hex
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek() in _DIGITS:
                self._advance()
            if self._peek() == "." and self._peek(1) in _DIGITS:
                self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
            elif self._peek() == ".":
                self._advance()
            if self._peek() in "eE" and (
                self._peek(1) in _DIGITS
                or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
            ):
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
        # Suffixes (u, l, f combinations)
        while self._peek() in "uUlLfF":
            self._advance()
        return self.text[start : self.pos]

    def _scan_quoted(self, quote: str) -> str:
        start = self.pos
        start_loc = self._loc()
        self._advance()  # opening quote
        while self.pos < len(self.text):
            ch = self._peek()
            if ch == "\\" and self._peek(1) == "\r" and self._peek(2) == "\n":
                self._advance(3)  # a spliced CR LF
            elif ch == "\\":
                self._advance(2)
            elif ch == quote:
                self._advance()
                return self.text[start : self.pos]
            elif ch == "\n":
                break
            else:
                self._advance()
        kind = "string" if quote == '"' else "character"
        # recovery: the literal ends at the line break (or EOF)
        self._lex_error(f"unterminated {kind} literal", start_loc)
        return self.text[start : self.pos] + quote

    def next_token(self) -> Token:
        self._skip_trivia()
        loc = self._loc()
        at_start, space = self.at_line_start, self.leading_space
        self.at_line_start = False
        self.leading_space = False
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", loc, at_start, space)
        ch = self._peek()
        if ch in _IDENT_START:
            return Token(TokenKind.IDENT, self._scan_ident(), loc, at_start, space)
        if ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
            return Token(TokenKind.NUMBER, self._scan_number(), loc, at_start, space)
        if ch == '"':
            return Token(TokenKind.STRING, self._scan_quoted('"'), loc, at_start, space)
        if ch == "'":
            return Token(TokenKind.CHAR, self._scan_quoted("'"), loc, at_start, space)
        for punct in PUNCTUATORS:
            if self.text.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, loc, at_start, space)
        # recovery: skip the offending character and lex what follows
        self._lex_error(f"unexpected character {ch!r}", loc)
        self._advance()
        return self.next_token()

    def tokenize(self) -> list[Token]:
        """Lex the whole file, EOF token included."""
        out: list[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

