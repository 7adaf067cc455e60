"""C++ lexer: one compiled pattern, one loop, exact source positions.

Produces the raw token stream the preprocessor consumes.  :data:`_TOKEN`
has one named group per lexical class; :func:`tokenize` matches it at
the cursor and acts on the group that matched.  Comments are skipped
(they only set ``leading_space``); line continuations (backslash, then
LF or CR LF) are honoured, including inside ``#define`` bodies, line
comments and literals.  Line and column come from the position of the
last newline consumed.

With a non-fatal :class:`DiagnosticSink`, lexical errors are reported as
soft errors and lexing goes on instead of raising: an unterminated block
comment swallows the rest of the file, an unterminated literal ends at
the line break, and a stray character is skipped.  Truncated or
corrupted sources then still yield a usable token stream for the rest of
the translation unit.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.source import SourceFile, SourceLocation
from repro.cpp.tokens import PUNCTUATORS, Token, TokenKind

#: one alternative per lexical class, tried in order; ``stray`` matches
#: any character the others do not, so every position matches
_TOKEN = re.compile(
    "|".join(
        f"(?P<{name}>{rx})"
        for name, rx in (
            ("newline", r"\n"),
            # a line comment ends at a line break that is not spliced
            ("trivia", r"(?:[ \t\r\f\v]|\\\r?\n|//(?:\\\r?\n|[^\n])*)+"),
            ("comment", r"/\*"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("number", r"0[xX][0-9a-fA-F]*[uUlLfF]*"
                       r"|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?[uUlLfF]*"),
            # the body only: the loop checks for the closing quote
            # a backslash escapes the next character, or splices CR LF
            ("quoted", r'"(?:[^"\\\n]|\\(?:\r\n|.)?)*' r"|'(?:[^'\\\n]|\\(?:\r\n|.)?)*"),
            # longest first, so alternation order is maximal munch
            ("punct", "|".join(map(re.escape, PUNCTUATORS))),
            ("stray", "."),
        )
    ),
    re.DOTALL,
)

_KINDS = {"ident": TokenKind.IDENT, "number": TokenKind.NUMBER, "punct": TokenKind.PUNCT}


def tokenize(file: SourceFile, sink: Optional[DiagnosticSink] = None) -> list[Token]:
    """Lex ``file`` into a token list, EOF token included.

    With a non-fatal ``sink``, lexical errors are recorded there and
    lexing recovers (see the module docstring) instead of raising."""
    text = file.text
    recover = sink is not None and not sink.fatal_errors
    match = _TOKEN.match
    out: list[Token] = []
    pos, n = 0, len(text)
    line, line_start = 1, 0  # line_start: index of the line's first character
    at_start, space = True, False

    def error(message: str, loc: SourceLocation) -> None:
        if recover:
            sink.soft_error(message, loc)
        else:
            raise CppError(message, loc)

    while pos < n:
        m = match(text, pos)
        group = m.lastgroup
        end = m.end()
        kind = _KINDS.get(group)
        if kind is not None:
            loc = SourceLocation(file, line, pos - line_start + 1)
            out.append(Token(kind, m.group(), loc, at_start, space))
            at_start = space = False
        elif group == "newline":
            line += 1
            line_start = end
            at_start, space = True, False
        elif group == "trivia":
            space = True
        elif group == "comment":
            close = text.find("*/", end)
            if close < 0:
                loc = SourceLocation(file, line, pos - line_start + 1)
                error("unterminated block comment", loc)
            end = close + 2 if close >= 0 else n
            space = True
        elif group == "quoted":
            loc = SourceLocation(file, line, pos - line_start + 1)
            body = m.group()
            quote = body[0]
            if text.startswith(quote, end):
                end += 1
            else:
                what = "string" if quote == '"' else "character"
                error(f"unterminated {what} literal", loc)
            kind = TokenKind.STRING if quote == '"' else TokenKind.CHAR
            out.append(Token(kind, body + quote, loc, at_start, space))
            at_start = space = False
        else:  # stray
            loc = SourceLocation(file, line, pos - line_start + 1)
            error(f"unexpected character {m.group()!r}", loc)
            at_start = space = False
        if group == "trivia" or group == "comment" or group == "quoted":
            # continuations, block comments and escaped line breaks span lines
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        pos = end
    loc = SourceLocation(file, line, pos - line_start + 1)
    out.append(Token(TokenKind.EOF, "", loc, at_start, space))
    return out
