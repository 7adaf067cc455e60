"""Token definitions for the C++ lexer.

The lexer produces a flat stream of :class:`Token`.  Keywords are *not* a
separate token kind: the preprocessor must treat every identifier uniformly
(any identifier can name a macro), so keyword classification happens at
parse time via :data:`KEYWORDS`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cpp.source import SourceLocation


class TokenKind(enum.Enum):
    """Lexical token categories."""
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    EOF = "eof"


#: C++ keywords recognised by the parser (C++98 plus the subset we support).
KEYWORDS = frozenset(
    """
    asm auto bool break case catch char class const const_cast continue
    default delete do double dynamic_cast else enum explicit export extern
    false float for friend goto if inline int long mutable namespace new
    operator private protected public register reinterpret_cast return
    short signed sizeof static static_cast struct switch template this
    throw true try typedef typeid typename union unsigned using virtual
    void volatile wchar_t while
    """.split()
)

#: Multi-character punctuators, longest first so the lexer can maximal-munch.
PUNCTUATORS = sorted(
    [
        "<<=", ">>=", "...", "->*", "::", "<<", ">>", "<=", ">=", "==", "!=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
        "^=", "->", ".*", "##", "(", ")", "[", "]", "{", "}", "<", ">", ";",
        ":", ",", ".", "?", "+", "-", "*", "/", "%", "&", "|", "^", "~",
        "!", "=", "#",
    ],
    key=len,
    reverse=True,
)

#: Binary operator -> precedence, higher binds tighter, all left-associative;
#: the expression parser and the ``#if`` evaluator both climb this table.
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8, "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10, ".*": 11, "->*": 11,
}


@dataclass
class Token:
    """One lexical token.

    ``at_line_start`` and ``leading_space`` drive preprocessor directive
    detection and faithful macro-text reconstruction.  ``expanded_from``
    names the macro whose expansion produced this token (None for tokens
    straight from a file); the *location* always points at real source —
    for expanded tokens, at the macro invocation site.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    at_line_start: bool = False
    leading_space: bool = False
    expanded_from: str | None = None

    def is_ident(self, text: str | None = None) -> bool:
        return self.kind is TokenKind.IDENT and (text is None or self.text == text)

    def is_keyword(self, text: str | None = None) -> bool:
        return (
            self.kind is TokenKind.IDENT
            and self.text in KEYWORDS
            and (text is None or self.text == text)
        )

    def is_punct(self, text: str | None = None) -> bool:
        return self.kind is TokenKind.PUNCT and (text is None or self.text == text)

    @property
    def is_eof(self) -> bool:
        return self.kind is TokenKind.EOF

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value} {self.text!r} @{self.location})"


def tokens_to_text(tokens: list[Token]) -> str:
    """Reconstruct readable source text from a token list.

    Used for the PDB ``ttext``/``mtext`` attributes (the stored template
    and macro texts) — spacing is normalised from the lexer's
    ``leading_space`` flags, newlines are collapsed.
    """
    parts: list[str] = []
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.EOF:
            break
        if i > 0 and (tok.leading_space or tok.at_line_start):
            parts.append(" ")
        parts.append(tok.text)
    return "".join(parts)
