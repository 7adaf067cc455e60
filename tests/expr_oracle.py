"""The level-recursive binary-expression parser: the reference the
precedence-climbing ``ExprParserMixin._parse_binary`` is held to.

One call per precedence level, loosest first: each level parses its
operands at the next tighter level and folds its own operators left to
right, so every operand descends through all eleven levels.  It was the
repository's expression parser before the climbing loop; it lives here
as a test oracle only (``tests/test_expr_differential.py``), patched in
with :func:`level_recursive`.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.cpp.exprparse import ExprInfo, ExprParserMixin
from repro.cpp.tokens import TokenKind

#: binary operators by precedence level, loosest first
BINARY_LEVELS: list[list[str]] = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
    [".*", "->*"],
]


def parse_binary_levels(self, level: int = 0) -> ExprInfo:
    if level >= len(BINARY_LEVELS):
        return self._parse_unary()
    ops = BINARY_LEVELS[level]
    lhs = self._parse_binary(level + 1)
    while self.cur.kind is TokenKind.PUNCT and self.cur.text in ops:
        op = self.advance()
        rhs = self._parse_binary(level + 1)
        result = self._maybe_operator_call(op.text, lhs, [rhs], op.location)
        lhs = result if result is not None else ExprInfo(
            self._builtin_binary_type(op.text, lhs, rhs)
        )
    return lhs


@contextmanager
def level_recursive():
    """Parse binary expressions with the oracle inside the block."""
    climbing = ExprParserMixin._parse_binary
    ExprParserMixin._parse_binary = parse_binary_levels
    try:
        yield
    finally:
        ExprParserMixin._parse_binary = climbing
