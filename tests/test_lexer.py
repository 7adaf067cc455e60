"""Lexer unit tests: token kinds, literals, positions, trivia."""

import pytest

from repro.cpp.diagnostics import CppError
from repro.cpp.lexer import tokenize
from repro.cpp.source import SourceFile
from repro.cpp.tokens import TokenKind, tokens_to_text
from tests.util import lex, texts


class TestBasicTokens:
    def test_identifiers(self):
        toks = lex("foo _bar baz123 _")
        assert all(t.kind is TokenKind.IDENT for t in toks)
        assert texts(toks) == ["foo", "_bar", "baz123", "_"]

    def test_keywords_are_idents(self):
        (tok,) = lex("class")
        assert tok.kind is TokenKind.IDENT
        assert tok.is_keyword("class")

    def test_non_keyword_ident(self):
        (tok,) = lex("classy")
        assert not tok.is_keyword()

    def test_punctuators_maximal_munch(self):
        assert texts(lex("<<=")) == ["<<="]
        assert texts(lex("<< =")) == ["<<", "="]
        assert texts(lex("->*")) == ["->*"]
        assert texts(lex("a->b")) == ["a", "->", "b"]
        assert texts(lex("a--b")) == ["a", "--", "b"]
        assert texts(lex("::")) == ["::"]
        assert texts(lex(": :")) == [":", ":"]
        assert texts(lex("...")) == ["..."]

    def test_eof_token_present(self):
        f = SourceFile(name="t", text="x")
        toks = tokenize(f)
        assert toks[-1].kind is TokenKind.EOF

    def test_empty_file(self):
        f = SourceFile(name="t", text="")
        toks = tokenize(f)
        assert len(toks) == 1 and toks[0].kind is TokenKind.EOF


class TestNumbers:
    @pytest.mark.parametrize(
        "text",
        ["0", "42", "0x1F", "3.14", "1e10", "1.5e-3", "10u", "10UL", "2.5f", "0777"],
    )
    def test_number_forms(self, text):
        (tok,) = lex(text)
        assert tok.kind is TokenKind.NUMBER
        assert tok.text == text

    def test_number_at_eof_terminates(self):
        # regression: EOF sentinel must not match suffix charsets
        toks = lex("199711")
        assert texts(toks) == ["199711"]

    def test_float_starting_with_dot(self):
        (tok,) = lex(".5")
        assert tok.kind is TokenKind.NUMBER

    def test_member_dot_not_number(self):
        toks = lex("a.b")
        assert texts(toks) == ["a", ".", "b"]


class TestStringsAndChars:
    def test_string(self):
        (tok,) = lex('"hello world"')
        assert tok.kind is TokenKind.STRING
        assert tok.text == '"hello world"'

    def test_string_escapes(self):
        (tok,) = lex(r'"a\"b\\c"')
        assert tok.kind is TokenKind.STRING

    def test_char(self):
        (tok,) = lex("'x'")
        assert tok.kind is TokenKind.CHAR

    def test_char_escape(self):
        (tok,) = lex(r"'\n'")
        assert tok.kind is TokenKind.CHAR

    def test_unterminated_string_raises(self):
        with pytest.raises(CppError, match="unterminated string"):
            lex('"abc')

    def test_unterminated_char_raises(self):
        with pytest.raises(CppError, match="unterminated character"):
            lex("'a")


class TestTrivia:
    def test_line_comment(self):
        assert texts(lex("a // comment\nb")) == ["a", "b"]

    def test_block_comment(self):
        assert texts(lex("a /* x\ny */ b")) == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CppError, match="unterminated block comment"):
            lex("a /* never closed")

    def test_line_continuation(self):
        toks = lex("ab\\\ncd")
        # backslash-newline splices: but identifiers are lexed per-char,
        # so the continuation acts as whitespace between tokens here
        assert texts(toks) == ["ab", "cd"]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_spliced_line_comment_swallows_next_line(self, eol):
        # as `printf '// a \\\nint x;\ny;\n' | cpp -P` prints only `y;`
        toks = lex(f"// a \\{eol}int x;{eol}y;{eol}")
        assert texts(toks) == ["y", ";"]
        assert toks[0].location.line == 3 and toks[0].at_line_start

    def test_spliced_literal(self):
        for eol in ("\n", "\r\n"):
            s, semi = lex(f'"ab\\{eol}cd";')
            assert s.kind is TokenKind.STRING and s.text == f'"ab\\{eol}cd"'
            assert (semi.location.line, semi.location.column) == (2, 4)

    def test_leading_space_flag(self):
        a, b = lex("a b")
        assert not a.leading_space  # first on line: at_line_start instead
        assert b.leading_space

    def test_at_line_start_flag(self):
        toks = lex("a\nb")
        assert toks[0].at_line_start
        assert toks[1].at_line_start


class TestPositions:
    def test_line_col_tracking(self):
        toks = lex("a\n  b\n    c")
        assert (toks[0].location.line, toks[0].location.column) == (1, 1)
        assert (toks[1].location.line, toks[1].location.column) == (2, 3)
        assert (toks[2].location.line, toks[2].location.column) == (3, 5)

    def test_column_after_token(self):
        a, b = lex("abc def")
        assert b.location.column == 5

    def test_position_in_comment_spanning_lines(self):
        toks = lex("/* a\nb */ x")
        assert toks[0].location.line == 2

    def test_unexpected_character(self):
        with pytest.raises(CppError, match="unexpected character"):
            lex("a @ b")


class TestTokensToText:
    def test_roundtrip_spacing(self):
        text = "template <class T> class X"
        assert tokens_to_text(lex(text)) == text

    def test_no_space_inside_operators(self):
        assert tokens_to_text(lex("a->b")) == "a->b"

    def test_newlines_collapse_to_spaces(self):
        assert tokens_to_text(lex("a\nb")) == "a b"
