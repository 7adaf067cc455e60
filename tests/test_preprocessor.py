"""Preprocessor unit tests: macros, conditionals, includes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpp.diagnostics import CppError, DiagnosticSink
from tests.util import preprocess, texts


class TestObjectMacros:
    def test_simple_expansion(self):
        toks, _ = preprocess("#define N 10\nint x = N;")
        assert texts(toks) == ["int", "x", "=", "10", ";"]

    def test_multi_token_body(self):
        toks, _ = preprocess("#define PAIR 1 , 2\nf(PAIR);")
        assert texts(toks) == ["f", "(", "1", ",", "2", ")", ";"]

    def test_undef(self):
        toks, _ = preprocess("#define N 10\n#undef N\nN")
        assert texts(toks) == ["N"]

    def test_redefinition_takes_effect(self):
        toks, _ = preprocess("#define N 1\n#define N 2\nN")
        assert texts(toks) == ["2"]

    def test_nested_expansion(self):
        toks, _ = preprocess("#define A B\n#define B 42\nA")
        assert texts(toks) == ["42"]

    def test_self_reference_no_infinite_loop(self):
        toks, _ = preprocess("#define X X\nX")
        assert texts(toks) == ["X"]

    def test_mutual_recursion_stops(self):
        toks, _ = preprocess("#define A B\n#define B A\nA")
        assert texts(toks) == ["A"]

    def test_expanded_token_location_is_use_site(self):
        toks, _ = preprocess("#define N 10\n\n\nN")
        assert toks[0].location.line == 4
        assert toks[0].expanded_from == "N"


class TestFunctionMacros:
    def test_simple(self):
        toks, _ = preprocess("#define SQ(x) ((x)*(x))\nSQ(3)")
        assert "".join(texts(toks)) == "((3)*(3))"

    def test_two_params(self):
        toks, _ = preprocess("#define ADD(a,b) a+b\nADD(1, 2)")
        assert texts(toks) == ["1", "+", "2"]

    def test_nested_parens_in_args(self):
        toks, _ = preprocess("#define ID(x) x\nID(f(a, b))")
        assert texts(toks) == ["f", "(", "a", ",", "b", ")"]

    def test_name_without_parens_not_invoked(self):
        toks, _ = preprocess("#define F(x) x\nF;")
        assert texts(toks) == ["F", ";"]

    def test_empty_argument_list(self):
        toks, _ = preprocess("#define F() 7\nF()")
        assert texts(toks) == ["7"]

    def test_argument_expansion(self):
        toks, _ = preprocess("#define N 5\n#define ID(x) x\nID(N)")
        assert texts(toks) == ["5"]

    def test_stringize(self):
        toks, _ = preprocess("#define S(x) #x\nS(a b)")
        assert texts(toks) == ['"a b"']

    def test_paste(self):
        toks, _ = preprocess("#define GLUE(a,b) a##b\nGLUE(foo, bar)")
        assert texts(toks) == ["foobar"]

    def test_paste_makes_number(self):
        toks, _ = preprocess("#define GLUE(a,b) a##b\nGLUE(1, 2)")
        assert texts(toks) == ["12"]

    def test_variadic(self):
        toks, _ = preprocess("#define V(...) f(__VA_ARGS__)\nV(1, 2, 3)")
        assert "".join(texts(toks)) == "f(1,2,3)"

    def test_wrong_arity_raises(self):
        with pytest.raises(CppError, match="expects 2"):
            preprocess("#define ADD(a,b) a+b\nADD(1)")

    def test_macro_define_with_space_before_paren_is_object(self):
        toks, _ = preprocess("#define F (x)\nF")
        assert texts(toks) == ["(", "x", ")"]


class TestConditionals:
    def test_ifdef_taken(self):
        toks, _ = preprocess("#define A\n#ifdef A\nyes\n#endif")
        assert texts(toks) == ["yes"]

    def test_ifdef_not_taken(self):
        toks, _ = preprocess("#ifdef A\nno\n#endif\nafter")
        assert texts(toks) == ["after"]

    def test_ifndef_guard(self):
        src = "#ifndef G\n#define G\nbody\n#endif"
        toks, _ = preprocess(src)
        assert texts(toks) == ["body"]

    def test_else(self):
        toks, _ = preprocess("#ifdef A\nx\n#else\ny\n#endif")
        assert texts(toks) == ["y"]

    def test_elif_chain(self):
        src = "#define B 1\n#if defined(A)\na\n#elif defined(B)\nb\n#else\nc\n#endif"
        toks, _ = preprocess(src)
        assert texts(toks) == ["b"]

    def test_nested_conditionals(self):
        src = "#define A\n#ifdef A\n#ifdef B\nx\n#else\ny\n#endif\n#endif"
        toks, _ = preprocess(src)
        assert texts(toks) == ["y"]

    def test_inactive_region_skips_directives(self):
        src = "#ifdef A\n#define X 1\n#endif\nX"
        toks, _ = preprocess(src)
        assert texts(toks) == ["X"]

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1", True),
            ("0", False),
            ("1 + 1 == 2", True),
            ("2 * 3 > 5", True),
            ("(1 || 0) && 1", True),
            ("!1", False),
            ("5 % 2", True),
            ("1 << 3 == 8", True),
            ("0x10 == 16", True),
            ("UNKNOWN_NAME", False),
            ("1 ? 1 : 0", True),
            ("'a' == 97", True),
            ("X == -1", False),
            ("2 + -1 == 1", True),
            ("0 && (1/0)", False),
            ("1 || (1/0)", True),
            ("0 ? 1/0 : 1", True),
            ("1 ? 1 : 1 << 64", True),
            ("-7 % 2 == -1", True),
            ("-7 / 2 == -3", True),
        ],
    )
    def test_if_expressions(self, expr, expected):
        toks, _ = preprocess(f"#if {expr}\nyes\n#endif")
        assert (texts(toks) == ["yes"]) is expected

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("1 / 0", "division by zero"),
            ("1 2", "missing binary operator"),
            ("1 << -1", "shift count out of range"),
            ("1 >> 64", "shift count out of range"),
            ("1e400", "floating constant"),
            pytest.param("9" * 300 + " / 3", "integer overflow", id="300-digits / 3"),
            ("1 .* 2", "unexpected token"),
            ("(1", "malformed"),
            ("08", "invalid integer constant '08'"),
            ("0x", "invalid integer constant '0x'"),
            ("1f", "invalid integer constant '1f'"),
        ],
    )
    def test_if_expression_errors(self, expr, message):
        with pytest.raises(CppError, match=message):
            preprocess(f"#if {expr}\nyes\n#endif")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        "0 1 -1 2 64 0x10 07 1e3 2.5 99999999999999999999 'a' X "
        "+ - * / % << >> < > <= >= == != & ^ | && || ! ~ ? : ( ) .*".split()
    ), max_size=12))
    def test_if_reports_only_cpperror(self, words):
        try:
            preprocess("#if " + " ".join(words) + "\nyes\n#endif")
        except CppError:
            pass

    def test_failed_if_reads_as_false_and_keeps_its_else(self):
        sink = DiagnosticSink(fatal_errors=False)
        toks, _ = preprocess("#if (1\nx\n#else\nz\n#endif\ny", sink=sink)
        assert texts(toks) == ["z", "y"]
        assert sink.error_count == 1

    def test_if_with_macro(self):
        toks, _ = preprocess("#define V 3\n#if V >= 2\nyes\n#endif")
        assert texts(toks) == ["yes"]

    def test_defined_without_parens(self):
        toks, _ = preprocess("#define A\n#if defined A\nyes\n#endif")
        assert texts(toks) == ["yes"]

    def test_unterminated_conditional_reports(self):
        with pytest.raises(CppError):
            preprocess("#ifdef A\nx")

    def test_endif_without_if_reports(self):
        with pytest.raises(CppError):
            preprocess("#endif")


class TestIncludes:
    def test_quoted_include(self):
        toks, _ = preprocess('#include "a.h"\nmain_tok', files={"a.h": "included_tok"})
        assert texts(toks) == ["included_tok", "main_tok"]

    def test_include_records_edge(self):
        _, pp = preprocess('#include "a.h"', files={"a.h": ""})
        main = pp.manager.get("main.cpp")
        assert [f.name for f in main.includes] == ["a.h"]

    def test_nested_includes(self):
        files = {"a.h": '#include "b.h"\na_tok', "b.h": "b_tok"}
        toks, _ = preprocess('#include "a.h"', files=files)
        assert texts(toks) == ["b_tok", "a_tok"]

    def test_missing_include_reports(self):
        with pytest.raises(CppError, match="not found"):
            preprocess('#include "missing.h"')

    def test_circular_include_with_guards_ok(self):
        files = {
            "a.h": '#ifndef A_H\n#define A_H\n#include "b.h"\na_tok\n#endif',
            "b.h": '#ifndef B_H\n#define B_H\n#include "a.h"\nb_tok\n#endif',
        }
        toks, _ = preprocess('#include "a.h"', files=files)
        assert texts(toks) == ["b_tok", "a_tok"]

    def test_include_depth_guard_without_guards(self):
        files = {"a.h": '#include "b.h"', "b.h": '#include "a.h"'}
        # re-inclusion of an in-progress file is cut (edge recorded only)
        toks, _ = preprocess('#include "a.h"', files=files)
        assert toks == []


class TestBuiltinsAndRecords:
    def test_file_macro(self):
        toks, _ = preprocess("__FILE__")
        assert texts(toks) == ['"main.cpp"']

    def test_line_macro(self):
        toks, _ = preprocess("\n\n__LINE__")
        assert texts(toks) == ["3"]

    def test_macro_records_for_pdb(self):
        _, pp = preprocess("#define A 1\n#define B(x) x\n#undef A")
        recs = [(r.name, r.kind) for r in pp.macro_records]
        assert recs == [("A", "def"), ("B", "def"), ("A", "undef")]

    def test_macro_record_text(self):
        _, pp = preprocess("#define MAX(a,b) ((a) > (b) ? (a) : (b))")
        assert pp.macro_records[0].text.startswith("#define MAX")
        assert "? (a) : (b)" in pp.macro_records[0].text

    def test_error_directive(self):
        with pytest.raises(CppError, match="#error"):
            preprocess("#error something broke")

    def test_warning_directive_collects(self):
        sink = DiagnosticSink(fatal_errors=False)
        _, pp = preprocess("#warning heads up\nx", sink=sink)
        assert sink.warning_count == 1

    def test_pragma_ignored(self):
        toks, _ = preprocess("#pragma once\nx")
        assert texts(toks) == ["x"]
