"""Differential test: the compiled scanner ``repro.cpp.lexer.tokenize``
against the character-at-a-time lexer it replaced
(``tests/lexer_oracle.py``).

Random texts are drawn from fragments that reach every path of both
lexers: each literal and comment opener and closer, escapes,
continuations after LF and CR LF, stray characters, number shapes
(hex, fractions, exponents, suffixes), punctuators that share a prefix,
and blanks.  Each text is lexed with a fatal sink, with no sink, and
with a recovering sink whose error bound may be hit mid-file.  Both
lexers must give the same tokens (kind, text, line, column,
``at_line_start``, ``leading_space``) and the same rendered
diagnostics, or raise the same error.  The same holds for every corpus
file the repository ships: the E-series workloads and the perfbench
corpora for seeds 1 and 7.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.lexer import tokenize
from repro.cpp.source import SourceFile
from repro.workloads.defects import defect_files
from repro.workloads.javasim import java_files
from repro.workloads.pooma import pooma_files
from repro.workloads.stack import stack_files
from repro.workloads.stl import stl_files
from repro.workloads.synth import SynthSpec, generate

from tests.lexer_oracle import Lexer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FRAGMENTS = (
    '"', "'", "\\", "/*", "*/", "//", "/", "*", "\n", "\r\n", "\\\n", "\\\r\n",
    "\r", " ", "\t", "\f", "@", "$", "`", "\0", "é",
    "0", "1", "7", "9", ".", "e", "E", "e+", "e-", "0x", "0X", "fF", "u", "L",
    "x", "a", "_b", "int", "#", "##", "<", "<<", "<<=", ">", ">>=", "-", "->",
    "->*", ".*", "...", ":", "::", "=", "!", "&", "|", "(", ")", "{", "}", ";",
)


def _sink(mode: str, max_errors: int) -> DiagnosticSink | None:
    if mode == "none":
        return None
    return DiagnosticSink(fatal_errors=mode == "fatal", max_errors=max_errors)


def outcome(lex, text: str, mode: str, max_errors: int = 10_000):
    """What ``lex`` makes of ``text``: token tuples or the error it
    raised, plus the rendered diagnostics."""
    f = SourceFile(name="t.cpp", text=text)
    sink = _sink(mode, max_errors)
    try:
        toks = lex(f, sink)
    except CppError as exc:
        result = (type(exc).__name__, str(exc))
    else:
        assert all(t.location.file is f for t in toks)
        result = [
            (t.kind, t.text, t.location.line, t.location.column,
             t.at_line_start, t.leading_space)
            for t in toks
        ]
    return result, sink.render_all() if sink is not None else ""


def oracle(f: SourceFile, sink: DiagnosticSink | None):
    return Lexer(f, sink).tokenize()


texts = st.lists(st.sampled_from(FRAGMENTS), max_size=60).map("".join)


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts, st.sampled_from(("fatal", "none", "recover")), st.integers(1, 6))
def test_random_text(text, mode, max_errors):
    assert outcome(tokenize, text, mode, max_errors) == outcome(oracle, text, mode, max_errors)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "/* never closed\nint x;",
        '"abc\nint y;',
        "'a\\",
        '"a\\',
        '"\\"',
        "a @b\n@ c",
        "@",
        "#define M( a ) \\\r\n  a + 1\r\nM( 2 )",
        "x /* a\nb */ y\n  z",
        "1.e5 .5 0x1.5 1..2 08 1e+ 3uL 0xfu",
    ],
)
@pytest.mark.parametrize("mode", ["fatal", "recover"])
def test_recovery_cases(text, mode):
    assert outcome(tokenize, text, mode) == outcome(oracle, text, mode)


def _perfbench_files() -> dict[str, str]:
    """The perfbench corpora for seeds 1 and 7, in every workload's shape."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        corpus = importlib.import_module("corpus")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return {
        f"perfbench/{name}-{seed}/{rel}": text
        for seed in (1, 7)
        for name, workload in workloads.WORKLOADS.items()
        for rel, text in corpus.generate(seed, workload.spec).files.items()
    }


def corpus_files() -> dict[str, str]:
    """Every shipped corpus file, each distinct text once."""
    groups = {
        "stl": stl_files(), "stack": stack_files(), "pooma": pooma_files(),
        "defects": defect_files(), "java": java_files(),
        "synth": generate(SynthSpec()).files,
    }
    named = {f"{g}/{rel}": text for g, files in groups.items() for rel, text in files.items()}
    named.update(_perfbench_files())
    by_text = {text: name for name, text in reversed(named.items())}
    return {name: text for text, name in by_text.items()}


CORPUS = corpus_files()


@pytest.mark.parametrize("mode", ["fatal", "recover"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_file(name, mode):
    text = CORPUS[name]
    assert outcome(tokenize, text, mode) == outcome(oracle, text, mode)
