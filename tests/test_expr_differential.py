"""Differential test: the precedence-climbing expression parser against
the level-recursive one it replaced (``tests/expr_oracle.py``).

A class ``V`` overloads an operator at every precedence level, some as
members and some as free functions.  Every ordered pair of binary
operators is parsed side by side on ``V`` operands, where each operator
is a recorded call, so the ``rcall`` order shows each pair's relative
precedence and associativity.  Random expressions then mix in ``int``
operands, operator results of class, ``int`` and ``bool`` type (chains
switch between operator calls and builtin operators), parentheses,
prefix unary operators and ``?:``.  Both parsers must give the same PDB
bytes, ``rcall`` rows and their order included, or fail with the same
message.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer import analyze
from repro.cpp import CppError, Frontend, FrontendOptions
from repro.pdbfmt.writer import write_pdb

from tests.expr_oracle import BINARY_LEVELS, level_recursive

BINARY = [op for level in BINARY_LEVELS for op in level]
#: ``.*`` cannot be overloaded, and ``->*`` only as a member
OVERLOADABLE = [op for op in BINARY if op != ".*"]
UNARY = ("-", "+", "!", "~", "++")
#: operands, class-typed ones weighted up so most operators are calls
ATOMS = ("v", "w", "mk( )", "v", "w", "i", "j", "1", "2.5", "g( )")


def prelude(signatures: dict[str, tuple[str, bool]]) -> str:
    """Class ``V`` with ``operator<op>`` for each ``op -> (result type,
    member?)``; the others are free functions on ``const V&``."""
    members, free = [], []
    for op, (result, member) in signatures.items():
        body = f"{{ return {result}( ); }}\n"
        if member:
            members.append(f"  {result} operator{op}( const V& o ) const {body}")
        else:
            free.append(f"{result} operator{op}( const V& a, const V& b ) {body}")
    return ("class V {\npublic:\n  V( ) { }\n  V& operator++( ) { return *this; }\n"
            + "".join(members) + "};\n" + "".join(free)
            + "int g( ) { return 1; }\nV mk( ) { return V( ); }\n")


signatures = st.fixed_dictionaries({
    op: st.tuples(st.sampled_from(("V", "V", "V", "int", "bool")),
                  st.just(True) if op == "->*" else st.booleans())
    for op in OVERLOADABLE
})


def _chain(first: str, rest: list[tuple[str, str]]) -> str:
    return " ".join([first, *(word for pair in rest for word in pair)])


def expressions(binary: list[str]):
    """Expressions whose binary operators come from ``binary``."""

    def extend(sub):
        rest = st.lists(st.tuples(st.sampled_from(binary), sub), min_size=1, max_size=4)
        return st.one_of(
            st.builds(_chain, sub, rest),
            st.tuples(st.sampled_from(UNARY), sub).map(" ".join),
            sub.map("( {} )".format),
            st.tuples(sub, sub, sub).map(lambda t: "{} ? {} : {}".format(*t)),
        )

    return st.recursive(st.sampled_from(ATOMS), extend, max_leaves=14)


@st.composite
def cases(draw):
    # two neighbouring precedence levels and one more operator: a
    # misplaced level shows where its operators meet their neighbours'
    low = draw(st.integers(0, len(BINARY_LEVELS) - 2))
    binary = BINARY_LEVELS[low] + BINARY_LEVELS[low + 1] + [draw(st.sampled_from(BINARY))]
    return draw(signatures), draw(st.lists(expressions(binary), min_size=1, max_size=3))


def _source(sigs: dict[str, tuple[str, bool]], exprs: list[str]) -> str:
    body = "".join(f"  ( {e} ) ;\n" for e in exprs)
    return prelude(sigs) + f"int f( V v, V w, int i, int j ) {{\n{body}  return 0;\n}}\n"


def _compile(text: str):
    fe = Frontend(FrontendOptions())
    fe.register_files({"main.cpp": text})
    try:
        return ("ok", write_pdb(analyze(fe.compile("main.cpp"))))
    except CppError as exc:
        return ("err", exc.message)


def _both(sigs: dict[str, tuple[str, bool]], exprs: list[str]):
    text = _source(sigs, exprs)
    climbing = _compile(text)
    with level_recursive():
        levels = _compile(text)
    assert climbing == levels
    return climbing


def test_every_operator_pair():
    # every operator a call on V, so in-order plus post-order (the rcall
    # rows) pin each parse tree; each ordered pair of operators side by
    # side fixes their relative precedence and associativity
    sigs = {op: ("V", i % 2 == 0 or op == "->*") for i, op in enumerate(OVERLOADABLE)}
    exprs = [f"v {a} w {b} v" for a in BINARY for b in BINARY]
    kind, pdb = _both(sigs, exprs + ["++ v + w * v - w", "i ? v << w : v >> w"])
    assert kind == "ok"
    body = prelude(sigs).count("\n") + 2  # first statement line of f
    calls = [line for line in pdb.splitlines()
             if line.startswith("rcall") and int(line.split()[4]) >= body]
    assert len(calls) >= 2 * len(OVERLOADABLE) ** 2 + 4 + 2


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_climbing_matches_level_recursive(case):
    _both(*case)
