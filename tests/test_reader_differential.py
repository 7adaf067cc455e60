"""Differential regression guard for the PDB reader.

The partition/slice scanner (``parse_pdb``) is held to the regex reader
it replaced (``tests/reader_oracle.py``).  Over the E12 round-trip
fixpoint corpus, a seeded battery of mutated variants (some with
non-ASCII digits and whitespace spliced in) and the canonical structural
errors, every input must either parse to the same document on both
readers or raise the same ``PdbParseError`` (message *and* line number)
on both.
"""

import random

import pytest

from repro.analyzer import analyze
from repro.cpp.frontend import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import RawItem
from repro.pdbfmt.reader import PdbParseError, parse_pdb
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.synth import SynthSpec, generate

from tests.reader_oracle import attributes_regex, parse_pdb_regex, write_pdb_regex

#: characters a loose grammar might take for digits or whitespace:
#: ARABIC-INDIC DIGIT ONE/TWO, NO-BREAK SPACE, EM SPACE
_NON_ASCII = "\u0661\u0662\xa0\u2003"

_GARBAGE_LINES = [
    "not an item line",
    "ro#notanumber stray",
    "zz#12 unknown prefix",
    "<PDB 1.0>",
    "rloc so#1 4 2",
    "   ",
    "#",
    "ro# missing id",
]


@pytest.fixture(scope="module")
def e12_text() -> str:
    """The round-trip fixpoint corpus: a merged multi-TU database from
    the E12 pipeline, which the writer reproduces byte for byte."""
    spec = SynthSpec(
        n_plain_classes=4,
        methods_per_class=3,
        n_templates=3,
        instantiations_per_template=2,
        call_depth=3,
        n_translation_units=4,
    )
    corpus = generate(spec)
    fe = Frontend(FrontendOptions())
    fe.register_files(corpus.files)
    pdbs = [PDB(analyze(t)) for t in fe.compile_many(corpus.main_files)]
    merged, _ = merge_pdbs(pdbs)
    return write_pdb(merged.doc)


def _outcome(text: str):
    """Parse with both readers, normalising each to ('ok', rendered) /
    ('err', (message, line number)).  Each side renders with its own
    code, and every item's key index must give the oracle's eager
    split (:func:`_values`)."""
    try:
        oracle_doc = parse_pdb_regex(text)
        oracle = ("ok", write_pdb_regex(oracle_doc))
    except PdbParseError as e:
        oracle = ("err", (str(e), e.line_no))
    try:
        doc = parse_pdb(text)
        fast = ("ok", write_pdb(doc))
    except PdbParseError as e:
        return ("err", (str(e), e.line_no)), oracle
    if oracle[0] == "ok":
        for item, oracle_item in zip(doc.items, oracle_doc.items, strict=True):
            got, want = _values(item, oracle_item)
            assert got == want, item
    return fast, oracle


def _values(item: RawItem, oracle_item: RawItem) -> tuple[dict, dict]:
    """``key -> values`` two ways: the item's ``get_all(key)``, each
    value split for a word-grammar key, and the oracle's eager split of
    its twin, grouped by key."""
    want: dict = {}
    for a in attributes_regex(oracle_item):
        want.setdefault(a.key, []).append(a.words if a.text is None else a.text)
    schema = ATTRIBUTE_SCHEMAS.get(item.prefix, {})
    got = {
        key: [v if schema.get(key) == "text" else v.split() for v in item.get_all(key)]
        for key in want
    }
    return got, want


def _mutate(lines: list[str], rng: random.Random) -> list[str]:
    out = list(lines)
    op = rng.randrange(9)
    i = rng.randrange(len(out))
    if op == 0:
        del out[i]
    elif op == 1:
        out.insert(i, out[rng.randrange(len(out))])
    elif op == 2:
        j = rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    elif op == 3:
        out.insert(i, rng.choice(_GARBAGE_LINES))
    elif op == 4:
        out[i] = out[i] + " \t" * rng.randrange(1, 3)
    elif op == 5 and out[i]:
        k = rng.randrange(len(out[i]))
        ch = chr(rng.randrange(0x20, 0x7F))
        out[i] = out[i][:k] + ch + out[i][k + 1 :]
    elif op == 6:
        out = out[: max(1, i)]
    elif op == 7:
        out[i] = out[i][: rng.randrange(len(out[i]) + 1)]
    else:
        k = rng.randrange(len(out[i]) + 1)
        out[i] = out[i][:k] + rng.choice(_NON_ASCII) + out[i][k:]
    return out


def test_fixpoint_corpus_agrees(e12_text):
    fast, oracle = _outcome(e12_text)
    assert fast == oracle
    assert fast == ("ok", e12_text)  # the corpus really is a fixpoint


def test_differential_fuzz_over_mutated_corpus(e12_text):
    rng = random.Random(0xE19)
    base = e12_text.splitlines()
    for case in range(300):
        lines = list(base)
        for _ in range(rng.randrange(1, 4)):
            lines = _mutate(lines, rng)
        text = "\n".join(lines)
        fast, oracle = _outcome(text)
        assert fast == oracle, f"divergence on mutant {case}:\n{text[:400]}"


def test_structural_errors_agree():
    """The canonical error cases: both readers must raise the identical
    PdbParseError (message and line number)."""
    cases = [
        "",
        "\n\n",
        "ro#1 early\n",
        "<PDB 1.0>\n\n<PDB 1.0>\n",
        "<PDB 1.0>\nrloc so#1 1 1\n",
        "junk\n<PDB 1.0>\n",
        "<PDB 1.0>\nso#1 a\nskind source\n\nro#2 f\n<PDB 1.0>\n",  # duplicate after items
        "<PDB 1.0>\n\n<weird x y\nso#1 a\n",  # '<' attribute line before any item
        "\n  \n\t\njunk\n",  # blank lines, then junk
        "<PDB\xa01.0>\nso#1 a\n",  # no-break space: not a header
    ]
    for text in cases:
        fast, oracle = _outcome(text)
        assert fast == oracle, f"divergence on {text!r}"
        assert fast[0] == "err"


@pytest.mark.parametrize("line", ["ro#\u0661\u0662 f", "ro#12\xa0f", "ro#12\u2003f"])
def test_non_ascii_id_or_separator_is_an_attribute(line):
    """Neither reader takes Unicode digits or whitespace for an item
    line's id or separator: the line is an attribute of the item above."""
    text = f"<PDB 1.0>\nso#1 a\n{line}\n"
    fast, oracle = _outcome(text)
    assert fast == oracle == ("ok", f"<PDB 1.0>\n\nso#1 a\n{line}\n")


def test_angle_bracket_attribute_line_stays_lazy():
    """A non-header line starting with '<' is an ordinary attribute line:
    the document parses on the one path, the line stored unparsed."""
    text = "<PDB 1.0>\nso#1 a\n<weird x y\n"
    doc = parse_pdb(text)
    assert doc.items[0].lines == ["<weird x y"]
    assert doc.items[0]._index is None  # not yet queried
    fast, oracle = _outcome(text)
    assert fast == oracle and fast[0] == "ok"
    assert doc.items[0].get("<weird") == "x y"


@pytest.mark.parametrize("line", ["ro#01 f", "ro#00", "ferr#007 x.cpp:1: e"])
def test_leading_zero_item_id_is_an_error(line):
    """An item id has one spelling, the one the merge rewrites: both
    readers reject a leading zero, naming the line."""
    fast, oracle = _outcome(f"<PDB 1.0>\nso#1 a\nskind source\n{line}\n")
    assert fast == oracle == ("err", (f"line 4: item id with a leading zero: {line!r}", 4))
