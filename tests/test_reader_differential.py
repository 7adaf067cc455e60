"""Differential regression guard for the fast PDB reader.

The partition/slice scanner (``parse_pdb``) and the regex reference
path (``parse_pdb(strict=True)``) share one grammar; this suite holds
them to it.  Over the E12 round-trip fixpoint corpus and a seeded
battery of mutated variants, every input must either parse to the same
document on both paths or raise the same ``PdbParseError`` (message
*and* line number) on both.

Mutations stay within printable ASCII: the one documented divergence
between the paths is that the regex path's ``\\d`` accepts Unicode
digits in item ids, which no real database contains and which this
guard deliberately does not exercise.
"""

import random

import pytest

from repro.analyzer import analyze
from repro.cpp.frontend import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.pdbfmt.reader import PdbParseError, parse_pdb
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.synth import SynthSpec, generate

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
    """Parse on one path, normalising to ('ok', rendered) / ('err', msg)."""

    def run(strict):
        try:
            return ("ok", write_pdb(parse_pdb(text, strict=strict)))
        except PdbParseError as e:
            return ("err", (str(e), e.line_no))

    return run(False), run(True)


def _mutate(lines: list[str], rng: random.Random) -> list[str]:
    out = list(lines)
    op = rng.randrange(8)
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
    else:
        out[i] = out[i][: rng.randrange(len(out[i]) + 1)]
    return out


def test_fixpoint_corpus_agrees(e12_text):
    fast, strict = _outcome(e12_text)
    assert fast == strict
    assert fast == ("ok", e12_text)  # the corpus really is a fixpoint


def test_differential_fuzz_over_mutated_corpus(e12_text):
    rng = random.Random(0xE19)
    base = e12_text.splitlines()
    for case in range(300):
        lines = list(base)
        for _ in range(rng.randrange(1, 4)):
            lines = _mutate(lines, rng)
        text = "\n".join(lines)
        fast, strict = _outcome(text)
        assert fast == strict, f"divergence on mutant {case}:\n{text[:400]}"


def test_structural_errors_agree():
    """The canonical error cases: both paths must raise the identical
    PdbParseError (message and line number)."""
    cases = [
        "",
        "\n\n",
        "ro#1 early\n",
        "<PDB 1.0>\n\n<PDB 1.0>\n",
        "<PDB 1.0>\nrloc so#1 1 1\n",
        "junk\n<PDB 1.0>\n",
    ]
    for text in cases:
        fast, strict = _outcome(text)
        assert fast == strict, f"divergence on {text!r}"
        assert fast[0] == "err"
