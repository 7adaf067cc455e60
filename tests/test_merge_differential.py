"""Differential test: the single-pass merge against the left fold.

Random corpora of small per-TU databases, drawn from tight name, file
and line pools so that items collide often: duplicates inside the first
input and inside later ones, one routine or class defined at two places
(both definitions survive), ``ferr`` records, template instantiations
(``ctempl``/``rtempl``), refs that do not resolve inside their own
input (some of which resolve once the merge has grown), unknown
attribute keys, repeated and short location lines, and ``fmsg`` texts
whose words look like refs.  Every entry point must give the fold's
bytes and per-input :class:`MergeStats`, and leave its inputs
unmodified.  The fold keys items through the reader oracle's eager
split of their lines; the merge reads the lines through a key index, so
the inputs are also drawn with irregular blanks in their attribute
lines and with a random subset of their items queried (their key index
built) before the merge.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.pdbfmt.reader import parse_pdb
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbbuild import build
from repro.tools.pdbmerge import merge_pdb_texts_tree, merge_pdbs
from repro.workloads.synth import SynthSpec, generate

from tests.merge_oracle import fold

FILES = ("a.h", "b.h", "t.cpp")
NAMES = {
    "na": ("std", "ns"),
    "ty": ("int", "T", "Box<int>"),
    "cl": ("Box", "Box<int>", "W"),
    "ro": ("f", "g", "get"),
    "te": ("Box", "sum"),
    "ma": ("N", "M"),
}
#: ``fmsg`` is text grammar: a word that looks like a ref is not one
MESSAGES = ("broken", "bad token", "so#1 broken", "ro#2 calls  cl#1")


@st.composite
def documents(draw) -> PdbDocument:
    """One per-TU database over the shared pools."""
    doc = PdbDocument()
    next_id: dict[str, int] = {}

    def new(prefix: str, name: str) -> RawItem:
        # ids rise within a prefix, from a drawn start and with gaps
        start = next_id.get(prefix, draw(st.integers(0, 2)))
        next_id[prefix] = start + draw(st.sampled_from((1, 1, 1, 2)))
        return doc.add(RawItem(prefix, next_id[prefix], name))

    def ref(prefix: str) -> str:
        own = [i for i in doc.items if i.prefix == prefix]
        pick = draw(st.integers(0, 9))
        if pick == 0:
            return "NULL"
        if pick == 1 or not own:
            # may dangle here, and name an item of the merge later
            return f"{prefix}#{draw(st.integers(1, 9))}"
        return str(draw(st.sampled_from(own)).ref)

    def loc() -> list:
        if draw(st.integers(0, 5)) == 0:
            return ["NULL", 0, 0]
        return [ref("so"), draw(st.integers(1, 3)), 1]

    for _ in range(draw(st.integers(1, 2))):
        new("so", draw(st.sampled_from(FILES))).add("skind", "source")
    for _ in range(draw(st.integers(0, 14))):
        prefix = draw(st.sampled_from(("na", "ty", "cl", "ro", "ro", "te", "ma", "ferr")))
        if prefix == "ferr":
            item = new("ferr", "t.cpp:1: broken")
            item.add("floc", *loc())
            item.add_text("fmsg", draw(st.sampled_from(MESSAGES)))
            continue
        item = new(prefix, draw(st.sampled_from(NAMES[prefix])))
        if prefix == "na":
            item.add("nnspace", ref("na"))
        elif prefix == "ty":
            item.add("yclass" if draw(st.booleans()) else "ynspace", ref("cl"))
        elif prefix == "cl":
            item.add("ckind", "class")
            item.add("cloc", *loc())
            item.add("cclass" if draw(st.booleans()) else "cnspace", ref("na"))
            if draw(st.booleans()):
                item.add("ctempl", ref("te"))
        elif prefix == "ro":
            item.add("rsig", ref("ty"))
            item.add("rclass", ref("cl"))
            item.add("rloc", *loc())
            body = loc() if draw(st.booleans()) else ["NULL", 0, 0]
            item.add("rpos", *loc(), *loc(), *body, *body)
            if draw(st.integers(0, 4)) == 0:
                item.add("rstatic", "yes")
            if draw(st.booleans()):
                item.add("rtempl", ref("te"))
            item.add("rcall", ref("ro"), "no", *loc())
        elif prefix == "te":
            item.add("tloc", *loc())
            item.add("tkind", draw(st.sampled_from(("class", "func"))))
        else:
            item.add("maloc", *loc())
        extra = draw(st.integers(0, 7))
        if extra == 0:
            # an attribute the schema does not know, with a ref word
            item.add(draw(st.sampled_from(("zref", "qnote"))), ref("ro"), "w")
        elif extra == 1:
            # a second location line: the key reads the first one
            item.add(draw(st.sampled_from(("rloc", "cloc", "floc"))), *loc())
        elif extra == 2:
            # too short to be a location: the key tries the next one
            item.add(draw(st.sampled_from(("rloc", "cloc", "maloc", "yloc"))), ref("so"))
    return doc


corpora = st.lists(documents(), min_size=0, max_size=6)


def _same_as_fold(docs: list[PdbDocument]) -> None:
    _texts_same_as_fold([write_pdb(d) for d in docs])


def _texts_same_as_fold(texts: list[str], touch=lambda doc: None) -> None:
    """Every entry point merges ``texts`` as the fold does; ``touch``
    may query items of an input before the merge."""

    def parsed() -> list[PDB]:
        return [PDB(parse_pdb(t)) for t in texts]

    want, want_stats = fold(parsed())
    want_text = want.to_text()

    inputs = parsed()
    for p in inputs:
        touch(p.doc)
    before = [p.to_text() for p in inputs]
    got, got_stats = merge_pdbs(inputs)
    assert got.to_text() == want_text
    assert got_stats == want_stats
    assert [p.to_text() for p in inputs] == before

    merged, total, passes = merge_pdb_texts_tree(texts)
    assert merged.to_text() == want_text
    summed = MergeStats()
    for s in want_stats:
        summed += s
    assert total == summed
    assert passes == (1 if len(texts) > 1 else 0)

    if len(texts) == 2:
        # the two-input case, in place
        base, other = parsed()
        touch(base.doc)
        touch(other.doc)
        assert base.merge(other) == want_stats[0]
        assert base.to_text() == want_text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora)
def test_single_pass_matches_fold(docs):
    _same_as_fold(docs)


BLANKS = (" ", " ", " ", "  ", "\t", " \t ")


def _roughen(text: str, rnd: random.Random) -> str:
    """``text`` with random blanks between the value words of its
    attribute lines, before them and after them (the separator after the
    key stays one space, so every line keeps its key)."""
    out = []
    for line in text.split("\n"):
        key, sep, rest = line.partition(" ")
        if not sep or "#" in key or line.startswith("<"):
            out.append(line)  # header, item line, blank or key-only line
            continue
        words = rest.split(" ")
        lead = rnd.choice(("", "", " ", "\t"))
        trail = rnd.choice(("", "", " ", "\t "))
        body = words[0] + "".join(rnd.choice(BLANKS) + w for w in words[1:])
        out.append(key + " " + lead + body + trail)
    return "\n".join(out)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora, st.booleans(), st.sampled_from((0.0, 0.5)), st.randoms(use_true_random=False))
def test_irregular_or_touched_inputs_match_fold(docs, rough, share, rnd):
    """Stored lines with tabs and blank runs, and items an earlier
    reader queried (a ``share`` of them), key, merge and write as the
    fold's eager split does."""
    texts = [write_pdb(d) for d in docs]
    if rough:
        texts = [_roughen(t, rnd) for t in texts]

    def touch(doc: PdbDocument) -> None:
        for item in doc.items:
            if rnd.random() < share:
                item.get("rloc")  # builds the item's key index

    _texts_same_as_fold(texts, touch=touch)


def test_fmsg_words_that_look_like_refs_survive():
    first = _tu("t.cpp")
    second = _tu("u.cpp")
    second.add(RawItem("so", 2, "t.cpp")).add("skind", "source")
    err = second.add(RawItem("ferr", 1, "u.cpp:1: so#2 broken"))
    err.add("floc", "so#2", 1, 1)
    err.add_text("fmsg", "so#2  broken\tso#1")
    _same_as_fold([first, second])
    merged, _ = merge_pdbs([PDB(parse_pdb(write_pdb(d))) for d in (first, second)])
    text = merged.to_text()
    assert "floc so#1 1 1" in text  # the ref word is rewritten...
    assert "fmsg so#2  broken\tso#1" in text  # ...the message is not


def test_non_canonical_ref_is_rejected_not_misrouted():
    # the rewrite matches only ``so#1``, so ``so#01`` once kept naming
    # the first input's a.h after b.h was renumbered so#2
    first = "<PDB 1.0>\nso#1 a.h\n"
    second = "<PDB 1.0>\nso#1 b.h\n\nro#1 f\nrloc so#01 3 1\n"
    with pytest.raises(ValueError, match="so#01"):
        merge_pdb_texts_tree([first, second])


def test_merge_and_write_materialise_nothing():
    """A multi-TU build's merge and write build no key index on any item
    they emit, the first input's items included; a first query on a
    merged item does build one."""
    corpus = generate(SynthSpec(n_translation_units=3, n_templates=2))
    texts = [build([f], files=corpus.files)[0].to_text() for f in corpus.main_files]
    want = build(corpus.main_files, files=corpus.files)[0].to_text()
    merged, stats, _ = merge_pdb_texts_tree(texts)
    assert write_pdb(merged.doc) == want
    assert stats.duplicates_eliminated > 0
    assert [item for item in merged.doc.items if item._index is not None] == []
    last = merged.doc.items[-1]
    assert last.get("no such key") is None  # a first query...
    assert last._index is not None  # ...builds the index


def test_empty_and_single_input():
    _same_as_fold([])
    one = PdbDocument()
    one.add(RawItem("so", 1, "t.cpp")).add("skind", "source")
    _same_as_fold([one])


def _routine(doc: PdbDocument, id: int, name: str, line: int, cls: str = "NULL") -> RawItem:
    ro = doc.add(RawItem("ro", id, name))
    ro.add("rsig", "NULL")
    ro.add("rclass", cls)
    ro.add("rloc", "so#1", line, 1)
    ro.add("rpos", "so#1", line, 1, "so#1", line, 5, "so#1", line, 7, "so#1", line + 1, 1)
    return ro


def _tu(file: str) -> PdbDocument:
    doc = PdbDocument()
    doc.add(RawItem("so", 1, file)).add("skind", "source")
    return doc


def test_first_input_duplicates_kept_later_ones_collapse():
    first = _tu("t.cpp")
    _routine(first, 1, "f", 3)
    _routine(first, 2, "f", 3)  # same key: kept, and the one later inputs merge into
    second = _tu("t.cpp")
    _routine(second, 1, "f", 3)
    _routine(second, 2, "g", 5)
    _routine(second, 3, "g", 5)  # same key inside a later input: collapses
    caller = _routine(second, 4, "h", 8)
    caller.add("rcall", "ro#1", "no", "so#1", 9, 2)
    _same_as_fold([first, second])
    merged, stats = merge_pdbs([PDB(first), PDB(second)])
    assert [r.name for r in merged.doc.by_prefix("ro")] == ["f", "f", "g", "h"]
    assert merged.doc.items[-1].get("rcall").split()[0] == "ro#2"
    assert stats[0].duplicates_eliminated == 3


def test_dangling_ref_resolving_later_rekeys():
    """A parent ref that dangles in its own input names a class once a
    later input adds it; the fold re-keys the item, and so must the pass."""
    first = _tu("t.cpp")
    _routine(first, 1, "get", 3, cls="cl#1")  # no cl#1 here
    second = _tu("t.cpp")
    second.add(RawItem("cl", 1, "Box")).add("cloc", "so#1", 1, 1)
    third = _tu("t.cpp")
    third.add(RawItem("cl", 1, "Box")).add("cloc", "so#1", 1, 1)
    _routine(third, 1, "get", 3, cls="cl#1")  # now a duplicate of the first
    _same_as_fold([first, second, third])
    _, stats = merge_pdbs([PDB(first), PDB(second), PDB(third)])
    assert stats[1].duplicates_eliminated == 3
