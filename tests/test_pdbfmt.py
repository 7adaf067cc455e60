"""PDB format tests: writer, reader, round trips."""

import pytest

from repro.pdbfmt import (
    ItemRef,
    PdbDocument,
    PdbLocation,
    PdbParseError,
    RawItem,
    parse_pdb,
    write_pdb,
)
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS, ITEM_TYPES


def sample_doc() -> PdbDocument:
    doc = PdbDocument()
    so = doc.add(RawItem("so", 1, "main.cpp"))
    so.add("sinc", "so#2")
    doc.add(RawItem("so", 2, "lib.h"))
    ro = doc.add(RawItem("ro", 1, "main"))
    ro.add("rloc", "so#1", 3, 5)
    ro.add("racs", "NA")
    ro.add("rcall", "ro#2", "no", "so#1", 4, 9)
    ro.add("rpos", "so#1", 3, 1, "so#1", 3, 10, "so#1", 3, 12, "so#1", 6, 1)
    ro2 = doc.add(RawItem("ro", 2, "helper"))
    ro2.add("rloc", "so#2", 1, 5)
    te = doc.add(RawItem("te", 1, "Stack"))
    te.add_text("ttext", "template <class T> class Stack { };")
    return doc


class TestItemRef:
    def test_parse(self):
        ref = ItemRef.parse("so#66")
        assert ref == ItemRef("so", 66)

    def test_str(self):
        assert str(ItemRef("ro", 7)) == "ro#7"

    def test_null(self):
        assert ItemRef.parse("NULL") is None

    def test_malformed(self):
        with pytest.raises(ValueError):
            ItemRef.parse("plainword")


class TestLocation:
    def test_str(self):
        loc = PdbLocation(ItemRef("so", 66), 23, 15)
        assert str(loc) == "so#66 23 15"

    def test_null_renders(self):
        assert str(PdbLocation.null()) == "NULL 0 0"


class TestWriter:
    def test_header(self):
        text = write_pdb(PdbDocument())
        assert text.startswith("<PDB 1.0>")

    def test_item_lines(self):
        text = write_pdb(sample_doc())
        assert "so#1 main.cpp" in text
        assert "sinc so#2" in text
        assert "rcall ro#2 no so#1 4 9" in text

    def test_text_attribute_verbatim(self):
        text = write_pdb(sample_doc())
        assert "ttext template <class T> class Stack { };" in text

    def test_deterministic(self):
        assert write_pdb(sample_doc()) == write_pdb(sample_doc())


class TestReader:
    def test_round_trip(self):
        text = write_pdb(sample_doc())
        doc2 = parse_pdb(text)
        assert write_pdb(doc2) == text

    def test_counts(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        assert len(doc.by_prefix("so")) == 2
        assert len(doc.by_prefix("ro")) == 2
        assert len(doc.by_prefix("te")) == 1

    def test_find(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        item = doc.find(ItemRef("ro", 1))
        assert item is not None and item.name == "main"

    def test_get_ref(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        so1 = doc.find(ItemRef("so", 1))
        assert so1.get_ref("sinc") == ItemRef("so", 2)

    @pytest.mark.parametrize("text", ["so#01", "so#+1", "so# 1", "so#1_0", "so#", "so#x"])
    def test_ref_has_one_spelling(self, text):
        with pytest.raises(ValueError):
            ItemRef.parse(text)

    def test_get_location(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        ro = doc.find(ItemRef("ro", 1))
        loc = ro.get_location("rloc")
        assert (loc.file, loc.line, loc.column) == (ItemRef("so", 1), 3, 5)

    def test_get_positions(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        ro = doc.find(ItemRef("ro", 1))
        locs = ro.get_positions("rpos")
        assert len(locs) == 4
        assert locs[3].line == 6

    def test_unknown_attribute_preserved(self):
        text = "<PDB 1.0>\n\nro#1 f\nrfancy a b c\n"
        doc = parse_pdb(text)
        assert doc.items[0].get("rfancy") == "a b c"

    def test_blank_lines_optional(self):
        text = "<PDB 1.0>\nso#1 a.cpp\nso#2 b.cpp\n"
        assert len(parse_pdb(text).items) == 2

    def test_missing_header_rejected(self):
        with pytest.raises(PdbParseError, match="header"):
            parse_pdb("so#1 a.cpp\n")

    def test_attribute_outside_item_rejected(self):
        with pytest.raises(PdbParseError, match="outside"):
            parse_pdb("<PDB 1.0>\nsinc so#2\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(PdbParseError, match="duplicate"):
            parse_pdb("<PDB 1.0>\n<PDB 1.0>\n")

    def test_empty_input_rejected(self):
        with pytest.raises(PdbParseError):
            parse_pdb("")

    def test_version_parsed(self):
        assert parse_pdb("<PDB 2.5>\n").version == "2.5"


class TestLazyAttributes:
    """An item reads its stored lines through a key index built on the
    first query."""

    def test_parse_defers_materialisation(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        ro = doc.find(ItemRef("ro", 1))
        lines = list(ro.lines)
        assert ro._index is None and lines
        assert ro.get("racs") == "NA"  # the first query builds the index...
        index = ro._index
        assert index is not None and ro.lines == lines  # ...over the lines, which stay
        assert ro.get_all("rcall") == ["ro#2 no so#1 4 9"]
        assert ro._index is index  # ...exactly once

    def test_mutation_after_parse_sticks(self):
        doc = parse_pdb(write_pdb(sample_doc()))
        ro = doc.find(ItemRef("ro", 2))
        ro.add("racs", "PUB")
        assert ro.get("racs") == "PUB"
        assert "racs PUB" in write_pdb(doc)

    def test_lazy_and_eager_items_compare_equal(self):
        eager = sample_doc().find(ItemRef("ro", 1))
        lazy = parse_pdb(write_pdb(sample_doc())).find(ItemRef("ro", 1))
        assert lazy == eager

    @pytest.mark.parametrize("irregular", [False, True])
    def test_lazy_item_writes_as_materialised(self, irregular):
        text = write_pdb(sample_doc())
        if irregular:
            text = text.replace("rloc so#1", "rloc  so#1\t").replace(" 1 ", " \t1  ")
            text += "ferr#1 t.cpp:1: so#1 broken\nfloc \tso#1  3 1 \nfmsg  so#1\tbroken\n"
        lazy = parse_pdb(text)
        assert all(item._index is None for item in lazy.items)
        written = write_pdb(lazy)
        assert all(item._index is None for item in lazy.items)
        for item in lazy.items:
            item.get("rloc")  # builds the key index
        assert written == write_pdb(lazy)
        assert ("fmsg  so#1\tbroken" in written) is irregular
        assert "\t" not in written.replace("fmsg  so#1\tbroken", "")

    def test_constructed_items_store_lines(self):
        item = RawItem("ro", 9, "f")
        item.add("rloc", "so#1", 1, 1)
        item.add_text("rsig", "")
        assert item.lines == ["rloc so#1 1 1", "rsig"]
        assert item._index is None  # built like a parsed item: no index yet
        assert item.get_all("rloc") == ["so#1 1 1"] and item.get("rsig") == ""

    def test_attributes_are_read_only(self):
        """A query hands out strings and fresh lists: changing what it
        returned changes neither the index nor the item."""
        item = parse_pdb(write_pdb(sample_doc())).find(ItemRef("ro", 1))
        lines = list(item.lines)
        item.get_all("rcall").append("ro#1 no so#1 1 1")
        item.get_all("racs").clear()
        assert item.get_all("rcall") == ["ro#2 no so#1 4 9"]
        assert item.get("racs") == "NA"
        assert item.lines == lines

    def test_add_after_query_is_seen(self):
        item = parse_pdb(write_pdb(sample_doc())).find(ItemRef("ro", 2))
        assert item.get("racs") is None and item.get_all("rcall") == []  # the index is built
        item.add("racs", "PUB")
        item.add("rcall", "ro#1", "no", "so#2", 9, 9)
        assert item.get("racs") == "PUB"
        assert item.get_all("rcall") == ["ro#1 no so#2 9 9"]
        assert item.lines[-2:] == ["racs PUB", "rcall ro#1 no so#2 9 9"]
        doc = PdbDocument(items=[item])
        assert write_pdb(doc).endswith("racs PUB\nrcall ro#1 no so#2 9 9\n")

    def test_built_item_equals_its_parsed_twin(self):
        doc = PdbDocument()
        item = doc.add(RawItem("ro", 1, "f"))
        item.add("rloc", "so#1 3", 4)
        item.add("rcall", "ro#2\tno", "so#1  5 6")
        item.add_text("rsig", "int (int)")
        twin = parse_pdb(write_pdb(doc)).items[0]
        assert item.get("rloc").split() == ["so#1", "3", "4"] == twin.get("rloc").split()
        assert item.get("rcall").split() == twin.get("rcall").split()
        assert item == twin
        assert write_pdb(doc) == write_pdb(PdbDocument(items=[twin]))


class TestSpec:
    def test_table1_prefixes(self):
        """Paper Table 1's prefix column, exactly, plus this repro's
        ``ferr`` extension for fault-tolerant builds."""
        assert ITEM_TYPES == {
            "so": "SOURCE FILES",
            "ro": "ROUTINES",
            "cl": "CLASSES",
            "ty": "TYPES",
            "te": "TEMPLATES",
            "na": "NAMESPACES",
            "ma": "MACROS",
            "ferr": "FRONTEND ERRORS",
        }

    def test_every_prefix_has_schema(self):
        assert set(ATTRIBUTE_SCHEMAS) == set(ITEM_TYPES)

    def test_attribute_keys_use_prefix_letter(self):
        # each item type's attribute keys start with a letter tied to the
        # prefix ("distinguishing prefixes for common item attributes")
        first = {
            "so": "s", "ro": "r", "cl": "c", "ty": "y",
            "te": "t", "na": "n", "ma": "m", "ferr": "f",
        }
        for prefix, attrs in ATTRIBUTE_SCHEMAS.items():
            for key in attrs:
                assert key.startswith(first[prefix]), (prefix, key)
