"""DUCTAPE API tests: the class hierarchy of paper Figure 4, item
accessors, PDB-level queries, and merge."""


from repro.analyzer import analyze
from repro.ductape import (
    PDB,
    PdbClass,
    PdbFile,
    PdbItem,
    PdbMacro,
    PdbNamespace,
    PdbRoutine,
    PdbSimpleItem,
    PdbTemplate,
    PdbTemplateItem,
    PdbType,
)
from repro.ductape.items import PdbFatItem
from tests.util import compile_source


def pdb_for(src: str, **kw) -> PDB:
    return PDB(analyze(compile_source(src, **kw)))


class TestHierarchy:
    """The DUCTAPE class hierarchy must match paper Figure 4."""

    def test_root(self):
        for cls in (PdbFile, PdbItem, PdbMacro, PdbType, PdbTemplate,
                    PdbNamespace, PdbClass, PdbRoutine):
            assert issubclass(cls, PdbSimpleItem)

    def test_file_is_direct_child_of_simple_item(self):
        assert PdbFile.__bases__ == (PdbSimpleItem,)

    def test_item_children(self):
        assert issubclass(PdbMacro, PdbItem)
        assert issubclass(PdbType, PdbItem)
        assert issubclass(PdbFatItem, PdbItem)

    def test_fat_item_children(self):
        assert issubclass(PdbTemplate, PdbFatItem)
        assert issubclass(PdbNamespace, PdbFatItem)
        assert issubclass(PdbTemplateItem, PdbFatItem)

    def test_template_items(self):
        assert issubclass(PdbClass, PdbTemplateItem)
        assert issubclass(PdbRoutine, PdbTemplateItem)

    def test_macro_not_fat(self):
        assert not issubclass(PdbMacro, PdbFatItem)
        assert not issubclass(PdbType, PdbFatItem)

    def test_heterogeneous_template_item_list(self):
        """Paper: 'list<pdbTemplateItem> can store a list of all template
        instantiations'."""
        pdb = pdb_for(
            "template <class T> class B { public: T g() { return 0; } };\n"
            "int f() { B<int> b; return b.g(); }"
        )
        instantiations = [
            i for i in pdb.items()
            if isinstance(i, PdbTemplateItem) and i.isTemplateInstantiation()
        ]
        kinds = {type(i).__name__ for i in instantiations}
        assert "PdbClass" in kinds and "PdbRoutine" in kinds


class TestVectors:
    SRC = (
        "#define FLAG 1\n"
        "namespace n { enum E { A }; }\n"
        "template <class T> class B { public: T g(); };\n"
        "class C { public: void m(); };\n"
        "int f() { return FLAG; }\n"
    )

    def test_all_vectors_populated(self):
        pdb = pdb_for(self.SRC)
        assert pdb.getFileVec()
        assert pdb.getRoutineVec()
        assert pdb.getClassVec()
        assert pdb.getTypeVec()
        assert pdb.getTemplateVec()
        assert pdb.getNamespaceVec()
        assert pdb.getMacroVec()

    def test_items_ordering_matches_document(self):
        pdb = pdb_for(self.SRC)
        assert [i.raw.ref for i in pdb.items()] == [r.ref for r in pdb.doc.items]

    def test_find_routine(self):
        pdb = pdb_for(self.SRC)
        assert pdb.findRoutine("f") is not None
        assert pdb.findRoutine("C::m") is not None
        assert pdb.findRoutine("nope") is None

    def test_find_class(self):
        pdb = pdb_for(self.SRC)
        assert pdb.findClass("C") is not None

    def test_find_first_match_in_document_order(self):
        """A name matches an item's full name or its short name, and the
        first item in document order wins: here ``W::get``'s short name
        shadows the free ``get`` that follows it."""
        from repro.pdbfmt.items import PdbDocument, RawItem

        doc = PdbDocument()
        doc.add(RawItem("cl", 1, "W")).add("ckind", "class")
        doc.add(RawItem("cl", 2, "V")).add("ckind", "class")
        doc.add(RawItem("ro", 1, "get")).add("rclass", "cl#1")
        doc.add(RawItem("ro", 2, "get"))
        doc.add(RawItem("ro", 3, "V")).add("rclass", "cl#2")
        pdb = PDB(doc)
        first, free, ctor = pdb.getRoutineVec()
        assert (first.fullName(), free.fullName()) == ("W::get", "get")
        assert pdb.findRoutine("get") is first
        assert pdb.findRoutine("W::get") is first
        assert pdb.findRoutine("V") is ctor
        assert pdb.findRoutine("V::V") is ctor
        assert pdb.findClass("V") is pdb.getClassVec()[1]
        assert pdb.findRoutine("W") is None and pdb.findClass("get") is None


class TestAccessors:
    def test_routine_accessors(self):
        pdb = pdb_for(
            "class C { public: virtual int m(int x) const; };\n"
            "int C::m(int x) const { return x; }\n"
        )
        m = pdb.findRoutine("C::m")
        assert m.kind() == PdbRoutine.RO_MEMFUNC
        assert m.isVirtual() and not m.isPureVirtual()
        assert m.access() == "pub"
        assert m.linkage() == "C++"
        assert m.parentClass().name() == "C"
        assert m.fullName() == "C::m"
        assert m.signature().kind() == "func"
        assert m.signature().isConst()
        assert [n for _, n, _ in m.parameters()] == ["x"]

    def test_routine_positions(self):
        pdb = pdb_for("int f()\n{\n  return 1;\n}\n")
        f = pdb.findRoutine("f")
        assert f.bodyBegin().line() == 2
        assert f.bodyEnd().line() == 4
        assert f.headerBegin().line() == 1

    def test_callees_and_callers(self):
        pdb = pdb_for(
            "int leaf() { return 1; }\nint mid() { return leaf(); }\nint top() { return mid(); }"
        )
        mid = pdb.findRoutine("mid")
        assert [c.call().name() for c in mid.callees()] == ["leaf"]
        assert [r.name() for r in mid.callers()] == ["top"]
        leaf = pdb.findRoutine("leaf")
        assert [r.name() for r in leaf.callers()] == ["mid"]

    def test_class_accessors(self):
        pdb = pdb_for(
            "class A { public: virtual ~A(); };\n"
            "class B : public A { public: void m(); private: int x; };\n"
        )
        b = pdb.findClass("B")
        assert b.kind() == "class"
        acc, virt, base = b.baseClasses()[0]
        assert (acc, virt, base.name()) == ("pub", False, "A")
        assert [m.name() for m in b.memberFunctions()] == ["m"]
        member = b.dataMembers()[0]
        assert member.name() == "x"
        assert member.access() == "priv"
        assert member.kind() == "var"
        assert member.type().name() == "int"
        a = pdb.findClass("A")
        assert [d.name() for d in a.derivedClasses()] == ["B"]

    def test_template_accessors(self):
        pdb = pdb_for("template <class T> class B { public: T g(); };\nB<int> b;")
        te = pdb.getTemplateVec()[0]
        assert te.kind() == PdbTemplate.TE_CLASS
        assert "template" in te.text()
        cls = pdb.findClass("B<int>")
        assert cls.template() is te
        assert cls.isTemplateInstantiation()

    def test_namespace_accessors(self):
        pdb = pdb_for("namespace outer { namespace inner { class C {}; } }")
        outer = next(n for n in pdb.getNamespaceVec() if n.name() == "outer")
        inner = next(n for n in pdb.getNamespaceVec() if n.name() == "inner")
        assert inner.parentNamespace() is outer
        assert inner.fullName() == "outer::inner"
        assert any(m.name() == "C" for m in inner.members())

    def test_macro_accessors(self):
        pdb = pdb_for("#define TWICE(x) ((x)+(x))\nint f() { return TWICE(2); }")
        m = pdb.getMacroVec()[0]
        assert m.kind() == "def"
        assert m.name() == "TWICE"
        assert "(x)+(x)" in m.text()

    def test_type_navigation(self):
        pdb = pdb_for("void f(const int& x);")
        f = pdb.findRoutine("f")
        sig = f.signature()
        (arg,) = sig.argumentTypes()
        assert arg.name() == "const int &"
        assert arg.kind() == "ref"
        assert arg.referencedType().name() == "const int"

    def test_file_accessors(self):
        pdb = PDB(
            analyze(
                compile_source('#include "h.h"\nint main() { return 0; }', files={"h.h": ""})
            )
        )
        main = next(f for f in pdb.getFileVec() if f.name() == "main.cpp")
        assert [f.name() for f in main.includes()] == ["h.h"]

    def test_flag(self):
        pdb = pdb_for("int f();")
        f = pdb.findRoutine("f")
        assert f.flag() == 0
        f.flag(1)
        assert f.flag() == 1


class TestTrees:
    def test_inclusion_tree(self):
        pdb = PDB(
            analyze(
                compile_source(
                    '#include "a.h"\nint main() { return 0; }',
                    files={"a.h": '#include "b.h"\n', "b.h": ""},
                )
            )
        )
        tree = pdb.getInclusionTree()
        assert [r.name() for r in tree.roots] == ["main.cpp"]
        walk = list(tree.walk(tree.roots[0]))
        assert [(f.name(), d) for f, d in walk] == [
            ("main.cpp", 0), ("a.h", 1), ("b.h", 2)
        ]

    def test_call_tree_roots(self):
        pdb = pdb_for("int leaf() { return 1; }\nint main() { return leaf(); }")
        tree = pdb.getCallTree()
        assert [r.name() for r in tree.roots] == ["main"]

    def test_call_tree_cycle_cut(self):
        pdb = pdb_for(
            "int odd(int n);\n"
            "int even(int n) { return odd(n - 1); }\n"
            "int odd(int n) { return even(n - 1); }\n"
            "int main() { return even(4); }\n"
        )
        tree = pdb.getCallTree()
        walk = list(tree.walk(pdb.findRoutine("main")))
        assert any(cyc for _, _, _, cyc in walk)
        # terminates and visits both
        names = {r.name() for r, *_ in walk}
        assert {"main", "even", "odd"} <= names

    def test_class_hierarchy(self):
        pdb = pdb_for(
            "class A {};\nclass B : public A {};\nclass C : public B {};\nclass D : public A {};"
        )
        h = pdb.getClassHierarchy()
        a = pdb.findClass("A")
        assert a in h.roots
        walked = [(c.name(), d) for c, d in h.walk(a)]
        assert ("C", 2) in walked and ("D", 1) in walked
        assert h.depth_of(pdb.findClass("C")) == 2


class TestMerge:
    def make_pair(self):
        """Two TUs sharing a header with a template, both instantiating
        Box<int> — the paper's pdbmerge scenario."""
        from repro.cpp import Frontend, FrontendOptions

        files = {
            "box.h": (
                "#ifndef BOX_H\n#define BOX_H\n"
                "template <class T> class Box { public: T g() { return 0; } };\n"
                "#endif\n"
            ),
            "a.cpp": '#include "box.h"\nint fa() { Box<int> b; return b.g(); }\n',
            "b.cpp": '#include "box.h"\nint fb() { Box<int> b; return b.g(); }\n',
        }
        fe = Frontend(FrontendOptions())
        fe.register_files(files)
        return (
            PDB(analyze(fe.compile("a.cpp"))),
            PDB(analyze(fe.compile("b.cpp"))),
        )

    def test_merge_dedupes_instantiations(self):
        pa, pb = self.make_pair()
        stats = pa.merge(pb)
        assert stats.duplicates_eliminated > 0
        boxes = [c for c in pa.getClassVec() if c.name() == "Box<int>"]
        assert len(boxes) == 1
        gs = [r for r in pa.getRoutineVec() if r.name() == "g"]
        assert len(gs) == 1

    def test_merge_keeps_distinct_entities(self):
        pa, pb = self.make_pair()
        pa.merge(pb)
        names = {r.name() for r in pa.getRoutineVec()}
        assert {"fa", "fb"} <= names

    def test_find_after_merge_sees_merged_items(self):
        pa, pb = self.make_pair()
        assert pa.findRoutine("fb") is None  # builds the name index
        box = pa.findClass("Box<int>")
        pa.merge(pb)
        fb = pa.findRoutine("fb")
        assert fb is not None and fb is pa.item(fb.raw.ref)
        merged_box = pa.findClass("Box<int>")
        assert merged_box is not box and merged_box is pa.item(merged_box.raw.ref)

    def test_merge_remaps_references(self):
        pa, pb = self.make_pair()
        pa.merge(pb)
        fb = pa.findRoutine("fb")
        callee_names = {c.call().name() for c in fb.callees() if c.call()}
        assert "g" in callee_names or "Box<int>" in callee_names

    def test_merge_idempotent(self):
        pa, pb = self.make_pair()
        pa.merge(pb)
        n = len(pa.items())
        stats2 = pa.merge(pb)
        assert len(pa.items()) == n
        assert stats2.items_added == 0

    def test_merged_pdb_still_parses(self):
        from repro.pdbfmt import parse_pdb

        pa, pb = self.make_pair()
        pa.merge(pb)
        text = pa.to_text()
        assert parse_pdb(text).items

    def test_merge_no_dangling_refs(self):
        from repro.tools.pdbconv import check_pdb

        pa, pb = self.make_pair()
        pa.merge(pb)
        assert check_pdb(pa) == []


def _chain_call_pdb(n: int) -> str:
    """A call chain f0 -> f1 -> ... -> f{n-1}, as hand-written PDB text."""
    parts = ["<PDB 3.0>", "", "so#1 t.cpp", ""]
    for i in range(n):
        parts.append(f"ro#{i + 1} f{i}")
        parts.append(f"rloc so#1 {i + 1} 1")
        if i + 1 < n:
            parts.append(f"rcall ro#{i + 2} no so#1 {i + 1} 1")
        parts.append("")
    return "\n".join(parts)


def _chain_include_pdb(n: int) -> str:
    """An include chain h0 -> h1 -> ... -> h{n-1}."""
    parts = ["<PDB 3.0>", ""]
    for i in range(n):
        parts.append(f"so#{i + 1} h{i}.h")
        if i + 1 < n:
            parts.append(f"sinc so#{i + 2}")
        parts.append("")
    return "\n".join(parts)


def _diamond_ladder_pdb(levels: int) -> str:
    """A stack of inheritance diamonds: B0 <- {M1_i, M2_i} <- B_i.

    ``depth_of(B_levels)`` is 2*levels; without memoization the diamond
    sharing makes naive recursion visit 2^levels paths.
    """
    parts = ["<PDB 3.0>", "", "so#1 t.h", "", "cl#1 B0", "cloc so#1 1 1", ""]
    prev = 1
    nid = 1
    for lv in range(1, levels + 1):
        m1, m2, bot = nid + 1, nid + 2, nid + 3
        nid = bot
        for cid, name in ((m1, f"M1_{lv}"), (m2, f"M2_{lv}")):
            parts += [f"cl#{cid} {name}", f"cloc so#1 {cid} 1",
                      f"cbase pub no cl#{prev} so#1 {cid} 1", ""]
        parts += [f"cl#{bot} B{lv}", f"cloc so#1 {bot} 1",
                  f"cbase pub no cl#{m1} so#1 {bot} 1",
                  f"cbase pub no cl#{m2} so#1 {bot} 1", ""]
        prev = bot
    return "\n".join(parts)


class TestDerivedQueries:
    """PDB.callers_of / PDB.derived_of (paper's derived-structure queries)."""

    SRC = (
        "class A { public: virtual int v( ) { return 0; } };\n"
        "class B : public A { };\n"
        "class C : public B { };\n"
        "int leaf( ) { return 1; }\n"
        "int mid( ) { return leaf( ); }\n"
        "int main( ) { return mid( ) + leaf( ); }\n"
    )

    def test_callers_of(self):
        pdb = pdb_for(self.SRC)
        byname = {r.name(): r for r in pdb.getRoutineVec()}
        assert {r.name() for r in pdb.callers_of(byname["leaf"])} == {"mid", "main"}
        assert {r.name() for r in pdb.callers_of(byname["mid"])} == {"main"}
        assert pdb.callers_of(byname["main"]) == []

    def test_derived_of_is_direct_only(self):
        pdb = pdb_for(self.SRC)
        byname = {c.name(): c for c in pdb.getClassVec()}
        assert [c.name() for c in pdb.derived_of(byname["A"])] == ["B"]
        assert [c.name() for c in pdb.derived_of(byname["B"])] == ["C"]
        assert pdb.derived_of(byname["C"]) == []

    def test_callers_of_mutual_recursion(self):
        pdb = PDB.from_text(_chain_call_pdb(1).replace(
            "rloc so#1 1 1", "rloc so#1 1 1\nrcall ro#1 no so#1 1 1"))
        (f0,) = pdb.getRoutineVec()
        assert pdb.callers_of(f0) == [f0]


class TestPureCycleCallGraph:
    """A mutually-recursive cluster nothing calls: every routine is
    'called', so the call tree has no roots at all."""

    CYCLE = (
        "<PDB 3.0>\n\n"
        "so#1 t.cpp\n\n"
        "ro#1 ping\nrloc so#1 1 1\nrcall ro#2 no so#1 1 1\n\n"
        "ro#2 pong\nrloc so#1 2 1\nrcall ro#1 no so#1 2 1\n"
    )

    def test_no_roots(self):
        pdb = PDB.from_text(self.CYCLE)
        tree = pdb.getCallTree()
        assert tree.roots == []
        assert [row for r in tree.roots for row in tree.walk(r)] == []

    def test_callers_of_sees_cycle_edges(self):
        pdb = PDB.from_text(self.CYCLE)
        byname = {r.name(): r for r in pdb.getRoutineVec()}
        assert [r.name() for r in pdb.callers_of(byname["ping"])] == ["pong"]


class TestIterativeWalks:
    """CallTree.walk / InclusionTree.walk must survive chains far deeper
    than the Python recursion limit (they are explicit-stack walks)."""

    def test_deep_call_chain(self):
        import sys

        n = sys.getrecursionlimit() + 500
        pdb = PDB.from_text(_chain_call_pdb(n))
        tree = pdb.getCallTree()
        (root,) = tree.roots
        rows = list(tree.walk(root))
        assert len(rows) == n
        last, depth, cyclic, _virt = rows[-1]
        assert last.name() == f"f{n - 1}"
        assert depth == n - 2  # root is yielded at depth -1
        assert not cyclic

    def test_deep_include_chain(self):
        import sys

        n = sys.getrecursionlimit() + 500
        pdb = PDB.from_text(_chain_include_pdb(n))
        tree = pdb.getInclusionTree()
        (root,) = tree.roots
        rows = list(tree.walk(root))
        assert len(rows) == n
        assert rows[-1][0].name() == f"h{n - 1}.h"
        assert rows[-1][1] == n - 1

    def test_call_walk_flags_reset_when_abandoned(self):
        """Abandoning the generator mid-walk must not leave ACTIVE flags
        behind (the try/finally sweep)."""
        pdb = PDB.from_text(_chain_call_pdb(10))
        tree = pdb.getCallTree()
        (root,) = tree.roots
        g = tree.walk(root)
        next(g)
        next(g)
        g.close()
        assert len(list(tree.walk(root))) == 10


class TestDepthOf:
    def test_linear_chain(self):
        pdb = pdb_for(
            "class A { };\nclass B : public A { };\nclass C : public B { };\n"
        )
        h = pdb.getClassHierarchy()
        byname = {c.name(): c for c in pdb.getClassVec()}
        assert h.depth_of(byname["A"]) == 0
        assert h.depth_of(byname["C"]) == 2

    def test_diamond_ladder_is_polynomial(self):
        """30 stacked diamonds = 2^30 root-to-leaf paths; the memoized
        walk must answer instantly (and exactly)."""
        levels = 30
        pdb = PDB.from_text(_diamond_ladder_pdb(levels))
        h = pdb.getClassHierarchy()
        byname = {c.name(): c for c in pdb.getClassVec()}
        assert h.depth_of(byname[f"B{levels}"]) == 2 * levels
        # the memo now holds every class on the ladder
        assert len(h._depths) == 1 + 3 * levels

    def test_cycle_raises_value_error(self):
        import pytest

        text = (
            "<PDB 3.0>\n\n"
            "so#1 t.h\n\n"
            "cl#1 A\ncloc so#1 1 1\ncbase pub no cl#2 so#1 1 1\n\n"
            "cl#2 B\ncloc so#1 2 1\ncbase pub no cl#1 so#1 2 1\n"
        )
        pdb = PDB.from_text(text)
        h = pdb.getClassHierarchy()
        byname = {c.name(): c for c in pdb.getClassVec()}
        with pytest.raises(ValueError, match="class hierarchy cycle"):
            h.depth_of(byname["A"])
