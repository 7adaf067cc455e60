"""IL Analyzer tests: item emission, attributes, template matching."""


from repro.analyzer import ILAnalyzer, analyze
from repro.cpp.instantiate import InstantiationMode
from repro.pdbfmt import ItemRef
from tests.util import compile_source


def doc_for(src: str, **kw):
    return analyze(compile_source(src, **kw))


def items_named(doc, prefix, name):
    return [i for i in doc.by_prefix(prefix) if i.name == name]


def the_item(doc, prefix, name):
    matches = items_named(doc, prefix, name)
    assert len(matches) == 1, f"expected one {prefix} {name!r}, got {len(matches)}"
    return matches[0]


class TestFilesPass:
    def test_files_and_inclusions(self):
        doc = analyze(
            compile_source('#include "a.h"\nint main() { return 0; }', files={"a.h": ""})
        )
        main_item = the_item(doc, "so", "main.cpp")
        a_item = the_item(doc, "so", "a.h")
        assert main_item.get_ref("sinc") == a_item.ref

    def test_synthetic_files_excluded(self):
        doc = doc_for("int x;")
        assert all(not i.name.startswith("<") for i in doc.by_prefix("so"))


class TestRoutinesPass:
    SRC = (
        "class C { public: virtual int m(int a, int b = 2) const; };\n"
        "int C::m(int a, int b) const { return a + b; }\n"
        "static void helper() { }\n"
        "void caller() { C c; c.m(1); helper(); }\n"
    )

    def test_core_attributes(self):
        doc = doc_for(self.SRC)
        m = the_item(doc, "ro", "m")
        assert m.first_word("racs") == "pub"
        assert m.first_word("rvirt") == "virt"
        assert m.first_word("rkind") == "memfunc"
        assert m.first_word("rlink") == "C++"
        assert m.get_ref("rclass") == the_item(doc, "cl", "C").ref

    def test_signature_reference(self):
        doc = doc_for(self.SRC)
        m = the_item(doc, "ro", "m")
        sig_ref = m.get_ref("rsig")
        sig = doc.find(sig_ref)
        assert sig.prefix == "ty"
        assert sig.first_word("ykind") == "func"
        assert sig.get("yqual").split() == ["const"]

    def test_storage_class(self):
        doc = doc_for(self.SRC)
        assert the_item(doc, "ro", "helper").first_word("rstore") == "static"

    def test_rcall_rows(self):
        doc = doc_for(self.SRC)
        caller = the_item(doc, "ro", "caller")
        calls = caller.get_all("rcall")
        callees = {doc.find(ItemRef.parse(a.split()[0])).name for a in calls}
        assert callees == {"m", "helper"}
        virt_flags = {doc.find(ItemRef.parse(a.split()[0])).name: a.split()[1] for a in calls}
        assert virt_flags["m"] == "virt"
        assert virt_flags["helper"] == "no"

    def test_rcall_location(self):
        doc = doc_for(self.SRC)
        caller = the_item(doc, "ro", "caller")
        call = caller.get_all("rcall")[0]
        assert int(call.split()[3]) == 4  # line of the call expression

    def test_rarg_rows(self):
        doc = doc_for(self.SRC)
        m = the_item(doc, "ro", "m")
        args = m.get_all("rarg")
        assert len(args) == 2
        assert args[0].split()[1] == "a" and args[0].split()[2] == "-"
        assert args[1].split()[1] == "b" and args[1].split()[2] == "D"

    def test_rpos(self):
        doc = doc_for(self.SRC)
        m = the_item(doc, "ro", "m")
        locs = m.get_positions("rpos")
        assert locs[0].line == 2  # header begin at the definition


class TestClassesPass:
    SRC = (
        "class Base { public: virtual ~Base(); };\n"
        "class Friendly;\n"
        "class D : public virtual Base {\n"
        "public:\n"
        "    void m();\n"
        "    friend class Friendly;\n"
        "private:\n"
        "    int counter;\n"
        "    static double rate;\n"
        "};\n"
    )

    def test_ckind_cloc(self):
        doc = doc_for(self.SRC)
        d = the_item(doc, "cl", "D")
        assert d.first_word("ckind") == "class"
        assert d.get_location("cloc").line == 3

    def test_cbase(self):
        doc = doc_for(self.SRC)
        d = the_item(doc, "cl", "D")
        base_attr = d.get("cbase")
        assert base_attr.split()[0] == "pub"
        assert base_attr.split()[1] == "virt"
        assert doc.find(ItemRef.parse(base_attr.split()[2])).name == "Base"

    def test_cfriend(self):
        doc = doc_for(self.SRC)
        d = the_item(doc, "cl", "D")
        assert doc.find(d.get_ref("cfriend")).name == "Friendly"

    def test_cfunc_rows(self):
        doc = doc_for(self.SRC)
        d = the_item(doc, "cl", "D")
        funcs = d.get_all("cfunc")
        assert {doc.find(ItemRef.parse(a.split()[0])).name for a in funcs} == {"m"}

    def test_cmem_groups(self):
        doc = doc_for(self.SRC)
        d = the_item(doc, "cl", "D")
        keys = [line.partition(" ")[0] for line in d.lines if line.startswith("cm")]
        # each cmem followed by its loc/acs/kind/type rows (Figure 3)
        assert keys == ["cmem", "cmloc", "cmacs", "cmkind", "cmtype"] * 2
        assert d.get_all("cmem") == ["counter", "rate"]
        kinds = [v.split()[0] for v in d.get_all("cmkind")]
        assert kinds == ["var", "svar"]
        accesses = [v.split()[0] for v in d.get_all("cmacs")]
        assert accesses == ["priv", "priv"]


class TestTypesPass:
    def test_builtin_int(self):
        doc = doc_for("int x;")
        # int is referenced by nothing in the PDB (variables are not
        # items), so force it via a signature
        doc = doc_for("int f();")
        int_items = items_named(doc, "ty", "int")
        assert int_items and int_items[0].first_word("yikind") == "int"

    def test_bool_yikind_char(self):
        doc = doc_for("bool f();")
        b = the_item(doc, "ty", "bool")
        assert b.first_word("ykind") == "bool"
        assert b.first_word("yikind") == "char"  # paper Figure 3

    def test_const_ref_chain(self):
        """Reproduce Figure 3's ty#49 -> ty#439 -> ty#5 chain."""
        doc = doc_for("void f(const int& x);")
        ref = the_item(doc, "ty", "const int &")
        assert ref.first_word("ykind") == "ref"
        tref = doc.find(ref.get_ref("yref"))
        assert tref.name == "const int"
        assert tref.first_word("ykind") == "tref"
        assert tref.get("yqual").split() == ["const"]
        base = doc.find(tref.get_ref("ytref"))
        assert base.name == "int"

    def test_function_type_args_final_marker(self):
        doc = doc_for("void f(int a, double b);")
        sig = the_item(doc, "ty", "void (int, double)")
        args = sig.get_all("yargt")
        assert len(args) == 2
        assert "F" not in args[0].split()
        assert args[1].split()[-1] == "F"  # paper Figure 3's trailing F

    def test_enum_item(self):
        doc = doc_for("enum Color { RED = 1, BLUE = 4 };")
        e = the_item(doc, "ty", "Color")
        assert e.first_word("ykind") == "enum"
        names = [a.split() for a in e.get_all("yename")]
        assert names == [["RED", "1"], ["BLUE", "4"]]

    def test_typedef_item(self):
        doc = doc_for("typedef unsigned long size_type;")
        td = the_item(doc, "ty", "size_type")
        assert td.first_word("ykind") == "typedef"
        assert doc.find(td.get_ref("ytref")).name == "unsigned long"

    def test_class_types_are_cl_refs(self):
        doc = doc_for("class C { public: int x; };\nclass D { C member; };")
        d = the_item(doc, "cl", "D")
        assert d.get("cmtype").split()[0].startswith("cl#")

    def test_ellipsis_and_exceptions(self):
        doc = doc_for("class E {};\nvoid f(int x, ...);\nvoid g() throw(E);")
        fsig = [i for i in doc.by_prefix("ty") if i.get("yellip")]
        assert fsig
        gsig = [i for i in doc.by_prefix("ty") if i.get("yexcep")]
        assert gsig


class TestTemplatesPassAndMatching:
    BOX = (
        "template <class T>\n"
        "class Box {\n"
        "public:\n"
        "    T get() const { return value_; }\n"
        "private:\n"
        "    T value_;\n"
        "};\n"
    )

    def test_te_item(self):
        doc = doc_for(self.BOX)
        te = the_item(doc, "te", "Box")
        assert te.first_word("tkind") == "class"
        assert "template" in te.get("ttext")

    def test_ctempl_via_location_matching(self):
        doc = doc_for(self.BOX + "Box<int> b;")
        cls = the_item(doc, "cl", "Box<int>")
        assert doc.find(cls.get_ref("ctempl")).name == "Box"

    def test_rtempl_for_inline_member(self):
        doc = doc_for(self.BOX + "int f() { Box<int> b; return b.get(); }")
        get = the_item(doc, "ro", "get")
        te = doc.find(get.get_ref("rtempl"))
        assert te is not None and te.name == "Box"

    def test_rtempl_for_out_of_line_member(self):
        src = (
            "template <class T> class H { public: T v(); };\n"
            "template <class T> T H<T>::v() { return 0; }\n"
            "int f() { H<int> h; return h.v(); }\n"
        )
        doc = doc_for(src)
        v = the_item(doc, "ro", "v")
        te = doc.find(v.get_ref("rtempl"))
        assert te.name == "v"
        assert te.first_word("tkind") == "memfunc"

    def test_specialization_has_no_ctempl(self):
        """The paper's documented limitation: a specialization's location
        is outside the primary template, so no originating template."""
        src = (
            self.BOX
            + "template <> class Box<char> { public: char get() const { return 'x'; } };\n"
            + "Box<char> b;\n"
        )
        doc = doc_for(src)
        spec = the_item(doc, "cl", "Box<char>")
        assert spec.get_ref("ctempl") is None
        assert spec.first_word("cspecl") == "yes"

    def test_uninstantiated_members_match_class_template(self):
        src = self.BOX + "Box<int> b;"
        doc = doc_for(src)
        get = the_item(doc, "ro", "get")  # declared but body not used
        te = doc.find(get.get_ref("rtempl"))
        assert te.name == "Box"


class TestNamespacesAndMacros:
    def test_namespace_item(self):
        doc = doc_for("namespace util { class C {}; int f(); }")
        ns = the_item(doc, "na", "util")
        member_names = {doc.find(ItemRef.parse(a.split()[0])).name for a in ns.get_all("nmem")}
        assert {"C", "f"} <= member_names

    def test_nested_namespace_parent(self):
        doc = doc_for("namespace a { namespace b { } }")
        b = the_item(doc, "na", "b")
        assert doc.find(b.get_ref("nnspace")).name == "a"

    def test_macro_items(self):
        doc = doc_for("#define LIMIT 100\n#define SQ(x) ((x)*(x))\nint arr[LIMIT];")
        limit = the_item(doc, "ma", "LIMIT")
        assert limit.first_word("makind") == "def"
        assert limit.get("matext") == "#define LIMIT 100"
        sq = the_item(doc, "ma", "SQ")
        assert "((x)*(x))" in sq.get("matext")

    def test_undef_recorded(self):
        doc = doc_for("#define A 1\n#undef A\n")
        kinds = [i.first_word("makind") for i in doc.by_prefix("ma")]
        assert kinds == ["def", "undef"]


class TestPassSelection:
    def test_selected_passes_only(self):
        tree = compile_source("#define M 1\nclass C {};\nint f() { return M; }")
        doc = ILAnalyzer(tree, passes=("so", "ma")).run()
        assert doc.by_prefix("ma")
        assert doc.by_prefix("so")
        assert not doc.by_prefix("cl")
        assert not doc.by_prefix("ro")


class TestPrelinkVisibility:
    def test_instantiations_absent_from_pdb(self):
        src = (
            "template <class T> class B { public: T g() { return 0; } };\n"
            "int f() { B<int> b; return b.g(); }\n"
        )
        used_doc = doc_for(src, mode=InstantiationMode.USED)
        pre_doc = doc_for(src, mode=InstantiationMode.PRELINK)
        assert items_named(used_doc, "cl", "B<int>")
        assert not items_named(pre_doc, "cl", "B<int>")
        # the caller's rcall into the hidden instantiation is dropped too
        f_pre = the_item(pre_doc, "ro", "f")
        callee_refs = [a.split()[0] for a in f_pre.get_all("rcall")]
        assert all(pre_doc.find(ItemRef.parse(w)) is not None for w in callee_refs)


class TestDeterminism:
    def test_same_source_same_pdb(self):
        src = "template <class T> class B { public: T g(); };\nB<int> b;\nint f();"
        from repro.pdbfmt import write_pdb

        assert write_pdb(doc_for(src)) == write_pdb(doc_for(src))

    def test_ids_are_dense_per_prefix(self):
        doc = doc_for("class A {}; class B {}; int f(); int g();")
        for prefix in ("cl", "ro"):
            ids = [i.id for i in doc.by_prefix(prefix)]
            assert ids == list(range(1, len(ids) + 1))
