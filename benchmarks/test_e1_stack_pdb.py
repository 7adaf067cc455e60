"""E1 — Figures 1 & 3: the PDB file for the templated Stack code.

Regenerates the PDB of paper Figure 3 from the Figure 1 corpus and
checks every construct category the figure excerpts:

(2)  the header file with its sinc chain (including StackAr.cpp),
(3)  the KAI vector header by full path,
(7)  the class template ``Stack`` (tkind class, ttext),
(8)  the member function template ``push`` (tkind memfunc),
(9)  the instantiated routine ``push`` with rclass/racs/rsig/rtempl and
     its rcall rows,
(10) ``isFull`` calling vector's ``size``,
(12) the class ``Stack<int>`` with ctempl, cfunc rows, cmem groups,
(13) ``bool`` with yikind char,
(15/16) the const-int-& -> const-int -> int type chain,
(17/18) function signature types with const qualifier / argument list.

The benchmark times the full source -> PDB pipeline.
"""

import pytest

from repro.analyzer import analyze
from repro.pdbfmt import ItemRef, write_pdb
from repro.workloads.stack import compile_stack


@pytest.fixture(scope="module")
def doc(stack_tree):
    return analyze(stack_tree)


def find(doc, prefix, name):
    matches = [i for i in doc.by_prefix(prefix) if i.name == name]
    assert matches, f"no {prefix} item named {name!r}"
    return matches[0]


def deref(doc, item, key):
    ref = item.get_ref(key)
    assert ref is not None, f"{item.ref} lacks {key}"
    return doc.find(ref)


def test_e1_pipeline_benchmark(benchmark):
    doc = benchmark(lambda: analyze(compile_stack()))
    assert len(doc.items) > 80


def test_e1_header_and_sinc_chain(doc):
    header = find(doc, "so", "StackAr.h")
    inc_names = {doc.find(ItemRef.parse(a.words[0])).name for a in header.get_all("sinc")}
    # "(so#66) 'includes' the implementation file StackAr.cpp (so#73)"
    assert "StackAr.cpp" in inc_names
    assert "dsexceptions.h" in inc_names
    assert "/pdt/include/kai/vector.h" in inc_names  # Figure 3 item (3)


def test_e1_test_file_includes_header(doc):
    test_file = find(doc, "so", "TestStackAr.cpp")
    incs = {doc.find(ItemRef.parse(a.words[0])).name for a in test_file.get_all("sinc")}
    assert "StackAr.h" in incs


def test_e1_class_template_item(doc):
    te = find(doc, "te", "Stack")
    assert te.first_word("tkind") == "class"
    assert te.get("ttext").text.startswith("template <class Object>")
    loc = te.get_location("tloc")
    assert doc.find(loc.file).name == "StackAr.h"


def test_e1_push_memfunc_template(doc):
    te = find(doc, "te", "push")
    assert te.first_word("tkind") == "memfunc"
    assert "Stack<Object>::" in te.get("ttext").text
    loc = te.get_location("tloc")
    assert doc.find(loc.file).name == "StackAr.cpp"


def test_e1_stack_int_class_item(doc):
    cl = find(doc, "cl", "Stack<int>")
    assert cl.first_word("ckind") == "class"
    # (12) ctempl points at the Stack class template
    assert deref(doc, cl, "ctempl").name == "Stack"
    # member functions listed with their locations
    funcs = cl.get_all("cfunc")
    names = {doc.find(ItemRef.parse(a.words[0])).name for a in funcs}
    assert {"push", "isEmpty", "isFull", "top", "pop", "makeEmpty", "topAndPop"} <= names
    # cmem groups: theArray then topOfStack, both private vars
    mems = [a.text for a in cl.attributes if a.key == "cmem"]
    assert mems == ["theArray", "topOfStack"]
    kinds = [a.words[0] for a in cl.attributes if a.key == "cmacs"]
    assert kinds == ["priv", "priv"]
    # theArray's type is the class vector<int> (cmtype cl#N, Figure 3)
    mtypes = [a.words[0] for a in cl.attributes if a.key == "cmtype"]
    assert mtypes[0].startswith("cl#")
    assert doc.find(ItemRef.parse(mtypes[0])).name == "vector<int>"
    assert doc.find(ItemRef.parse(mtypes[1])).name == "int"


def test_e1_push_routine_item(doc):
    ro = find(doc, "ro", "push")
    # (9): parent class, access, linkage, storage, virtuality
    assert deref(doc, ro, "rclass").name == "Stack<int>"
    assert ro.first_word("racs") == "pub"
    assert ro.first_word("rlink") == "C++"
    assert ro.first_word("rstore") == "NA"
    assert ro.first_word("rvirt") == "no"
    # rtempl: the push member function template
    assert deref(doc, ro, "rtempl").name == "push"
    # rloc points into StackAr.cpp (the definition site)
    loc = ro.get_location("rloc")
    assert doc.find(loc.file).name == "StackAr.cpp"
    # rcall rows: isFull, the Overflow ctor, operator[]
    callees = {doc.find(ItemRef.parse(a.words[0])).name for a in ro.get_all("rcall")}
    assert "isFull" in callees
    assert "Overflow" in callees
    assert "operator[]" in callees


def test_e1_isfull_calls_vector_size(doc):
    ro = find(doc, "ro", "isFull")
    callees = {doc.find(ItemRef.parse(a.words[0])).name for a in ro.get_all("rcall")}
    assert "size" in callees  # Figure 3 (10): rcall ro#31


def test_e1_push_signature_type(doc):
    ro = find(doc, "ro", "push")
    sig = deref(doc, ro, "rsig")
    # (18): void (const int &)
    assert sig.name == "void (const int &)"
    assert sig.first_word("ykind") == "func"
    assert deref(doc, sig, "yrett").name == "void"
    arg_ref = ItemRef.parse(sig.get("yargt").words[0])
    assert doc.find(arg_ref).name == "const int &"
    assert sig.get("yargt").words[-1] == "F"


def test_e1_const_member_signature(doc):
    ro = find(doc, "ro", "isFull")
    sig = deref(doc, ro, "rsig")
    # (17): bool () const
    assert sig.name == "bool () const"
    assert sig.get("yqual").words == ["const"]


def test_e1_type_chain(doc):
    # (15) const int & -> (16) const int -> (11) int
    ref = find(doc, "ty", "const int &")
    assert ref.first_word("ykind") == "ref"
    tref = deref(doc, ref, "yref")
    assert tref.name == "const int"
    assert tref.first_word("ykind") == "tref"
    base = deref(doc, tref, "ytref")
    assert base.name == "int"
    assert base.first_word("yikind") == "int"


def test_e1_bool_type(doc):
    b = find(doc, "ty", "bool")
    # (13): ykind bool, yikind char
    assert b.first_word("ykind") == "bool"
    assert b.first_word("yikind") == "char"


def test_e1_header_line(doc):
    text = write_pdb(doc)
    assert text.splitlines()[0] == "<PDB 1.0>"  # Figure 3 (1)


def test_e1_unused_members_not_defined(stack_tree):
    """Used-mode: top/pop/makeEmpty are never called by main, so their
    bodies are not instantiated (cf. their header-file cfunc locations
    in Figure 3 versus the .cpp locations of the used members)."""
    cls = stack_tree.find_class("Stack<int>")
    status = {r.name: r.defined for r in cls.routines}
    assert status["push"] and status["isFull"] and status["topAndPop"]
    assert not status["top"] and not status["pop"] and not status["makeEmpty"]


def test_e1_emit_figure(doc, stack_tree):
    """Print the regenerated Figure 3 excerpts (run with -s)."""
    interesting = []
    for item in doc.items:
        if item.prefix == "so":
            interesting.append(item)
        elif item.prefix == "te" and item.name in ("Stack", "push"):
            interesting.append(item)
        elif item.prefix == "cl" and item.name == "Stack<int>":
            interesting.append(item)
        elif item.prefix == "ro" and item.name in ("push", "isFull"):
            interesting.append(item)
    print("\n--- regenerated Figure 3 excerpts ---")
    for item in interesting:
        print(f"{item.prefix}#{item.id} {item.name}")
        for line in item.lines:
            print(f"  {line}")
    assert interesting
