"""E2 — Table 1: PDB item types, attributes, and prefixes.

Regenerates Table 1 as a coverage matrix: compiles a corpus that uses
every language construct Table 1 mentions and asserts that the pipeline
emits every attribute the table lists for every item type.  The printed
matrix (run with -s) is the regenerated table.
"""

import pytest

from repro.analyzer import analyze
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS, ITEM_TYPES
from tests.util import compile_source

#: a corpus exercising every Table 1 attribute
COVERAGE_HEADER = """\
#ifndef COVERAGE_H
#define COVERAGE_H
class FromHeader { public: int h; };
#endif
"""

COVERAGE_SRC = """\
#include "coverage.h"
#define LIMIT 64
#define SQ(x) ((x)*(x))
#undef LIMIT

namespace outer {
    namespace inner {
        class Deep { public: int d; };
    }
    namespace alias_target { }
    namespace shortname = alias_target;

    enum Mode { FAST = 1, SLOW = 2 };
    typedef unsigned long size_type;

    class Base {
    public:
        virtual ~Base() { }
        virtual int vfunc() = 0;
    };

    class Friendly;

    template <class T>
    class Container {
    public:
        Container() : data_(0), count_(0) { }
        T& at(unsigned long i) { return data_[i]; }
        unsigned long count() const { return count_; }
        static int instances() { return 0; }
    private:
        friend class Friendly;
        T* data_;
        unsigned long count_;
        static int live_;
    };

    class Derived : public virtual Base {
    public:
        Derived() : tag_(0) { }
        int vfunc() { return tag_; }
        int with_default(int a, int b = 9) throw(Base) { return a + b; }
        int ccall() const { return helper(tag_); }
    private:
        static int helper(int x) { return SQ(x); }
        mutable int tag_;
    };

    template <class T>
    T pass_through(const T& v) { return v; }
}

extern "C" int c_linkage(void);
static int file_local(double d, ...) { return 0; }

int main() {
    outer::Container<double> c;
    c.at(0);
    c.count();
    outer::Container<double>::instances();
    outer::Derived d;
    d.with_default(1);
    d.vfunc();
    outer::pass_through(5);
    file_local(1.0);
    return 0;
}
"""


@pytest.fixture(scope="module")
def doc():
    return analyze(compile_source(COVERAGE_SRC, files={"coverage.h": COVERAGE_HEADER}))


def emitted_attributes(doc, prefix) -> set[str]:
    keys: set[str] = set()
    for item in doc.by_prefix(prefix):
        keys.update(line.partition(" ")[0] for line in item.lines)
    return keys


#: Table 1, row by row: the attributes the paper names, mapped to our
#: concrete attribute keys.
TABLE1_EXPECTATIONS: dict[str, dict[str, list[str]]] = {
    "so": {
        "files included by source file": ["sinc"],
    },
    "ro": {
        "source position": ["rloc"],
        "template from which instantiated": ["rtempl"],
        "parent class or namespace": ["rclass", "rnspace"],
        "access mode": ["racs"],
        "signature": ["rsig"],
        "functions called": ["rcall"],
        "linkage": ["rlink"],
        "storage class": ["rstore"],
        "virtuality": ["rvirt"],
        "header/body positions": ["rpos"],
    },
    "cl": {
        "source position": ["cloc"],
        "template from which instantiated": ["ctempl"],
        "parent class or namespace": ["cnspace", "cclass"],
        "direct base classes": ["cbase"],
        "friend classes and functions": ["cfriend"],
        "characteristics": ["ckind"],
        "member functions": ["cfunc"],
        "member information (access, kind, type)": ["cmem", "cmloc", "cmacs", "cmkind", "cmtype"],
        "header/body positions": ["cpos"],
    },
    "ty": {
        "kind": ["ykind"],
        "function return type": ["yrett"],
        "parameter types": ["yargt"],
        "presence of ellipsis": ["yellip"],
        "exception class IDs": ["yexcep"],
    },
    "te": {
        "source position": ["tloc"],
        "parent class or namespace": ["tnspace", "tclass"],
        "kind": ["tkind"],
        "text of template": ["ttext"],
        "header/body positions": ["tpos"],
    },
    "na": {
        "source position": ["nloc"],
        "members of namespace": ["nmem"],
        "alias": ["nalias"],
    },
    "ma": {
        "kind": ["makind"],
        "text of macro": ["matext"],
        "source position": ["maloc"],
    },
}


def test_e2_coverage_benchmark(benchmark):
    doc = benchmark(
        lambda: analyze(
            compile_source(COVERAGE_SRC, files={"coverage.h": COVERAGE_HEADER})
        )
    )
    assert doc.items


@pytest.mark.parametrize("prefix", sorted(TABLE1_EXPECTATIONS))
def test_e2_item_type_emitted(doc, prefix):
    assert doc.by_prefix(prefix), f"no {ITEM_TYPES[prefix]} items emitted"


@pytest.mark.parametrize(
    "prefix,label",
    [(p, label) for p, rows in TABLE1_EXPECTATIONS.items() for label in rows],
)
def test_e2_attribute_covered(doc, prefix, label):
    expected_keys = TABLE1_EXPECTATIONS[prefix][label]
    got = emitted_attributes(doc, prefix)
    assert any(k in got for k in expected_keys), (
        f"Table 1 row {ITEM_TYPES[prefix]}/{label!r}: none of {expected_keys} emitted"
    )


def test_e2_every_emitted_attribute_is_in_schema(doc):
    for prefix in ITEM_TYPES:
        schema = set(ATTRIBUTE_SCHEMAS[prefix])
        assert emitted_attributes(doc, prefix) <= schema


def test_e2_print_matrix(doc):
    """The regenerated Table 1 (run with -s)."""
    print("\n--- regenerated Table 1: item types, attributes, prefixes ---")
    print(f"{'Item Type':<14} {'Prefix':<7} Attributes emitted")
    for prefix, label in ITEM_TYPES.items():
        attrs = ", ".join(sorted(emitted_attributes(doc, prefix)))
        print(f"{label:<14} {prefix:<7} {attrs}")
    assert True
