"""Seeded-defect corpus: one planted finding per pdbcheck rule.

Two translation units whose merged PDB exercises every checker in
:mod:`repro.check`, with machine-readable ground truth
(:data:`EXPECTED`) so the E18 bench can score precision/recall exactly:

* ``ping``/``pong`` — a mutually-recursive cluster nothing calls.
  :class:`CallTree` has no root for it (every member is "called"), so
  only the SCC-condensation reachability of PDT001 can see it.
* ``template double twice<double>( double );`` — an explicit function
  instantiation nothing calls (PDT011).
* ``template class Box<char>;`` — an explicit class instantiation
  nothing uses (PDT012); ``Box<int>`` is used, so the per-template
  count reads "1 of N unused".
* ``helper`` / ``Config`` — defined *differently* in both TUs
  (PDT021 / PDT022; the merge keeps both definitions, and the ``odr``
  check, which ``pdbmerge --check`` also runs, reports them).
* ``Shape`` — polymorphic base of ``Circle`` with a non-virtual
  destructor (PDT031); ``Circle::draw( int )`` hides the base's
  virtual ``draw( )`` (PDT032).
* ``empty.h`` — included, contributes no items (PDT041).

(PDT042, include cycles, cannot be produced by a real preprocessor run
— guards break the cycle — so its fixture is a hand-written PDB in the
test suite, not part of this corpus.)

``python -m repro.workloads.defects --write DIR`` materialises this
corpus *and* the clean Stack corpus on disk for the CI ``check`` job.
"""

from __future__ import annotations

UTIL_H = """\
#ifndef UTIL_H
#define UTIL_H

template <class T>
class Box {
public:
    Box( ) : value_( 0 ) { }
    T get( ) const { return value_; }
    void set( const T & v ) { value_ = v; }
private:
    T value_;
};

template <class T>
T twice( const T & x ) { return x + x; }

#endif
"""

SHAPES_H = """\
#ifndef SHAPES_H
#define SHAPES_H

class Shape {
public:
    Shape( ) { }
    ~Shape( ) { }
    virtual int draw( ) { return 0; }
};

class Circle : public Shape {
public:
    Circle( ) { }
    int draw( int scale ) { return scale; }
};

#endif
"""

EMPTY_H = """\
// This header once held configuration macros; everything moved out,
// but the #include survived.
"""

A_CPP = """\
#include "util.h"
#include "shapes.h"
#include "empty.h"

template class Box<char>;
template double twice<double>( double );

class Config {
public:
    int mode;
};

int helper( int x ) { return x + 1; }

void pong( int n );

void ping( int n ) { if( n ) pong( n - 1 ); }
void pong( int n ) { ping( n ); }

int main( ) {
    Box<int> b;
    b.set( helper( 1 ) );
    Circle c;
    Shape s;
    int r = s.draw( ) + c.draw( 2 );
    return r + b.get( ) + twice( r );
}
"""

B_CPP = """\
#include "util.h"

class Config {
public:
    long mode;
};

int helper( int x ) { return x + 2; }

int b_entry( ) {
    Box<int> bl;
    bl.set( helper( 3 ) );
    return bl.get( );
}
"""


def defect_files() -> dict[str, str]:
    """The corpus, name -> text (the shape ``Frontend.register_files`` takes)."""
    return {
        "util.h": UTIL_H,
        "shapes.h": SHAPES_H,
        "empty.h": EMPTY_H,
        "a.cpp": A_CPP,
        "b.cpp": B_CPP,
    }


#: the translation units, in merge order
DEFECT_SOURCES = ("a.cpp", "b.cpp")

#: ground truth: rule id -> the item names pdbcheck must flag (and
#: nothing else) on the merged corpus
EXPECTED: dict[str, set[str]] = {
    "PDT001": {"ping", "pong"},
    # function-template instantiations keep the template's bare name
    # (class instantiations get the <args> spelling, routines do not)
    "PDT011": {"twice"},
    "PDT012": {"Box<char>"},
    "PDT021": {"helper"},
    "PDT022": {"Config"},
    "PDT031": {"Shape"},
    "PDT032": {"Circle::draw"},
    "PDT041": {"empty.h"},
}


def compile_defects():
    """Compile both TUs and merge; returns (merged PDB, [MergeStats])."""
    from repro.ductape.pdb import PDB
    from repro.tools.pdbbuild import BuildOptions, build

    merged, stats = build(
        list(DEFECT_SOURCES), BuildOptions(), files=defect_files()
    )
    assert isinstance(merged, PDB)
    return merged, [stats.merge]


def write_corpus(root: str) -> list[str]:
    """Write the defect corpus and the clean Stack corpus under ``root``
    (for CI jobs that drive the real CLIs over real files).

    Layout: ``root/defects/*`` and ``root/clean/*`` — the clean side
    includes the mini-STL headers at their paper path
    (``root/clean/pdt/include/kai/...``), so
    ``-I root/clean/pdt/include/kai`` resolves ``<vector.h>``.
    Returns the written paths.
    """
    import os

    from repro.workloads.stack import stack_files

    written = []
    for sub, files in (("defects", defect_files()), ("clean", stack_files())):
        for name, text in files.items():
            path = os.path.join(root, sub, name.lstrip("/"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
            written.append(path)
    return sorted(written)


def main(argv=None) -> int:
    """CLI entry point (``--write DIR``)."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.workloads.defects",
        description="materialise the seeded-defect + clean corpora on disk",
    )
    ap.add_argument("--write", required=True, metavar="DIR", help="output directory")
    args = ap.parse_args(argv)
    for path in write_corpus(args.write):
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
