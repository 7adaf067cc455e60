"""Seeded C++ corpus generator for the benchmark.

The corpus is a small templated code base in the front end's C++
subset: ``H`` shared library headers (plain classes with chained
methods, class templates, a virtual hierarchy, a function-template
chain), ``N`` translation units that each include a seeded subset of
those headers plus the mini-STL headers through ``-I``, and an ``app``
unit whose ``app_main`` calls every unit's entry point through
declarations.

Every count is a function of :class:`CorpusSpec` alone; the seed only
picks *which* headers, templates, argument types and constants each
unit uses.  So two seeds give the same amount of work and different
inputs.

Ground truth comes from the generator, never from the compiler:

* ``routines`` — full names of every defined non-template routine,
* ``class_insts`` — every class instantiation the units request,
* ``public_classes`` — every class a binding generator must cover,
* ``markers`` — per unit, the macro whose value the edit loop rewrites.

``python3 perfbench/corpus.py`` runs the self-test: the same seed gives
identical bytes, a different seed a different corpus.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field

#: element types the generator instantiates templates with
ARG_TYPES = ("int", "double", "char", "long", "float")

#: width of every marker value, so a rewrite keeps the file size
MARKER_DIGITS = 7


@dataclass(frozen=True)
class CorpusSpec:
    """Corpus shape; every count in the corpus follows from these."""

    n_tus: int = 8
    n_headers: int = 6
    headers_per_tu: int = 3
    plain_per_header: int = 2
    methods_per_plain: int = 4
    boxes_per_header: int = 2
    helpers_per_tu: int = 3


@dataclass
class Corpus:
    """Generated files (relative path -> text) and their ground truth."""

    files: dict[str, str] = field(default_factory=dict)
    #: translation units in build (= merge) order
    sources: list[str] = field(default_factory=list)
    #: include directories, relative to the corpus root
    include_dirs: list[str] = field(default_factory=list)
    routines: set[str] = field(default_factory=set)
    class_insts: set[str] = field(default_factory=set)
    public_classes: set[str] = field(default_factory=set)
    #: unit path -> (marker macro name, initial value)
    markers: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: unit path -> its entry routine
    entries: dict[str, str] = field(default_factory=dict)

    def write(self, root: str) -> None:
        """Materialise every file under ``root``."""
        for rel, text in self.files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)


def marker_line(name: str, value: int) -> str:
    """The ``#define`` line the edit loop rewrites in place."""
    return f"#define {name} {value:0{MARKER_DIGITS}d}"


def _header(k: int, spec: CorpusSpec, rng: random.Random, corpus: Corpus) -> str:
    p = f"Lib{k}"
    lines = [f"#ifndef GEN_LIB{k}_H", f"#define GEN_LIB{k}_H", ""]
    for j in range(spec.plain_per_header):
        cls = f"{p}Plain{j}"
        corpus.public_classes.add(cls)
        corpus.routines.add(f"{cls}::{cls}")
        lines += [f"class {cls} {{", "public:"]
        lines.append(f"    {cls}( ) : state_( {rng.randrange(1, 100)} ) {{ }}")
        for m in range(spec.methods_per_plain):
            corpus.routines.add(f"{cls}::m{m}")
            if m + 1 < spec.methods_per_plain:
                body = f"return state_ + m{m + 1}( x );"
            else:
                body = f"return state_ + x * {rng.randrange(2, 9)};"
            lines.append(f"    int m{m}( int x ) {{ {body} }}")
        lines += ["private:", "    int state_;", "};", ""]
    for j in range(spec.boxes_per_header):
        lines += [
            "template <class T>",
            f"class {p}Box{j} {{",
            "public:",
            f"    {p}Box{j}( ) : value_( 0 ) {{ }}",
            "    T get( ) const { return value_; }",
            "    void set( const T & v ) { value_ = v; }",
            "    T combine( const T & v ) { set( v ); return get( ); }",
            "private:",
            "    T value_;",
            "};",
            "",
        ]
    base, derived = f"{p}Base", f"{p}Derived"
    corpus.public_classes.update({base, derived})
    corpus.routines.update(
        {
            f"{base}::{base}", f"{base}::~{base}", f"{base}::run",
            f"{derived}::{derived}", f"{derived}::~{derived}", f"{derived}::run",
        }
    )
    lines += [
        f"class {base} {{",
        "public:",
        f"    {base}( ) {{ }}",
        f"    virtual ~{base}( ) {{ }}",
        "    virtual int run( int x ) { return x; }",
        "};",
        "",
        f"class {derived} : public {base} {{",
        "public:",
        f"    {derived}( ) {{ }}",
        f"    virtual ~{derived}( ) {{ }}",
        f"    virtual int run( int x ) {{ return x + {rng.randrange(1, 50)}; }}",
        "};",
        "",
        "template <class T>",
        f"T lib{k}_step1( const T & x ) {{ return x; }}",
        "",
        "template <class T>",
        f"T lib{k}_step0( const T & x ) {{ return lib{k}_step1( x ); }}",
        "",
        "#endif",
        "",
    ]
    return "\n".join(lines)


def _unit(t: int, spec: CorpusSpec, rng: random.Random, corpus: Corpus) -> str:
    # unit t always includes header t mod H, so every header is used
    own = t % spec.n_headers
    others = [k for k in range(spec.n_headers) if k != own]
    headers = sorted([own, *rng.sample(others, spec.headers_per_tu - 1)])
    marker = f"TU{t}_MARKER"
    value = rng.randrange(10 ** (MARKER_DIGITS - 1), 10**MARKER_DIGITS)
    lines = ["#include <vector.h>", "#include <algorithm.h>"]
    lines += [f'#include "lib{k}.h"' for k in headers]
    corpus.markers[f"src/tu{t}.cpp"] = (marker, value)
    lines += ["", marker_line(marker, value), ""]
    lines += [f"int tu{t}_marker( ) {{ return {marker}; }}", ""]
    corpus.routines.add(f"tu{t}_marker")

    helpers = []
    for j in range(spec.helpers_per_tu):
        k = rng.choice(headers)
        cls = f"Lib{k}Plain{rng.randrange(spec.plain_per_header)}"
        name = f"tu{t}_helper{j}"
        helpers.append(name)
        corpus.routines.add(name)
        lines += [
            f"int {name}( int x ) {{",
            f"    {cls} p;",
            f"    return p.m0( x ) + {rng.randrange(1, 100)};",
            "}",
            "",
        ]

    entry = f"tu{t}_entry"
    corpus.routines.add(entry)
    corpus.entries[f"src/tu{t}.cpp"] = entry
    body = ["    int acc = tu{}_marker( );".format(t)]
    for name in helpers:
        body.append(f"    acc = acc + {name}( {rng.randrange(1, 100)} );")
    for n, k in enumerate(headers):
        box = f"Lib{k}Box{rng.randrange(spec.boxes_per_header)}"
        ty = rng.choice(ARG_TYPES)
        corpus.class_insts.add(f"{box}<{ty}>")
        body += [
            f"    {box}<{ty}> b{n};",
            f"    b{n}.combine( {rng.randrange(1, 100)} );",
            f"    Lib{k}Derived d{n};",
            f"    acc = acc + d{n}.run( {rng.randrange(1, 100)} );",
            f"    acc = acc + lib{k}_step0( acc );",
        ]
    vty = rng.choice(ARG_TYPES)
    corpus.class_insts.add(f"vector<{vty}>")
    body += [
        f"    vector<{vty}> v;",
        f"    v.push_back( {rng.randrange(1, 100)} );",
        "    acc = acc + v.size( );",
        f"    acc = max( acc, {rng.randrange(1, 100)} );",
        "    return acc;",
    ]
    lines += [f"int {entry}( ) {{", *body, "}", ""]
    return "\n".join(lines)


def generate(seed: int, spec: CorpusSpec = CorpusSpec()) -> Corpus:
    """The corpus for ``seed``: same seed, same bytes."""
    from repro.workloads.stl import stl_files

    rng = random.Random(seed)
    corpus = Corpus(include_dirs=["kai", "lib"])
    for path, text in stl_files().items():
        corpus.files["kai/" + os.path.basename(path)] = text
    for k in range(spec.n_headers):
        corpus.files[f"lib/lib{k}.h"] = _header(k, spec, rng, corpus)
    for t in range(spec.n_tus):
        rel = f"src/tu{t}.cpp"
        corpus.files[rel] = _unit(t, spec, rng, corpus)
        corpus.sources.append(rel)

    entries = [corpus.entries[rel] for rel in corpus.sources]
    app = [f"int {e}( );" for e in entries]
    app += ["", "int app_main( ) {", "    int acc = 0;"]
    app += [f"    acc = acc + {e}( );" for e in entries]
    app += ["    return acc;", "}", ""]
    corpus.files["src/app.cpp"] = "\n".join(app)
    corpus.sources.append("src/app.cpp")
    corpus.routines.add("app_main")
    return corpus


def digest(corpus: Corpus) -> str:
    """sha256 over every file name and byte, in a fixed order."""
    import hashlib

    h = hashlib.sha256()
    for rel in sorted(corpus.files):
        h.update(rel.encode() + b"\0" + corpus.files[rel].encode() + b"\0")
    return h.hexdigest()


def self_test() -> None:
    """Same seed -> identical bytes; different seed -> different corpus."""
    a, b, c = generate(1), generate(1), generate(2)
    if digest(a) != digest(b) or a.routines != b.routines:
        raise SystemExit("corpus self-test: same seed gave different corpora")
    if digest(a) == digest(c):
        raise SystemExit("corpus self-test: different seeds gave the same corpus")
    if sum(map(len, a.files.values())) <= 0 or not a.class_insts:
        raise SystemExit("corpus self-test: empty corpus")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    self_test()
    print("corpus self-test: ok")
