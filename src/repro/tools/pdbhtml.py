"""pdbhtml — web-based documentation with navigation via HTML links
(paper Table 2).

Generates one page per source file, class, routine, template, and
namespace, plus an index; cross-references (member functions, call
targets, base classes, template provenance) become hyperlinks."""

from __future__ import annotations

import argparse
import html
import os
from typing import Optional

from repro.ductape.items import (
    PdbClass,
    PdbFile,
    PdbItem,
    PdbNamespace,
    PdbRoutine,
    PdbSimpleItem,
    PdbTemplate,
)
from repro.ductape.pdb import PDB
from repro.pdbfmt.reader import normal_lines

_STYLE = """
body { font-family: sans-serif; margin: 2em; }
h1 { border-bottom: 2px solid #888; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: left; }
.kind { color: #666; font-size: 80%; }
.ferr { color: #a00; }
"""


def _page_name(item: PdbSimpleItem) -> str:
    return f"{item.prefix()}_{item.id()}.html"


def _link(item: Optional[PdbSimpleItem], label: Optional[str] = None) -> str:
    if item is None:
        return "&mdash;"
    text = html.escape(label if label is not None else item.fullName())
    return f'<a href="{_page_name(item)}">{text}</a>'


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head>"
        f"<body><p><a href='index.html'>&laquo; index</a></p>"
        f"<h1>{html.escape(title)}</h1>{body}</body></html>"
    )


def _error_line(e) -> str:
    """One rendered ``ferr`` diagnostic, linking to the source line."""
    loc = e.location()
    text = html.escape(f"{e.severity()}: {e.message()}")
    if loc.known:
        anchor = f"{_page_name(loc.file())}#L{loc.line()}"
        where = html.escape(f"{loc.file().name()}:{loc.line()}:{loc.col()}")
        return f'<a href="{anchor}">{where}</a>: {text}'
    return text


def _file_page(f: PdbFile, source: Optional[str] = None, errors: Optional[list] = None) -> str:
    rows = "".join(
        f"<li>{_link(inc, inc.name())}</li>" for inc in f.includes()
    )
    body = f"<h2>Includes</h2><ul>{rows or '<li>none</li>'}</ul>"
    if errors:
        items = "".join(f"<li class='ferr'>{_error_line(e)}</li>" for e in errors)
        body = (
            f"<h2>Frontend errors</h2><p class='kind'>this file failed to "
            f"compile cleanly; entities below may be incomplete</p>"
            f"<ul>{items}</ul>"
        ) + body
    if source is not None:
        numbered = []
        for n, line in enumerate(source.splitlines(), start=1):
            numbered.append(
                f"<a id='L{n}'></a>{n:>5}  {html.escape(line)}"
            )
        body += "<h2>Source</h2><pre>" + "\n".join(numbered) + "</pre>"
    return _page(f"File {f.name()}", body)


def _source_link(item: PdbItem) -> str:
    """A link to the item's source line on its file page."""
    loc = item.location()
    if not loc.known:
        return "&mdash;"
    return (
        f'<a href="{_page_name(loc.file())}#L{loc.line()}">'
        f"{html.escape(loc.file().name())}:{loc.line()}:{loc.col()}</a>"
    )


def _class_page(c: PdbClass) -> str:
    parts: list[str] = [f"<p class='kind'>{c.kind()} &middot; location {_source_link(c)}</p>"]
    te = c.template()
    if te is not None:
        parts.append(f"<p>Instantiated from template {_link(te)}</p>")
    if c.isSpecialized():
        parts.append("<p>Explicit specialization (originating template unknown)</p>")
    bases = c.baseClasses()
    if bases:
        rows = "".join(
            f"<tr><td>{acs}</td><td>{'virtual' if virt else ''}</td><td>{_link(b)}</td></tr>"
            for acs, virt, b in bases
        )
        parts.append(f"<h2>Base classes</h2><table>{rows}</table>")
    funcs = c.memberFunctions()
    if funcs:
        rows = "".join(
            f"<tr><td>{_link(r, r.name())}</td><td>{r.access()}</td>"
            f"<td>{html.escape(r.signature().name() if r.signature() else '')}</td></tr>"
            for r in funcs
        )
        parts.append(
            f"<h2>Member functions</h2><table><tr><th>name</th><th>access</th>"
            f"<th>signature</th></tr>{rows}</table>"
        )
    members = c.dataMembers()
    if members:
        rows = "".join(
            f"<tr><td>{html.escape(m.name())}</td><td>{m.access()}</td>"
            f"<td>{m.kind()}</td><td>{_link(m.type())}</td></tr>"
            for m in members
        )
        parts.append(
            f"<h2>Data members</h2><table><tr><th>name</th><th>access</th>"
            f"<th>kind</th><th>type</th></tr>{rows}</table>"
        )
    return _page(f"Class {c.fullName()}", "".join(parts))


def _routine_page(r: PdbRoutine) -> str:
    sig = r.signature()
    parts = [
        f"<p class='kind'>{r.kind()} &middot; {r.access()} &middot; "
        f"{html.escape(sig.name() if sig else '')} &middot; location {_source_link(r)}</p>"
    ]
    te = r.template()
    if te is not None:
        parts.append(f"<p>Instantiated from template {_link(te)}</p>")
    parent = r.parentClass()
    if parent is not None:
        parts.append(f"<p>Member of {_link(parent)}</p>")
    calls = r.callees()
    if calls:
        rows = "".join(
            f"<tr><td>{_link(c.call())}</td>"
            f"<td>{'virtual' if c.isVirtual() else ''}</td>"
            f"<td>{html.escape(str(c.location()))}</td></tr>"
            for c in calls
        )
        parts.append(f"<h2>Calls</h2><table>{rows}</table>")
    callers = r.callers()
    if callers:
        rows = "".join(f"<li>{_link(c)}</li>" for c in callers)
        parts.append(f"<h2>Called by</h2><ul>{rows}</ul>")
    return _page(f"Routine {r.fullName()}", "".join(parts))


def _template_page(t: PdbTemplate) -> str:
    body = (
        f"<p class='kind'>{t.kind()} template &middot; location {_source_link(t)}</p>"
        f"<h2>Definition</h2><pre>{html.escape(t.text())}</pre>"
    )
    return _page(f"Template {t.fullName()}", body)


def _type_page(t) -> str:
    rows = []
    for line in normal_lines(t.raw.prefix, t.raw.lines):
        key, _, value = line.partition(" ")
        rows.append(f"<tr><td>{html.escape(key)}</td><td>{html.escape(value)}</td></tr>")
    body = f"<p class='kind'>{t.kind()}</p><table>{''.join(rows)}</table>"
    return _page(f"Type {t.name()}", body)


def _namespace_page(n: PdbNamespace) -> str:
    rows = "".join(
        f"<li><span class='kind'>{m.prefix()}</span> {_link(m)}</li>" for m in n.members()
    )
    return _page(f"Namespace {n.fullName()}", f"<ul>{rows or '<li>empty</li>'}</ul>")


def _index_page(pdb: PDB) -> str:
    sections = [
        ("Source files", pdb.getFileVec()),
        ("Namespaces", pdb.getNamespaceVec()),
        ("Templates", pdb.getTemplateVec()),
        ("Classes", pdb.getClassVec()),
        ("Routines", pdb.getRoutineVec()),
    ]
    parts = []
    errors = pdb.getErrorVec()
    if errors:
        rows = "".join(
            f"<li class='ferr'>{html.escape(e.name())}: {_error_line(e)}</li>"
            for e in errors
        )
        parts.append(f"<h2>Frontend diagnostics</h2><ul>{rows}</ul>")
    for title, items in sections:
        if not items:
            continue
        rows = "".join(f"<li>{_link(i)}</li>" for i in items)
        parts.append(f"<h2>{title}</h2><ul>{rows}</ul>")
    return _page("Program database", "".join(parts))


def generate_html(
    pdb: PDB, out_dir: str, sources: Optional[dict[str, str]] = None
) -> list[str]:
    """Generate the documentation tree; returns the written file names.

    ``sources`` (file name -> text) enables annotated source pages with
    per-line anchors, so every item location links into the code —
    Table 2's "navigation of code via HTML links"."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def emit(name: str, content: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as f:
            f.write(content)
        written.append(name)

    emit("index.html", _index_page(pdb))
    for f in pdb.getFileVec():
        text = (sources or {}).get(f.name())
        emit(_page_name(f), _file_page(f, text, errors=pdb.errors_of(f)))
    for c in pdb.getClassVec():
        emit(_page_name(c), _class_page(c))
    for r in pdb.getRoutineVec():
        emit(_page_name(r), _routine_page(r))
    for t in pdb.getTemplateVec():
        emit(_page_name(t), _template_page(t))
    for n in pdb.getNamespaceVec():
        emit(_page_name(n), _namespace_page(n))
    for ty in pdb.getTypeVec():
        emit(_page_name(ty), _type_page(ty))
    return written


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbhtml", description="generate web-based documentation from a PDB"
    )
    ap.add_argument("pdb", help="input PDB file")
    ap.add_argument("-o", "--output", default="pdbhtml-out", help="output directory")
    ap.add_argument(
        "-s",
        "--source-dir",
        help="directory to read referenced source files from (enables "
        "annotated source pages with line anchors)",
    )
    args = ap.parse_args(argv)
    pdb = PDB.read(args.pdb)
    sources: Optional[dict[str, str]] = None
    if args.source_dir:
        sources = {}
        for f in pdb.getFileVec():
            base = f.name().rsplit("/", 1)[-1]
            path = os.path.join(args.source_dir, base)
            if os.path.isfile(path):
                with open(path) as fh:
                    sources[f.name()] = fh.read()
    written = generate_html(pdb, args.output, sources=sources)
    print(f"{args.output}: {len(written)} pages")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
