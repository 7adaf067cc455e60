"""Tool tests: pdbconv, pdbtree, pdbhtml, pdbmerge, cxxparse CLIs."""


import hashlib

import pytest

from repro.analyzer import analyze
from repro.ductape.pdb import PDB
from repro.tools.pdbconv import check_pdb, convert_pdb
from repro.tools.pdbhtml import generate_html
from repro.tools.pdbtree import (
    print_func_tree,
    render_call_tree,
    render_class_tree,
    render_inclusion_tree,
)
from repro.workloads.stack import compile_stack, stack_files
from tests.util import compile_source


@pytest.fixture(scope="module")
def stack_pdb() -> PDB:
    return PDB(analyze(compile_stack()))


class TestPdbConv:
    def test_readable_output(self, stack_pdb):
        text = convert_pdb(stack_pdb)
        assert "Program database, format 1.0" in text
        assert 'CLASS cl#' in text
        assert 'ROUTINE ro#' in text
        assert "location:" in text

    def test_references_humanised(self, stack_pdb):
        text = convert_pdb(stack_pdb)
        # references carry the target's name: ro#N[push]
        assert "[push]" in text

    def test_check_clean_pdb(self, stack_pdb):
        assert check_pdb(stack_pdb) == []

    def test_check_detects_dangling_ref(self):
        pdb = PDB.from_text("<PDB 1.0>\nro#1 f\nrcall ro#99 no NULL 0 0\n")
        problems = check_pdb(pdb)
        assert any("dangling" in p for p in problems)

    def test_check_detects_malformed_ref(self):
        pdb = PDB.from_text("<PDB 1.0>\nso#1 a.h\n\nro#1 f\nrloc so#01 3 1\n")
        assert check_pdb(pdb) == ["ro#1: malformed reference so#01"]

    def test_check_detects_unknown_attribute(self):
        pdb = PDB.from_text("<PDB 1.0>\nro#1 f\nrbogus x\n")
        assert any("unknown attribute" in p for p in check_pdb(pdb))

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbconv import main

        src = tmp_path / "x.pdb"
        out = tmp_path / "x.txt"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "-o", str(out)]) == 0
        assert "ROUTINE" in out.read_text()

    def test_cli_check_mode(self, stack_pdb, tmp_path):
        from repro.tools.pdbconv import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "--check"]) == 0


class TestPdbTree:
    def test_figure5_call_tree_shape(self, stack_pdb):
        """The pdbtree output format of paper Figure 5."""
        out = render_call_tree(stack_pdb, "main")
        lines = out.splitlines()
        assert lines[0] == "main"
        assert any(line.startswith("`--> ") for line in lines)
        assert "`--> Stack<int>::push" in out
        # template-instantiated functions appear in the callee vectors
        assert "Stack<int>::isFull" in out

    def test_indentation_grows_with_depth(self, stack_pdb):
        out = render_call_tree(stack_pdb, "main")
        push_line = next(l for l in out.splitlines() if "push" in l)
        isfull_line = next(l for l in out.splitlines() if "isFull" in l)
        assert len(isfull_line) - len(isfull_line.lstrip()) > len(push_line) - len(
            push_line.lstrip()
        )

    def test_virtual_tag(self):
        pdb = PDB(
            analyze(
                compile_source(
                    "class B { public: virtual void v() { } };\n"
                    "int main() { B* b = new B(); b->v(); return 0; }"
                )
            )
        )
        out = render_call_tree(pdb, "main")
        assert "(VIRTUAL)" in out

    def test_cycle_marker(self):
        pdb = PDB(
            analyze(
                compile_source(
                    "int pong(int n);\n"
                    "int ping(int n) { return pong(n); }\n"
                    "int pong(int n) { return ping(n); }\n"
                    "int main() { return ping(3); }"
                )
            )
        )
        out = render_call_tree(pdb, "main")
        assert " ..." in out

    def test_print_func_tree_resets_flags(self, stack_pdb):
        main = stack_pdb.findRoutine("main")
        out: list = []
        print_func_tree(main, 1, out)
        assert all(r.flag() == 0 for r in stack_pdb.getRoutineVec())

    def test_inclusion_tree_render(self, stack_pdb):
        out = render_inclusion_tree(stack_pdb)
        assert "TestStackAr.cpp" in out.splitlines()[0]
        assert "`--> StackAr.h" in out
        assert "StackAr.cpp" in out

    def test_class_tree_render(self):
        pdb = PDB(
            analyze(compile_source("class A {};\nclass B : public A {};"))
        )
        out = render_class_tree(pdb)
        assert "A" in out and "`--> B" in out

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbtree import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "-t", "calls", "-r", "main"]) == 0


def _sha(lines) -> str:
    """sha256 of ``"\n".join(lines)``, without building the string."""
    h = hashlib.sha256()
    for i, line in enumerate(lines):
        h.update(((i and "\n" or "") + line).encode())
    return h.hexdigest()


class TestDepthLadder:
    """pdbtree on chains far deeper than the recursion limit: the call
    tree and the class tree are explicit-stack walks, and print what the
    recursive Figure 5 port printed on shallower chains — indentation,
    ``(VIRTUAL)`` tags and the ACTIVE-flag `` ... `` cycle marker."""

    @staticmethod
    def call_chain(n: int) -> PDB:
        """f0 -> f1 -> ... -> fn, every 7th call virtual, and fn calls f1
        back (a cycle below the root)."""
        parts = ["<PDB 1.0>", "", "so#1 t.cpp", ""]
        for i in range(n + 1):
            callee = i + 2 if i < n else 2
            virt = "virt" if callee % 7 == 0 else "no"
            parts += [f"ro#{i + 1} f{i}", f"rloc so#1 {i + 1} 1",
                      f"rcall ro#{callee} {virt} so#1 {i + 1} 5", ""]
        return PDB.from_text("\n".join(parts))

    @pytest.mark.parametrize("depth", [1200, 5000])
    def test_call_tree(self, depth):
        pdb = self.call_chain(depth)

        def line(level: int, name: int) -> str:
            virt = " (VIRTUAL)" if (name + 1) % 7 == 0 else ""
            return " " * ((level - 1) * 5) + f"`--> f{name}{virt}"

        # the cycle marker is " ... "; the rendering strips its last blank
        want = ["f0", *(line(level, level) for level in range(1, depth + 1)),
                line(depth + 1, 1) + " ..."]
        assert hashlib.sha256(render_call_tree(pdb).encode()).hexdigest() == _sha(want)
        assert all(r.flag() == 0 for r in pdb.getRoutineVec())

    @pytest.mark.parametrize("depth", [1200, 5000])
    def test_class_tree(self, depth):
        parts = ["<PDB 1.0>", "", "so#1 t.h", ""]
        for i in range(depth + 1):
            parts += [f"cl#{i + 1} C{i}", f"cloc so#1 {i + 1} 1"]
            if i:
                parts.append(f"cbase pub no cl#{i}")
            parts.append("")
        pdb = PDB.from_text("\n".join(parts))
        want = ["C0", *("    " * i + f"`--> C{i}" for i in range(1, depth + 1))]
        assert hashlib.sha256(render_class_tree(pdb).encode()).hexdigest() == _sha(want)


class TestPdbHtml:
    def test_generates_pages(self, stack_pdb, tmp_path):
        written = generate_html(stack_pdb, str(tmp_path))
        assert "index.html" in written
        assert len(written) > 20
        index = (tmp_path / "index.html").read_text()
        assert "Stack&lt;int&gt;" in index or "Stack<int>" in index

    def test_class_page_links(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path))
        cls = stack_pdb.findClass("Stack<int>")
        page = (tmp_path / f"cl_{cls.id()}.html").read_text()
        assert "push" in page
        assert "theArray" in page
        assert "Instantiated from template" in page

    def test_routine_page_shows_calls(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path))
        push = stack_pdb.findRoutine("Stack<int>::push")
        page = (tmp_path / f"ro_{push.id()}.html").read_text()
        assert "Calls" in page and "isFull" in page
        assert "Called by" in page

    def test_all_links_resolve(self, stack_pdb, tmp_path):
        import re

        written = set(generate_html(stack_pdb, str(tmp_path)))
        for name in written:
            html_text = (tmp_path / name).read_text()
            for target in re.findall(r"href='([^']+)'|href=\"([^\"]+)\"", html_text):
                t = (target[0] or target[1]).split("#")[0]
                assert t in written, f"{name} links to missing {t}"

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbhtml import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        outdir = tmp_path / "html"
        assert main([str(src), "-o", str(outdir)]) == 0
        assert (outdir / "index.html").exists()


class TestPdbMergeCli:
    def test_cli_merges(self, tmp_path):
        from repro.cpp import Frontend, FrontendOptions
        from repro.tools.pdbmerge import main
        from repro.workloads.stl import KAI_INCLUDE_DIR

        files = dict(stack_files())
        files["Second.cpp"] = (
            '#include "StackAr.h"\n'
            "int second() { Stack<int> s; s.push(1); return 0; }\n"
        )
        fe = Frontend(FrontendOptions(include_paths=[KAI_INCLUDE_DIR]))
        fe.register_files(files)
        p1 = PDB(analyze(fe.compile("TestStackAr.cpp")))
        p2 = PDB(analyze(fe.compile("Second.cpp")))
        f1, f2, out = tmp_path / "1.pdb", tmp_path / "2.pdb", tmp_path / "m.pdb"
        f1.write_text(p1.to_text())
        f2.write_text(p2.to_text())
        assert main([str(f1), str(f2), "-o", str(out), "-v"]) == 0
        merged = PDB.read(str(out))
        stacks = [c for c in merged.getClassVec() if c.name() == "Stack<int>"]
        assert len(stacks) == 1
        assert merged.findRoutine("second") is not None


class TestCxxParse:
    def test_cli_produces_pdb(self, tmp_path):
        from repro.tools.cxxparse import main

        src = tmp_path / "hello.cpp"
        src.write_text("int helper() { return 1; }\nint main() { return helper(); }\n")
        out = tmp_path / "hello.pdb"
        assert main([str(src), "-o", str(out)]) == 0
        pdb = PDB.read(str(out))
        assert pdb.findRoutine("main") is not None


class TestPdbHtmlSourcePages:
    def test_annotated_source_with_anchors(self, stack_pdb, tmp_path):
        sources = stack_files()
        generate_html(stack_pdb, str(tmp_path), sources=sources)
        header = next(
            f for f in stack_pdb.getFileVec() if f.name() == "StackAr.h"
        )
        page = (tmp_path / f"so_{header.id()}.html").read_text()
        assert "<a id='L1'>" in page
        assert "template &lt;class Object&gt;" in page

    def test_item_locations_link_to_source_lines(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path), sources=stack_files())
        push = stack_pdb.findRoutine("Stack<int>::push")
        page = (tmp_path / f"ro_{push.id()}.html").read_text()
        loc = push.location()
        assert f"#L{loc.line()}" in page
