"""Uncalled-function ratchet: every ``src/`` function is reached by tier-1.

Runs the tier-1 suite in this process under a ``sys.setprofile`` call
recorder, then lists each function defined under ``src/`` (every
``def``, methods and nested functions included) whose code never ran.
It exits 1 when one of them is not on the allow-list
(``tests/uncalled_allowlist.txt``), and 0 otherwise.

Usage, from the repository root::

    PYTHONPATH=src python tests/uncalled.py [extra pytest arguments]

The recorder is reinstalled before each test's setup, call and
teardown: Python drops a profile hook that raises, and the depth-ladder
tests raise ``RecursionError`` inside it.  Hypothesis runs with a fixed
seed, so one tree gives one set of called functions.  Code that runs
only in another process (CLI ``main`` functions driven through a
subprocess, ``pdbbuild``'s forked workers) is invisible to the recorder;
those functions belong on the allow-list with the reason.  An
allow-listed function that did run is reported, so the list can shrink,
but does not fail the run: timing-dependent paths may run on one host
and not on another.  The recorder costs about 3.5x the plain tier-1
time, which is why CI runs it as its own job.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "tests", "uncalled_allowlist.txt")

_seen: set = set()
_add = _seen.add


def _hook(frame, event, arg) -> None:
    if event == "call":
        _add(frame.f_code)


def _install() -> None:
    sys.setprofile(_hook)
    threading.setprofile(_hook)


class _Reinstall:
    """pytest plugin: put the recorder back before every test phase."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        _install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        _install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item) -> None:
        _install()


def defined_functions() -> dict[tuple[str, int], str]:
    """``(path, first line) -> "relpath:Qual.name"`` for every function
    under ``src/``.  The first line is the first decorator's, as the
    function's code object records it."""
    out: dict[tuple[str, int], str] = {}
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, SRC)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            _collect(tree, [], path, rel, out)
    return out


def _collect(node: ast.AST, scope: list, path: str, rel: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            out[(path, first)] = f"{rel}:{'.'.join(scope + [child.name])}"
            _collect(child, scope + [child.name], path, rel, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, scope + [child.name], path, rel, out)
        else:
            _collect(child, scope, path, rel, out)


def read_allowlist(path: str = ALLOWLIST) -> set[str]:
    """The allow-list's entries: one ``relpath:Qual.name`` per line, each
    followed by a ``#`` comment giving the reason; ``#`` lines are notes."""
    entries: set[str] = set()
    with open(path) as f:
        for line in f:
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.add(entry)
    return entries


def main(argv: list[str]) -> int:
    _install()
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv,
             os.path.join(ROOT, "tests")],
            plugins=[_Reinstall()],
        )
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        print(f"uncalled: tier-1 failed (pytest exit {status})")
        return 1
    called = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in _seen}
    defined = defined_functions()
    # one name can have several defs (a property's getter and setter):
    # the name counts as called when any of them ran
    by_name: dict[str, bool] = {}
    for key, name in defined.items():
        by_name[name] = by_name.get(name, False) or key in called
    uncalled = sorted(name for name, ran in by_name.items() if not ran)
    allowed = read_allowlist()
    missing = [name for name in uncalled if name not in allowed]
    stale = sorted(allowed - set(uncalled))
    print(
        f"uncalled: {len(by_name)} functions in src/, {len(uncalled)} never called, "
        f"{len(uncalled) - len(missing)} of them allow-listed"
    )
    for name in stale:
        print(f"  allow-listed but called or gone (remove it): {name}")
    for name in missing:
        print(f"  never called and not allow-listed: {name}")
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
