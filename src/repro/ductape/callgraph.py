"""Static call tree (paper Section 3.3 / Figure 5).

"Functions instantiated from templates are automatically included in the
vector of called functions" — nothing special is needed here because the
IL Analyzer resolved template calls to the instantiated routines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.ductape.items import ACTIVE, INACTIVE, PdbRoutine

if TYPE_CHECKING:  # pragma: no cover
    from repro.ductape.pdb import PDB


class CallTree:
    """The static call graph over a PDB's routines."""

    def __init__(self, pdb: "PDB"):
        self.pdb = pdb
        self.routines = pdb.getRoutineVec()
        #: routines nobody calls — the tree roots (main among them)
        self.roots = list(pdb.graph.roots)

    def root_named(self, name: str) -> Optional[PdbRoutine]:
        for r in self.roots:
            if r.name() == name or r.fullName() == name:
                return r
        return None

    def walk(
        self, root: PdbRoutine
    ) -> Iterator[tuple[PdbRoutine, int, bool, bool]]:
        """DFS yielding (routine, depth, is_virtual_call, is_cycle).

        Cycles are detected with the routine flag, exactly as
        printFuncTree does in paper Figure 5.  The traversal is an
        explicit-stack DFS: call chains from the scaling corpora go
        deeper than Python's recursion limit allows a recursive
        generator to."""
        callees_of = self.pdb.graph.calls
        yield root, -1, False, False
        root.flag(ACTIVE)
        stack: list[tuple[PdbRoutine, Iterator, int]] = [
            (root, iter(callees_of[root]), 0)
        ]
        try:
            while stack:
                r, calls, depth = stack[-1]
                call = next(calls, None)
                if call is None:
                    stack.pop()
                    r.flag(INACTIVE)
                    continue
                callee, virtual, _site = call
                cyclic = callee.flag() == ACTIVE
                yield callee, depth, virtual, cyclic
                if not cyclic:
                    callee.flag(ACTIVE)
                    stack.append((callee, iter(callees_of[callee]), depth + 1))
        finally:
            # a closed (abandoned) generator must still reset the flags
            for r, _calls, _depth in stack:
                r.flag(INACTIVE)
