"""The program graph: one PDB's static call graph and class hierarchy
(paper Section 3.3), resolved once.

Built on the first :attr:`PDB.graph` access from the wrappers' ``rcall``
and ``cbase`` records, and dropped with the wrappers by
``PDB._reindex``.  Maps are keyed by wrapper (a PDB has one per item)
and list their values in PDB item order.  pdbcheck, pdbtree and TAU read
them directly and never mutate them; the DUCTAPE methods
(:meth:`PdbRoutine.callers`, ...) hand out copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ductape.pdb import PDB


class ProgramGraph:
    """Callees, callers and roots of the routines; derived classes and
    roots of the classes."""

    __slots__ = ("calls", "callers", "roots", "derived", "class_roots")

    def __init__(self, pdb: "PDB"):
        routines = pdb.getRoutineVec()
        #: routine -> [(callee, is_virtual, (file name, line) or None)]
        #: in ``rcall`` order, calls that do not resolve left out
        self.calls: dict = {}
        #: routine -> the routines that call it, each once (absent if none)
        self.callers: dict = {}
        for r in routines:
            calls = self.calls[r] = []
            for c in r.callees():
                callee, loc = c.callee, c.loc
                if callee is None:
                    continue
                site = (loc.file().name(), loc.line()) if loc.known else None
                calls.append((callee, c.virtual, site))
                who = self.callers.setdefault(callee, [])
                if not who or who[-1] is not r:
                    who.append(r)
        #: routines nobody calls — the call tree roots (main among them)
        self.roots = [r for r in routines if r not in self.callers]

        classes = pdb.getClassVec()
        #: class -> its direct subclasses, each once (absent if none)
        self.derived: dict = {}
        #: classes without (resolved) bases — the hierarchy roots
        self.class_roots = []
        for c in classes:
            bases = c.baseClasses()
            if not bases:
                self.class_roots.append(c)
            for _acs, _virt, base in bases:
                sub = self.derived.setdefault(base, [])
                if not sub or sub[-1] is not c:
                    sub.append(c)
