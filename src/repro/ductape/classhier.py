"""Class hierarchy (paper Section 3.3 / pdbtree)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ductape.items import PdbClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.ductape.pdb import PDB


class ClassHierarchy:
    """The inheritance forest over a PDB's classes."""

    def __init__(self, pdb: "PDB"):
        self.pdb = pdb
        self.classes = pdb.getClassVec()
        #: classes with no bases — hierarchy roots
        self.roots = list(pdb.graph.class_roots)
        #: memo for :meth:`depth_of` (class ref -> depth)
        self._depths: dict = {}

    def walk(self, root: PdbClass) -> Iterator[tuple[PdbClass, int]]:
        """Pre-order (class, depth) pairs; a class reached again is not
        descended into.  An explicit stack: chains may be very deep."""
        derived = self.pdb.graph.derived
        seen: set = set()
        stack = [(root, 0)]
        while stack:
            c, depth = stack.pop()
            yield c, depth
            if c in seen:
                continue
            seen.add(c)
            stack.extend((d, depth + 1) for d in reversed(derived.get(c, ())))

    def depth_of(self, cls: PdbClass) -> int:
        """Longest base-class chain above ``cls``.

        Memoized — a diamond hierarchy revisits shared bases once, not
        2^depth times — and iterative, with a cycle guard: malformed
        base-class data (``A -> B -> A``) raises ``ValueError`` naming
        the cycle instead of blowing the recursion limit.
        """
        memo = self._depths
        if cls.ref in memo:
            return memo[cls.ref]
        visiting: set = set()
        # (class, its bases, next base index) — post-order evaluation
        stack = [(cls, [b for _, _, b in cls.baseClasses()], 0)]
        visiting.add(cls.ref)
        while stack:
            c, bases, i = stack.pop()
            while i < len(bases):
                b = bases[i]
                if b.ref in memo:
                    i += 1
                    continue
                if b.ref in visiting:
                    cycle = " -> ".join(
                        [x.fullName() for x, _, _ in stack]
                        + [c.fullName(), b.fullName()]
                    )
                    raise ValueError(f"class hierarchy cycle: {cycle}")
                stack.append((c, bases, i))
                stack.append((b, [bb for _, _, bb in b.baseClasses()], 0))
                visiting.add(b.ref)
                break
            else:
                memo[c.ref] = (
                    1 + max(memo[b.ref] for b in bases) if bases else 0
                )
                visiting.discard(c.ref)
        return memo[cls.ref]

    def render(self) -> str:
        lines: list[str] = []
        for root in self.roots:
            for c, depth in self.walk(root):
                indent = "    " * depth
                arrow = "`--> " if depth else ""
                lines.append(f"{indent}{arrow}{c.fullName()}")
        return "\n".join(lines)
