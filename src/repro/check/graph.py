"""Graph algorithms for whole-program checks.

The call graph and the include graph both need strongly-connected
components: a mutually-recursive routine cluster with no external entry
has no :attr:`CallTree.roots` at all (every member is "called"), and
the dead-code check names each such cluster by its component; an
include cycle is one component.

Everything here is iterative — the E12 scaling corpora produce chains
deep enough to blow Python's recursion limit — and deterministic: SCCs
come out keyed by first-seen node order, members in input order.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def tarjan_sccs(nodes: Sequence[T], succ: Callable[[T], Iterable[T]]) -> list[list[T]]:
    """Strongly-connected components of the graph (``nodes``, ``succ``).

    Iterative Tarjan.  Components are returned in reverse topological
    order (callees before callers), each component's members in visit
    order.  Successors outside ``nodes`` are ignored.
    """
    node_set = set(nodes)
    index: dict[T, int] = {}
    lowlink: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    sccs: list[list[T]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # work stack of (node, iterator over remaining successors)
        work: list[tuple[T, list[T], int]] = [(root, _succ_list(succ, root, node_set), 0)]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, children, i = work.pop()
            advanced = False
            while i < len(children):
                w = children[i]
                i += 1
                if w not in index:
                    work.append((v, children, i))
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, _succ_list(succ, w, node_set), 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            # v is finished
            if lowlink[v] == index[v]:
                comp: list[T] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comp.reverse()
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def _succ_list(succ: Callable[[T], Iterable[T]], v: T, node_set: set[T]) -> list[T]:
    return [w for w in succ(v) if w in node_set]


class Condensation:
    """The SCC condensation DAG of a graph."""

    def __init__(self, nodes: Sequence[T], succ: Callable[[T], Iterable[T]]):
        self.nodes = list(nodes)
        self.sccs = tarjan_sccs(self.nodes, succ)
        #: node -> index of its component in :attr:`sccs`
        self.comp_of: dict[T, int] = {}
        for ci, comp in enumerate(self.sccs):
            for v in comp:
                self.comp_of[v] = ci
        node_set = set(self.nodes)
        self.comp_succ: list[set[int]] = [set() for _ in self.sccs]
        self.self_loop: list[bool] = [False] * len(self.sccs)
        for v in self.nodes:
            ci = self.comp_of[v]
            for w in succ(v):
                if w not in node_set:
                    continue
                cj = self.comp_of[w]
                if ci == cj:
                    if len(self.sccs[ci]) == 1:
                        self.self_loop[ci] = True
                else:
                    self.comp_succ[ci].add(cj)

    def is_cycle(self, ci: int) -> bool:
        """Whether component ``ci`` contains a cycle (mutual recursion or
        a self-loop)."""
        return len(self.sccs[ci]) > 1 or self.self_loop[ci]
