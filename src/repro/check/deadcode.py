"""Dead-routine detection (PDT001).

:class:`~repro.ductape.callgraph.CallTree` finds its roots as "routines
nobody calls" — so a mutually-recursive cluster with no external caller
has *no* roots at all and the whole cluster silently disappears from
every ``pdbtree`` rendering.  This check walks reachability from the
entry points instead: ``main``, any user-supplied ``--entry`` names, and
the call tree roots (an uncalled routine may be an exported API, and it
cannot be cyclic: a self-call would make it its own caller).  What
remains unreachable is exactly the set of cyclic orphan clusters and
code only they can reach; a Tarjan SCC condensation of that remainder
names each cluster.
"""

from __future__ import annotations

from repro.check.core import Check, CheckContext, Finding, Rule, register
from repro.check.graph import Condensation

DEAD_ROUTINE = Rule(
    id="PDT001",
    name="dead-routine",
    severity="warning",
    summary="Routine is unreachable from every entry point "
    "(member of, or only called from, a mutually-recursive cluster with no external entry)",
)


@register
class DeadCodeCheck(Check):
    name = "deadcode"
    rules = (DEAD_ROUTINE,)

    def run(self, ctx: CheckContext) -> list[Finding]:
        routines = ctx.routines
        graph = ctx.pdb.graph
        entry_names = {"main", *ctx.entries}
        stack = graph.roots + [
            r for r in routines if r.name() in entry_names or r.fullName() in entry_names
        ]
        live: set = set()
        while stack:
            r = stack.pop()
            if r not in live:
                live.add(r)
                stack.extend(callee for callee, _virt, _site in graph.calls.get(r, ()))
        dead = [r for r in routines if r not in live]
        succ = {r: [callee for callee, _virt, _site in graph.calls[r]] for r in dead}
        cond = Condensation(dead, succ.__getitem__)

        findings: list[Finding] = []
        for ci, comp in enumerate(cond.sccs):
            names = ", ".join(sorted(r.fullName() for r in comp))
            for r in comp:
                if cond.is_cycle(ci):
                    msg = (
                        f"routine '{r.fullName()}' is never reached: it belongs to a "
                        f"mutually-recursive cluster {{{names}}} with no external entry"
                    )
                else:
                    msg = (
                        f"routine '{r.fullName()}' is only reachable from dead code"
                    )
                loc = r.location()
                findings.append(
                    Finding(
                        rule=DEAD_ROUTINE,
                        item=r.fullName(),
                        message=msg,
                        file=loc.file().name() if loc.known else None,
                        line=loc.line(),
                        column=loc.col(),
                    )
                )
        return findings
