"""Include-graph lints (PDT041, PDT042) over the inclusion forest.

* **PDT041** — a file that is included but contributes nothing: no PDB
  item is located in it and nothing it (transitively) includes
  contributes either.  System headers are exempt.
* **PDT042** — an ``#include`` cycle, reported with the cycle path.
  Real preprocessors break these with guards, but a merged or
  hand-maintained PDB can still record one, and the inclusion-tree
  renderer would unroll it forever.
"""

from __future__ import annotations

from repro.check.core import Check, CheckContext, Finding, Rule, register
from repro.check.graph import Condensation

UNUSED_INCLUDE = Rule(
    id="PDT041",
    name="unused-include",
    severity="warning",
    summary="File is included but contributes no program-database items",
)
INCLUDE_CYCLE = Rule(
    id="PDT042",
    name="include-cycle",
    severity="warning",
    summary="Include graph contains a cycle",
)


@register
class IncludeCheck(Check):
    name = "includes"
    rules = (UNUSED_INCLUDE, INCLUDE_CYCLE)

    def run(self, ctx: CheckContext) -> list[Finding]:
        files = ctx.pdb.getFileVec()
        succ = {f: f.includes() for f in files}
        item_counts = ctx.file_items_map()
        findings: list[Finding] = []

        cond = Condensation(files, succ.__getitem__)
        for ci, comp in enumerate(cond.sccs):
            if not cond.is_cycle(ci):
                continue
            names = [f.name() for f in comp]
            path = " -> ".join([*names, names[0]])
            findings.append(
                Finding(
                    rule=INCLUDE_CYCLE,
                    item=names[0],
                    message=f"include cycle: {path}",
                    file=names[0],
                    line=1,
                    column=1,
                )
            )

        # a file contributes if items live in it, or anything it includes
        # contributes; propagate over the condensation (cycle-safe)
        contributes: dict[int, bool] = {}
        for ci in range(len(cond.sccs)):  # reverse topological order
            val = any(item_counts.get(f, 0) > 0 for f in cond.sccs[ci])
            val = val or any(contributes[cj] for cj in cond.comp_succ[ci])
            contributes[ci] = val

        included_by: dict = {}
        for f in files:
            for inc in succ[f]:
                included_by.setdefault(inc, []).append(f)
        for f in files:
            if f not in included_by:
                continue  # a root (translation unit), not an include
            if f.isSystem():
                continue
            if contributes[cond.comp_of[f]]:
                continue
            includers = ", ".join(sorted(i.name() for i in included_by[f]))
            findings.append(
                Finding(
                    rule=UNUSED_INCLUDE,
                    item=f.name(),
                    message=(
                        f"file '{f.name()}' (included by {includers}) "
                        f"contributes no program-database items"
                    ),
                    file=f.name(),
                    line=1,
                    column=1,
                )
            )
        return findings
