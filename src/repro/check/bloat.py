"""Template-instantiation bloat (PDT011, PDT012).

The paper's central contribution — matching every instantiation back to
its originating template by source location — is what makes this check
possible: findings are grouped *per template*, so "Box is instantiated
5 times, 3 of them never used" falls straight out of the back-links.

Two rules:

* **PDT011** — an instantiated routine with a generated *body* that
  nothing calls.  In used-mode PDBs unused members are declaration-only
  (no body, no bloat), so this fires mainly on ``--tall``/explicit
  instantiations, where the compiler really did emit the code.  Only
  out-of-line bodies count for member functions: an inline body inside
  the class extent is part of the class definition, not separate bloat.
* **PDT012** — an instantiated class no one uses: no member called from
  outside the class, not referenced by any other item's types or bases,
  and no derived classes.  (A class's own constructors reference it
  through their signatures; those self-references are excluded.)
"""

from __future__ import annotations

from repro.check.core import Check, CheckContext, Finding, Rule, register
from repro.ductape.items import PdbClass, PdbRoutine

UNUSED_INSTANTIATION = Rule(
    id="PDT011",
    name="unused-instantiation",
    severity="warning",
    summary="Template-instantiated routine has a generated body but no callers",
)
UNUSED_CLASS_INSTANTIATION = Rule(
    id="PDT012",
    name="unused-class-instantiation",
    severity="warning",
    summary="Template-instantiated class is never used "
    "(no external member calls, type references, or derived classes)",
)


@register
class TemplateBloatCheck(Check):
    name = "bloat"
    rules = (UNUSED_INSTANTIATION, UNUSED_CLASS_INSTANTIATION)

    def run(self, ctx: CheckContext) -> list[Finding]:
        callers = ctx.pdb.graph.callers
        derived = ctx.pdb.graph.derived
        class_refs = ctx.class_refs_map()

        # resolve template back-links once per item; the provenance pass
        # and the per-template totals below share them
        class_tmpl = [(c, c.template()) for c in ctx.classes]
        routine_tmpl = [(r, r.template()) for r in ctx.routines]

        dead_classes: list[PdbClass] = []
        dead_class_items: set = set()
        for c, tmpl in class_tmpl:
            if tmpl is None:
                continue
            if derived.get(c):
                continue
            if any(owner is not c for owner in class_refs.get(c, ())):
                continue
            if any(
                any(caller.parentClass() is not c for caller in callers.get(m, ()))
                for m in c.memberFunctions()
            ):
                continue
            dead_classes.append(c)
            dead_class_items.add(c)

        dead_routines: list[PdbRoutine] = []
        for r, tmpl in routine_tmpl:
            if tmpl is None or r.name() == "main":
                continue
            if callers.get(r):
                continue
            body = r.bodyBegin()
            if not body.known:
                continue  # declaration-only (used mode): no code generated
            parent = r.parentClass()
            if parent is not None:
                if parent in dead_class_items:
                    continue  # already reported as PDT012 on the class
                if not _out_of_line(r, parent):
                    continue
            dead_routines.append(r)

        # per-template grouping: total vs unused instantiation counts
        totals: dict = {}
        for _item, t in [*class_tmpl, *routine_tmpl]:
            if t is not None:
                totals[t] = totals.get(t, 0) + 1
        unused: dict = {}
        for item in [*dead_classes, *dead_routines]:
            t = item.template()
            unused[t] = unused.get(t, 0) + 1

        findings: list[Finding] = []
        for c in dead_classes:
            t = c.template()
            findings.append(
                self._finding(
                    UNUSED_CLASS_INSTANTIATION,
                    c,
                    f"class '{c.fullName()}' instantiated from template "
                    f"'{t.fullName()}' is never used "
                    f"({unused[t]} of {totals[t]} instantiations of this template unused)",
                )
            )
        for r in dead_routines:
            t = r.template()
            findings.append(
                self._finding(
                    UNUSED_INSTANTIATION,
                    r,
                    f"routine '{r.fullName()}' instantiated from template "
                    f"'{t.fullName()}' has a generated body but no callers "
                    f"({unused[t]} of {totals[t]} instantiations of this template unused)",
                )
            )
        return findings

    @staticmethod
    def _finding(rule: Rule, item, message: str) -> Finding:
        loc = item.location()
        return Finding(
            rule=rule,
            item=item.fullName(),
            message=message,
            file=loc.file().name() if loc.known else None,
            line=loc.line(),
            column=loc.col(),
        )


def _out_of_line(r: PdbRoutine, parent: PdbClass) -> bool:
    """Whether a member routine's body lies outside its class's extent.

    An inline body (inside the ``cpos`` span) exists in every TU that
    uses the class — that is the class definition, not bloat; an
    out-of-line body is a genuinely instantiated member definition.
    """
    body = r.bodyBegin()
    begin = parent.headerBegin()
    end = parent.bodyEnd()
    if not (body.known and begin.known and end.known):
        return True  # class extent unknown: treat the body as separate
    if body.file() is not begin.file():
        return True
    return not (begin.line() <= body.line() <= end.line())
