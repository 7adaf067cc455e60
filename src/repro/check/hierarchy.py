"""Class-hierarchy lints (PDT031, PDT032) over :class:`ClassHierarchy`.

* **PDT031** — a class with virtual member functions and derived
  classes but no virtual destructor: deleting a derived object through
  a base pointer is undefined behaviour.
* **PDT032** — a derived-class member function that *hides* a base
  class's virtual function: same name, but no signature matches any
  virtual overload of that name in any ancestor, so the virtual is
  shadowed rather than overridden.  (Exact-signature redeclarations are
  overrides and are never flagged; constructors/destructors are exempt.)
"""

from __future__ import annotations

from repro.check.core import Check, CheckContext, Finding, Rule, register
from repro.ductape.items import PdbClass, PdbRoutine

MISSING_VIRTUAL_DTOR = Rule(
    id="PDT031",
    name="missing-virtual-dtor",
    severity="warning",
    summary="Polymorphic base class has derived classes but no virtual destructor",
)
HIDDEN_VIRTUAL = Rule(
    id="PDT032",
    name="hidden-virtual",
    severity="warning",
    summary="Member function hides a base-class virtual function instead of overriding it",
)


@register
class HierarchyCheck(Check):
    name = "hierarchy"
    rules = (MISSING_VIRTUAL_DTOR, HIDDEN_VIRTUAL)

    def run(self, ctx: CheckContext) -> list[Finding]:
        derived = ctx.pdb.graph.derived
        findings: list[Finding] = []

        for c in ctx.classes:
            if not derived.get(c):
                continue
            members = c.memberFunctions()
            if not any(m.isVirtual() for m in members):
                continue
            dtors = [m for m in members if m.kind() == PdbRoutine.RO_DTOR]
            if any(d.isVirtual() for d in dtors):
                continue
            what = f"non-virtual destructor '{dtors[0].fullName()}'" if dtors else (
                "an implicit non-virtual destructor"
            )
            loc = (dtors[0] if dtors else c).location()
            findings.append(
                Finding(
                    rule=MISSING_VIRTUAL_DTOR,
                    item=c.fullName(),
                    message=(
                        f"polymorphic class '{c.fullName()}' has "
                        f"{len(derived[c])} derived class(es) but {what}"
                    ),
                    file=loc.file().name() if loc.known else None,
                    line=loc.line(),
                    column=loc.col(),
                )
            )

        for c in ctx.classes:
            bases = _ancestors(c)
            if not bases:
                continue
            # base virtuals by plain name -> set of signature names
            virtuals: dict[str, set[str]] = {}
            vowner: dict[str, PdbRoutine] = {}
            for b in bases:
                for m in b.memberFunctions():
                    if not m.isVirtual() or m.kind() in (
                        PdbRoutine.RO_CTOR,
                        PdbRoutine.RO_DTOR,
                    ):
                        continue
                    sig = m.signature()
                    virtuals.setdefault(m.name(), set()).add(
                        sig.name() if sig is not None else ""
                    )
                    vowner.setdefault(m.name(), m)
            if not virtuals:
                continue
            own: dict[str, set[str]] = {}
            own_items: dict[str, list[PdbRoutine]] = {}
            for m in c.memberFunctions():
                if m.parentClass() is not c or m.kind() in (
                    PdbRoutine.RO_CTOR,
                    PdbRoutine.RO_DTOR,
                ):
                    continue
                sig = m.signature()
                own.setdefault(m.name(), set()).add(sig.name() if sig is not None else "")
                own_items.setdefault(m.name(), []).append(m)
            for name, sigs in own.items():
                base_sigs = virtuals.get(name)
                if base_sigs is None:
                    continue
                if sigs & base_sigs:
                    continue  # at least one exact-signature override exists
                m = own_items[name][0]
                hidden = vowner[name]
                loc = m.location()
                findings.append(
                    Finding(
                        rule=HIDDEN_VIRTUAL,
                        item=m.fullName(),
                        message=(
                            f"'{m.fullName()}' hides virtual "
                            f"'{hidden.fullName()}' (no overload matches the "
                            f"base signature — the virtual is shadowed, not overridden)"
                        ),
                        file=loc.file().name() if loc.known else None,
                        line=loc.line(),
                        column=loc.col(),
                    )
                )
        return findings


def _ancestors(c: PdbClass) -> list[PdbClass]:
    """All transitive base classes, iteratively, cycle-safe."""
    out: list[PdbClass] = []
    seen = {c}
    stack = [b for _a, _v, b in c.baseClasses()]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        out.append(b)
        stack.extend(bb for _a, _v, bb in b.baseClasses())
    return out
