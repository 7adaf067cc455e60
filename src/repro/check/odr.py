"""Cross-TU One-Definition-Rule violations (PDT021, PDT022).

Meaningful on *merged* PDBs: :meth:`PDB.merge` collapses items whose
(kind, name, parent, signature, defining location) coincide, so two
*different* definitions of the same entity survive the merge as two
items with the same full name — exactly the situation the ODR forbids.
This is the toolchain's one ODR detector: the merge itself only
deduplicates, and ``pdbmerge --check`` and ``pdbbuild --check`` run
this check over their merged result.

Only *definition* items participate, and a definition needs a body: a
routine or class whose body position is known.  A declaration in a
header plus its out-of-line definition in one TU is normal C++, and so
is a forward declaration ``class Node;`` next to ``class Node { … };``
in another TU (the opaque-pointer idiom); neither is a violation.
Internal-linkage routines (``static``) are skipped — each TU is allowed
its own.
"""

from __future__ import annotations

from repro.check.core import Check, CheckContext, Finding, Rule, register

ODR_ROUTINE = Rule(
    id="PDT021",
    name="odr-routine",
    severity="error",
    summary="Routine has multiple conflicting definitions across translation units",
)
ODR_CLASS = Rule(
    id="PDT022",
    name="odr-class",
    severity="error",
    summary="Class has multiple conflicting definitions across translation units",
)


@register
class OdrCheck(Check):
    name = "odr"
    rules = (ODR_ROUTINE, ODR_CLASS)

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []

        # group by name first; signatures (overloads are legal) are only
        # resolved for the rare groups that actually collide
        by_name: dict = {}
        for r in ctx.routines:
            if not r.bodyBegin().known:
                continue  # declaration only — not a definition
            if r.isStatic() or r.storageClass() == "static":
                continue  # internal linkage: one per TU is legal
            by_name.setdefault(r.fullName(), []).append(r)
        for full_name, cands in by_name.items():
            if len(cands) < 2:
                continue
            groups: dict = {}
            for r in cands:
                sig = r.signature()
                groups.setdefault(sig.name() if sig is not None else "", []).append(r)
            for defs in groups.values():
                if len(defs) >= 2:
                    findings.extend(
                        self._conflict(ODR_ROUTINE, "routine", full_name, defs)
                    )

        cgroups: dict = {}
        for c in ctx.classes:
            if not c.bodyBegin().known:
                continue  # forward declaration — not a definition
            cgroups.setdefault(c.fullName(), []).append(c)
        for full_name, defs in cgroups.items():
            if len(defs) < 2:
                continue
            findings.extend(self._conflict(ODR_CLASS, "class", full_name, defs))

        return findings

    @staticmethod
    def _conflict(rule: Rule, kind: str, full_name: str, defs: list) -> list[Finding]:
        sites = []
        for d in defs:
            loc = d.location()
            sites.append(
                (loc.file().name() if loc.known else "?", loc.line(), loc.col())
            )
        where = "; ".join(f"{f}:{ln}" for f, ln, _ in sites)
        out = []
        for d, (f, ln, col) in zip(defs, sites):
            out.append(
                Finding(
                    rule=rule,
                    item=full_name,
                    message=(
                        f"{kind} '{full_name}' has {len(defs)} conflicting "
                        f"definitions across translation units: {where}"
                    ),
                    file=None if f == "?" else f,
                    line=ln,
                    column=col,
                    related=[
                        ("other definition", of, oln)
                        for of, oln, _ in sites
                        if (of, oln) != (f, ln)
                    ],
                )
            )
        return out
