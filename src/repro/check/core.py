"""The pass framework: rules, findings, checks, registry, runner.

A *check* is a whole-program pass over one (possibly merged) PDB through
the DUCTAPE API.  Each check owns one or more *rules* with stable IDs
(``PDT0xx``) and severities; running a check yields *findings*.  The
call graph and class hierarchy — callees, callers, derived classes —
come from the PDB's program graph (:attr:`PDB.graph`), resolved once per
PDB and shared with pdbtree and TAU.  The :class:`CheckContext` adds the
structures only the checks need — per-file item counts and
externally-referenced classes — each built in O(items), once per run.
That is what keeps the whole suite inside the E18 budget (< 2× a
``pdbtree`` walk of the same corpus).

Determinism: checks run in registration order, findings are sorted by
(file, line, column, rule, item), and every container iterates in PDB
item order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro import obs
from repro.ductape.items import PdbClass, PdbFile, PdbItem, PdbRoutine, PdbSimpleItem
from repro.ductape.pdb import PDB

#: severity levels, most severe first (SARIF ``level`` values)
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Rule:
    """One diagnostic rule with a stable ID."""

    id: str  # "PDT001"
    name: str  # "dead-routine" (SARIF reportingDescriptor name)
    severity: str  # "error" | "warning" | "note"
    summary: str  # one-line description

    def __post_init__(self):
        assert self.severity in SEVERITIES, self.severity


@dataclass
class Finding:
    """One diagnostic: a rule fired on an item at a location."""

    rule: Rule
    item: str  # fullName of the offending entity
    message: str
    file: Optional[str] = None
    line: int = 0
    column: int = 0
    #: related locations: (message, file, line) — e.g. the other ODR def
    related: list[tuple[str, str, int]] = field(default_factory=list)

    def sort_key(self) -> tuple:
        return (self.file or "", self.line, self.column, self.rule.id, self.item, self.message)

    def render(self) -> str:
        loc = f"{self.file}:{self.line}:{self.column}: " if self.file else ""
        return f"{loc}{self.rule.severity}: {self.message} [{self.rule.id}]"


class Check:
    """Base class for whole-program passes.  Subclasses set ``name`` and
    ``rules`` and implement :meth:`run`."""

    name: str = ""
    rules: tuple[Rule, ...] = ()

    def run(self, ctx: "CheckContext") -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)


# ------------------------------------------------------------- registry

#: registered check classes, in registration (= run) order
_REGISTRY: list[type[Check]] = []


def register(cls: type[Check]) -> type[Check]:
    """Class decorator adding a check to the global registry."""
    assert cls.name and cls.rules, cls
    _REGISTRY.append(cls)
    return cls


def all_checks() -> list[Check]:
    """Fresh instances of every registered check, in run order."""
    _load_builtin_checks()
    return [cls() for cls in _REGISTRY]


def all_rules() -> list[Rule]:
    """Every rule of every registered check, in run order."""
    return [r for c in all_checks() for r in c.rules]


def _load_builtin_checks() -> None:
    # the builtin check modules register on import; import here (not at
    # module top) so core has no import cycle with them
    from repro.check import bloat, deadcode, hierarchy, includes, odr  # noqa: F401


def resolve_selection(spec: Optional[Iterable[str] | str]) -> dict[str, set[str]]:
    """Resolve a rule/check selection to ``{check name: enabled rule ids}``.

    ``spec`` is None/"all" (everything), or an iterable / comma-joined
    string of tokens, each a check name (``deadcode``), a rule id
    (``PDT001``), or a rule name (``dead-routine``).  Unknown tokens
    raise ``ValueError``.  A check with no enabled rules is not run.
    """
    checks = all_checks()
    if spec is None or spec == "all":
        return {c.name: {r.id for r in c.rules} for c in checks}
    if isinstance(spec, str):
        tokens = [t for t in (p.strip() for p in spec.split(",")) if t]
    else:
        tokens = list(spec)
    if tokens == ["all"]:
        return {c.name: {r.id for r in c.rules} for c in checks}
    enabled: dict[str, set[str]] = {}
    for tok in tokens:
        hit = False
        for c in checks:
            if tok == c.name:
                enabled.setdefault(c.name, set()).update(r.id for r in c.rules)
                hit = True
                continue
            for r in c.rules:
                if tok in (r.id, r.name):
                    enabled.setdefault(c.name, set()).add(r.id)
                    hit = True
        if not hit:
            known = sorted({c.name for c in checks} | {r.id for r in all_rules()})
            raise ValueError(f"unknown check or rule {tok!r} (known: {', '.join(known)})")
    return enabled


# -------------------------------------------------------------- context


class CheckContext:
    """Shared, precomputed derived structures over one PDB.

    Everything is built lazily on first use and exactly once per run, so
    a selection that only runs the include lints never pays for the call
    graph.
    """

    def __init__(self, pdb: PDB, entries: Iterable[str] = ()):
        self.pdb = pdb
        #: extra entry-point names for reachability (``main`` is implicit)
        self.entries = list(entries)
        self._class_refs: Optional[dict[PdbClass, set[PdbSimpleItem]]] = None
        self._file_items: Optional[dict[PdbFile, int]] = None
        self._type_classes: dict[PdbSimpleItem, list[PdbClass]] = {}

    # each map is one O(items) sweep, replacing per-item O(n) scans

    @property
    def routines(self) -> list[PdbRoutine]:
        return self.pdb.getRoutineVec()

    @property
    def classes(self) -> list[PdbClass]:
        return self.pdb.getClassVec()

    def class_refs_map(self) -> dict[PdbClass, set[PdbSimpleItem]]:
        """class -> the *owners* that mention it.

        An owner is the class a reference originates from (for member
        functions: their parent class; for free routines: the routine
        itself; for classes: the class).  A class mentioned only by its
        own members (e.g. a constructor's signature returns the class)
        is *not* externally referenced — the bloat check's key subtlety.
        """
        if self._class_refs is None:
            m: dict[PdbClass, set[PdbSimpleItem]] = {}

            def note(cls: PdbClass, owner: PdbSimpleItem) -> None:
                m.setdefault(cls, set()).add(owner)

            for c in self.classes:
                for _acs, _virt, base in c.baseClasses():
                    note(base, c)
                for mem in c.dataMembers():
                    for cls in self._classes_of_type(mem.type()):
                        note(cls, c)
            for r in self.routines:
                owner = r.parentClass() or r
                for cls in self._classes_of_type(r.signature()):
                    note(cls, owner)
            self._class_refs = m
        return self._class_refs

    def _classes_of_type(self, t: Optional[PdbSimpleItem]) -> list[PdbClass]:
        """All classes reachable through a type item (ptr/ref/func...).

        Memoized per entry type: signatures and member types share type
        subtrees heavily (``int``, ``T &``, ...), so the closure walk
        runs once per distinct type item, not once per mention.
        """
        if t is None:
            return []
        cached = self._type_classes.get(t)
        if cached is not None:
            return cached
        out: list[PdbClass] = []
        seen: set[PdbSimpleItem] = set()
        stack: list[PdbSimpleItem] = [t]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if isinstance(cur, PdbClass):
                out.append(cur)
                continue
            if cur.prefix() != "ty":
                continue
            nxt = [cur.referencedType(), cur.returnType()]  # type: ignore[attr-defined]
            nxt.extend(cur.argumentTypes())  # type: ignore[attr-defined]
            stack.extend(x for x in nxt if x is not None)
        self._type_classes[t] = out
        return out

    def file_items_map(self) -> dict[PdbFile, int]:
        """file -> number of PDB items whose location is in it."""
        if self._file_items is None:
            m: dict[PdbFile, int] = {}
            for item in self.pdb.items():
                if isinstance(item, PdbItem):
                    f = item.location().file()
                    if f is not None:
                        m[f] = m.get(f, 0) + 1
            self._file_items = m
        return self._file_items


# ---------------------------------------------------------------- runner


@dataclass
class CheckReport:
    """Outcome of one :func:`run_checks` invocation."""

    findings: list[Finding] = field(default_factory=list)
    #: check name -> wall seconds (the check's ``check.<name>`` span)
    timings: dict[str, float] = field(default_factory=dict)
    #: rule id -> finding count (post-suppression)
    rule_counts: dict[str, int] = field(default_factory=dict)
    checks_run: list[str] = field(default_factory=list)
    suppressed: int = 0

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.rule.severity == severity)

    def worst_severity(self) -> Optional[str]:
        for sev in SEVERITIES:
            if any(f.rule.severity == sev for f in self.findings):
                return sev
        return None

    def fails(self, fail_on: str = "warning") -> bool:
        """Whether findings reach the ``fail_on`` severity threshold."""
        threshold = SEVERITIES.index(fail_on)
        worst = self.worst_severity()
        return worst is not None and SEVERITIES.index(worst) <= threshold


def run_checks(
    pdb: PDB,
    select: Optional[Iterable[str] | str] = None,
    entries: Iterable[str] = (),
    suppressions: Optional[Callable[[Finding], bool]] = None,
) -> CheckReport:
    """Run the selected checks over ``pdb``.

    ``select`` as in :func:`resolve_selection`; ``entries`` are extra
    entry-point routine names for reachability; ``suppressions`` is a
    predicate returning True when a finding is *kept* (see
    :mod:`repro.check.suppress`).  Each check runs inside an
    ``obs.observe("check.<name>", cat="check")`` span, whose duration is
    its ``timings`` entry — the same figure ``pdbbuild``'s trace shows.
    """
    enabled = resolve_selection(select)
    ctx = CheckContext(pdb, entries=entries)
    report = CheckReport()
    for check in all_checks():
        rule_ids = enabled.get(check.name)
        if not rule_ids:
            continue
        with obs.observe(f"check.{check.name}", cat="check") as span:
            found = check.run(ctx)
        report.timings[check.name] = span.dur / 1e6
        report.checks_run.append(check.name)
        for f in found:
            if f.rule.id not in rule_ids:
                continue
            if suppressions is not None and not suppressions(f):
                report.suppressed += 1
                continue
            report.findings.append(f)
    report.findings.sort(key=Finding.sort_key)
    for f in report.findings:
        report.rule_counts[f.rule.id] = report.rule_counts.get(f.rule.id, 0) + 1
    report.rule_counts = dict(sorted(report.rule_counts.items()))
    return report
