"""Call-graph execution simulator — "running" the instrumented program.

The paper ran TAU-instrumented binaries on real hardware; offline, this
simulator interprets the PDB's static call graph under a
:class:`WorkloadSpec` (per-call-site trip counts + a cost model) and
drives the real TAU runtime (:mod:`repro.tau.runtime`).

Two engines produce identical profiles (cross-checked by tests):

* :meth:`ExecutionSimulator.run_traced` — direct recursive
  interpretation, calling ``Profiler.start``/``advance``/``stop`` per
  simulated invocation; also emits trace events.  Each routine is
  linked once per run (its timer, own cost per node and
  ``[(callee, count)]`` list, on first descent), so the cost per
  simulated call is the runtime and trace work alone; the total stays
  proportional to the number of simulated calls.
* :meth:`ExecutionSimulator.run` — closed-form evaluation: each
  routine's subtree effect (span, timer deltas) is computed once per
  node and scaled by trip counts.  Cost: proportional to the size of the
  call graph, so million-iteration workloads are instant.

Both read their call sites from the PDB's program graph
(:attr:`PDB.graph`), resolved once per PDB; what a simulator adds per
run is the spec's trip count for each site and each routine's cost.
Recursive cycles are cut after one level (the recursive call charges its
own cost but does not recurse further), deterministically in both
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ductape.items import PdbRoutine
from repro.ductape.pdb import PDB
from repro.tau.machine import CostModel, uniform_model
from repro.tau.runtime import Profiler, ThreadProfile
from repro.tau.selector import InstrumentationPoint
from repro.tau.tracing import TraceBuffer


@dataclass
class WorkloadSpec:
    """What to execute and how much of it.

    ``pair_counts[(caller, callee)]`` gives the number of times each
    static call site from *caller* to *callee* executes per invocation
    of the caller (think loop trip count); ``callee_counts`` is the
    per-callee fallback; unlisted sites run once.  Names are routine
    full names (``Stack<int>::push``)."""

    entry: str = "main"
    nodes: int = 1
    cost: CostModel = field(default_factory=uniform_model)
    #: (caller full name, call-site file name, call-site line) -> count;
    #: the most precise control (distinguishes multiple sites calling the
    #: same callee, e.g. CG's initial matvec vs the loop-body matvec)
    site_counts: dict[tuple[str, str, int], int] = field(default_factory=dict)
    pair_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    callee_counts: dict[str, int] = field(default_factory=dict)
    default_count: int = 1

    def count(
        self, caller: str, callee: str, site: Optional[tuple[str, int]] = None
    ) -> int:
        if site is not None:
            c = self.site_counts.get((caller, site[0], site[1]))
            if c is not None:
                return c
        c = self.pair_counts.get((caller, callee))
        if c is not None:
            return c
        c = self.callee_counts.get(callee)
        if c is not None:
            return c
        return self.default_count


class TauNaming:
    """Timer naming from instrumentation points.

    A routine's timer comes from the instrumentation point that covers
    it — directly, or through the template it was instantiated from.
    Member-function-template points carry ``CT(*this)``: at "run time"
    the object's type (the routine's parent class instantiation) is
    appended, giving the per-instantiation unique names of paper
    Section 4.1.  Routines without a point are untimed (their cost folds
    into the enclosing timer, as with real TAU)."""

    def __init__(self, points: list[InstrumentationPoint]):
        self._by_ref = {}
        self._by_loc = {}
        for p in points:
            self._by_ref[p.item.ref] = p
            self._by_loc[(p.file_name, p.line, p.column)] = p

    def timer_for(self, r: PdbRoutine) -> Optional[str]:
        p = self._by_ref.get(r.ref)
        if p is None:
            te = r.template()
            if te is not None:
                p = self._by_ref.get(te.ref)
        if p is None:
            # instantiations share the point at their source location
            loc = r.location()
            if loc.known:
                p = self._by_loc.get((loc.file().name(), loc.line(), loc.col()))
        if p is None:
            return None
        name = p.timer_name()
        if p.needs_ct:
            parent = r.parentClass()
            ct = parent.name() if parent is not None else "?"
            name = f"{name} [CT = {ct}]"
        return name


def name_all_defined(r: PdbRoutine) -> Optional[str]:
    """Default naming: every routine with a body gets a timer."""
    if not r.bodyBegin().known:
        return None
    sig = r.signature()
    sig_text = f" {sig.name()}" if sig is not None else ""
    return f"{r.fullName()}{sig_text}"


@dataclass
class _Effect:
    """Closed-form subtree effect of one routine invocation."""

    span: float = 0.0
    timed_top: float = 0.0  # time covered by top-level timers within
    top_starts: int = 0  # top-level timer starts within
    # timer name -> [calls, subrs, inclusive, exclusive]
    deltas: dict[str, list[float]] = field(default_factory=dict)


_UNNAMED = object()


class _Plan:
    """One routine as the traced engine runs it, built once per run.

    ``base`` is its timer name (``_UNNAMED`` until its first execution),
    ``costs[node]`` its own cost on each node, ``calls`` its call sites
    as ``[(callee plan, count)]`` (``None`` until first descent) and
    ``active`` marks it on the current call chain (the recursion cut)."""

    __slots__ = ("routine", "base", "costs", "calls", "active")

    def __init__(self, routine: PdbRoutine, costs: list[float]):
        self.routine = routine
        self.base = _UNNAMED
        self.costs = costs
        self.calls: Optional[list] = None
        self.active = False


class ExecutionSimulator:
    """Interprets a PDB call graph, producing TAU profiles (and traces)."""

    def __init__(
        self,
        pdb: PDB,
        spec: WorkloadSpec,
        namer: Optional[Callable[[PdbRoutine], Optional[str]]] = None,
        group: str = "TAU_DEFAULT",
    ):
        self.pdb = pdb
        self.spec = spec
        self.namer = namer or name_all_defined
        self.group = group
        self._entry = pdb.findRoutine(spec.entry)
        if self._entry is None:
            raise ValueError(f"entry routine {spec.entry!r} not found in PDB")
        self._names: dict = {}
        self._groups: dict[str, str] = {}

    def _timer(self, r: PdbRoutine) -> Optional[str]:
        if r.ref not in self._names:
            named = self.namer(r)
            if isinstance(named, tuple):
                # namer may return (timer name, profile group)
                name, group = named
                self._groups[name] = group
                named = name
            self._names[r.ref] = named
        return self._names[r.ref]

    def _group(self, timer: Optional[str]) -> str:
        if timer is None:
            return self.group
        return self._groups.get(timer, self.group)

    # -- traced engine --------------------------------------------------------

    def run_traced(
        self,
        tracer: Optional[TraceBuffer] = None,
        max_events: int = 2_000_000,
        callpath_depth: int = 1,
    ) -> Profiler:
        """Direct interpretation.  ``callpath_depth > 1`` enables TAU's
        callpath profiling: timers are named by the trailing window of
        the timer stack (``main => solve => dot``), so the same routine
        reached through different paths accumulates separately."""
        if callpath_depth < 1:
            raise ValueError("callpath_depth must be >= 1")
        profiler = Profiler()
        plans: dict = {}
        entry = self._plan(self._entry, plans)
        for node in range(self.spec.nodes):
            prof = profiler.profile(node=node)
            self._walk(entry, plans, node, prof, tracer, max_events, callpath_depth)
            # end-of-run snapshot: anything still on the stack (e.g. a
            # simulated program that never returns from main) is stopped
            # at the final clock so its time is not lost
            prof.stop_all()
        return profiler

    def _plan(self, r: PdbRoutine, plans: dict) -> _Plan:
        plan = plans.get(r)
        if plan is None:
            name, cost = r.fullName(), self.spec.cost.cost
            plan = plans[r] = _Plan(r, [cost(name, node) for node in range(self.spec.nodes)])
        return plan

    def _trips(self, r: PdbRoutine) -> list[tuple[PdbRoutine, int]]:
        """``r``'s call sites as ``[(callee, trip count)]``, in ``rcall``
        order; unresolved callees and sites that run zero times are
        dropped."""
        caller, count = r.fullName(), self.spec.count
        trips = []
        for callee, _virtual, site in self.pdb.graph.calls[r]:
            n = count(caller, callee.fullName(), site)
            if n > 0:
                trips.append((callee, n))
        return trips

    def _link(self, plan: _Plan, plans: dict) -> list:
        plan.calls = [(self._plan(c, plans), n) for c, n in self._trips(plan.routine)]
        return plan.calls

    def _walk(
        self,
        entry: _Plan,
        plans: dict,
        node: int,
        prof: ThreadProfile,
        tracer: Optional[TraceBuffer],
        budget: int,
        depth: int,
    ) -> None:
        """Run ``entry`` on ``node``: at most ``budget`` simulated calls,
        checked before each one."""
        start, stop, advance = prof.start, prof.stop, prof.advance
        groups, default_group = self._groups, self.group
        path: list[str] = []

        def call(plan: _Plan) -> None:
            nonlocal budget
            budget -= 1
            base = plan.base
            if base is _UNNAMED:
                # named on first execution, as a per-call lookup would
                base = plan.base = self._timer(plan.routine)
            if base is not None:
                timer = base if depth == 1 else " => ".join((path + [base])[-depth:])
                start(timer, groups.get(base, default_group))
                if tracer is not None:
                    tracer.enter(node, timer, prof.now)
                path.append(base)
            advance(plan.costs[node])
            if not plan.active:
                calls = plan.calls
                if calls is None:
                    calls = self._link(plan, plans)
                plan.active = True
                for callee, n in calls:
                    for _ in range(n):
                        if budget <= 0:
                            break
                        call(callee)
                plan.active = False
            if base is not None:
                path.pop()
                stop(timer)
                if tracer is not None:
                    tracer.exit(node, timer, prof.now)

        if budget > 0:
            call(entry)

    # -- closed-form engine -------------------------------------------------------

    def run(self) -> Profiler:
        profiler = Profiler()
        for node in range(self.spec.nodes):
            effect, _cut = self._effect_cut(self._entry, node, {}, frozenset())
            prof = profiler.profile(node=node)
            prof.advance(effect.span)
            for name, (calls, subrs, incl, excl) in effect.deltas.items():
                t = prof.timer(name, self._group(name))
                t.calls += int(calls)
                t.subrs += int(subrs)
                t.inclusive += incl
                t.exclusive += excl
            prof.check_consistency()
        return profiler

    def _effect_cut(
        self, r: PdbRoutine, node: int, memo: dict, active: frozenset
    ) -> tuple[_Effect, bool]:
        """Returns (effect, cut): ``cut`` marks that a recursion cut
        happened within, in which case the effect depends on ``active``
        and must not be memoised."""
        cached = memo.get(r)
        if cached is not None:
            return cached, False
        cost = self.spec.cost.cost(r.fullName(), node)
        timer = self._timer(r)
        if r in active:
            # recursion cut: own cost only, no further descent.  The
            # re-activation is nested inside the same timer, so it
            # contributes calls and exclusive time but no inclusive time
            # (matching the runtime's outermost-activation rule).
            e = _Effect(span=cost)
            if timer is not None:
                e.timed_top = cost
                e.top_starts = 1
                e.deltas[timer] = [1, 0, 0, cost]
            return e, True
        child_span = 0.0
        child_timed = 0.0
        child_starts = 0
        any_cut = False
        deltas: dict[str, list[float]] = {}
        for callee, n in self._trips(r):
            ce, cut = self._effect_cut(callee, node, memo, active | {r})
            any_cut = any_cut or cut
            child_span += n * ce.span
            child_timed += n * ce.timed_top
            child_starts += n * ce.top_starts
            for name, d in ce.deltas.items():
                acc = deltas.setdefault(name, [0, 0, 0.0, 0.0])
                acc[0] += n * d[0]
                acc[1] += n * d[1]
                acc[2] += n * d[2]
                acc[3] += n * d[3]
        span = cost + child_span
        e = _Effect(span=span, deltas=deltas)
        if timer is not None:
            own = deltas.setdefault(timer, [0, 0, 0.0, 0.0])
            own[0] += 1
            own[1] += child_starts
            own[2] += span
            own[3] += span - child_timed
            e.timed_top = span
            e.top_starts = 1
        else:
            e.timed_top = child_timed
            e.top_starts = child_starts
        if not any_cut:
            memo[r] = e
        return e, any_cut
