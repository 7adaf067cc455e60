"""The per-call interpreters: the references both TAU engines are held to.

``run_traced`` interprets the call graph the way
``ExecutionSimulator.run_traced`` did before it built per-routine plans:
every simulated call re-resolves the routine's timer, cost and call
sites through the uncached DUCTAPE resolution of
``tests/ductape_oracle.py``.  It makes the same runtime calls and emits
the same trace events in the same order.  ``run`` is the closed-form
engine as it was before it read the PDB's program graph: each visit
re-resolves the routine's call sites.  Both live here as test oracles
only (``tests/test_trace_differential.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.ductape.items import PdbRoutine
from repro.tau.runtime import Profiler, ThreadProfile
from repro.tau.simulate import ExecutionSimulator, _Effect
from repro.tau.tracing import TraceBuffer

from tests.ductape_oracle import call_site, oracle_callees


def run_traced(
    sim: ExecutionSimulator,
    tracer: Optional[TraceBuffer] = None,
    max_events: int = 2_000_000,
    callpath_depth: int = 1,
) -> Profiler:
    """``sim.run_traced``, one DUCTAPE resolution per simulated call."""
    if callpath_depth < 1:
        raise ValueError("callpath_depth must be >= 1")
    profiler = Profiler()
    for node in range(sim.spec.nodes):
        prof = profiler.profile(node=node)
        budget = [max_events]
        _exec(sim, sim._entry, node, prof, tracer, set(), budget, [], callpath_depth)
        prof.stop_all()
    return profiler


def _exec(
    sim: ExecutionSimulator,
    r: PdbRoutine,
    node: int,
    prof: ThreadProfile,
    tracer: Optional[TraceBuffer],
    active: set,
    budget: list[int],
    path: list[str],
    depth: int,
) -> None:
    if budget[0] <= 0:
        return
    budget[0] -= 1
    base = sim._timer(r)
    timer = base
    if base is not None and depth > 1:
        window = (path + [base])[-depth:]
        timer = " => ".join(window)
    if timer is not None:
        prof.start(timer, sim._group(base))
        if tracer is not None:
            tracer.enter(node, timer, prof.now)
        path.append(base)  # type: ignore[arg-type]
    prof.advance(sim.spec.cost.cost(r.fullName(), node))
    if r.ref not in active:
        active.add(r.ref)
        try:
            for call in oracle_callees(r):
                callee = call.call()
                if callee is None:
                    continue
                n = sim.spec.count(r.fullName(), callee.fullName(), call_site(call))
                for _ in range(n):
                    if budget[0] <= 0:
                        break
                    _exec(sim, callee, node, prof, tracer, active, budget, path, depth)
        finally:
            active.discard(r.ref)
    if timer is not None:
        path.pop()
        prof.stop(timer)
        if tracer is not None:
            tracer.exit(node, timer, prof.now)


def run(sim: ExecutionSimulator) -> Profiler:
    """``sim.run``, re-resolving each routine's call sites per visit."""
    profiler = Profiler()
    for node in range(sim.spec.nodes):
        effect, _cut = _effect_cut(sim, sim._entry, node, {}, frozenset())
        prof = profiler.profile(node=node)
        prof.advance(effect.span)
        for name, (calls, subrs, incl, excl) in effect.deltas.items():
            t = prof.timer(name, sim._group(name))
            t.calls += int(calls)
            t.subrs += int(subrs)
            t.inclusive += incl
            t.exclusive += excl
        prof.check_consistency()
    return profiler


def _effect_cut(
    sim: ExecutionSimulator, r: PdbRoutine, node: int, memo: dict, active: frozenset
) -> tuple[_Effect, bool]:
    key = r.ref
    cached = memo.get(key)
    if cached is not None:
        return cached, False
    cost = sim.spec.cost.cost(r.fullName(), node)
    timer = sim._timer(r)
    if key in active:
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
    for call in oracle_callees(r):
        callee = call.call()
        if callee is None:
            continue
        n = sim.spec.count(r.fullName(), callee.fullName(), call_site(call))
        if n <= 0:
            continue
        ce, cut = _effect_cut(sim, callee, node, memo, active | {key})
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
        memo[key] = e
    return e, any_cut
