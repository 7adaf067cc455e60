"""The per-call interpreter: the reference the traced engine is held to.

``run_traced`` interprets the call graph the way
``ExecutionSimulator.run_traced`` did before it built per-routine plans:
every simulated call re-resolves the routine's timer, cost and call
sites through DUCTAPE.  It makes the same runtime calls and emits the
same trace events in the same order, so it lives here as a test oracle
only (``tests/test_trace_differential.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.ductape.items import PdbRoutine
from repro.tau.runtime import Profiler, ThreadProfile
from repro.tau.simulate import ExecutionSimulator, _site_of
from repro.tau.tracing import TraceBuffer


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
            for call in r.callees():
                callee = call.call()
                if callee is None:
                    continue
                n = sim.spec.count(r.fullName(), callee.fullName(), _site_of(call))
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
