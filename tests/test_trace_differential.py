"""Differential test: the traced engine against the per-call interpreter.

Random call graphs, built as PDB documents from tight name, file and
line pools: recursion cycles and self-calls, duplicate routine names,
calls that do not resolve, routines without bodies, members of classes
and instantiations of function and member-function templates.  Random
workloads over them: zero, negative and large trip counts at every
level of :class:`WorkloadSpec` (per site, per pair, per callee and the
default), cost rules with ``linear_skew`` across several nodes, call
budgets small enough to truncate inside a call-site loop, and trace
buffers small enough to drop events (or no buffer at all).  Timers come
from the default namer, from ``TauNaming`` (``CT(*this)`` points
included) or from a namer returning ``(name, group)`` tuples whose names
collide across routines with different groups.

``ExecutionSimulator.run_traced`` must give the oracle's
per-(n,c,t) :class:`TimerStats` (in creation order), clock and stack
depth, and the same :class:`TraceBuffer` events and ``dropped`` count;
``ExecutionSimulator.run`` must give the closed-form oracle's.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ductape.pdb import PDB
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.tau.machine import CostModel, CostRule, linear_skew
from repro.tau.selector import select_instrumentation
from repro.tau.simulate import ExecutionSimulator, TauNaming, WorkloadSpec
from repro.tau.tracing import TraceBuffer

from tests.tau_oracle import run as oracle_run
from tests.tau_oracle import run_traced as oracle_run_traced

FILES = ("a.h", "b.cpp")
ROUTINE_NAMES = ("main", "f", "g", "get")
CLASS_NAMES = ("Box<int>", "Box<double>", "W")
TEMPLATE_KINDS = ("memfunc", "func", "statmem", "class")
COUNTS = (0, 0, 1, 1, 2, 3, 7, 1000, -1)
PATTERNS = ("^f", "get", "Box<", "main$", "W::")


@st.composite
def call_graphs(draw) -> PDB:
    doc = PdbDocument()

    def loc() -> list:
        if draw(st.integers(0, 5)) == 5:
            return ["NULL", 0, 0]
        return [f"so#{draw(st.integers(1, len(FILES)))}", draw(st.integers(1, 4)), 1]

    for i, name in enumerate(FILES, 1):
        doc.add(RawItem("so", i, name)).add("skind", "source")
    n_classes = draw(st.integers(0, len(CLASS_NAMES)))
    for i in range(1, n_classes + 1):
        doc.add(RawItem("cl", i, CLASS_NAMES[i - 1])).add("ckind", "class")
    n_templates = draw(st.integers(0, 3))
    for i in range(1, n_templates + 1):
        te = doc.add(RawItem("te", i, draw(st.sampled_from(("Box", "sum")))))
        te.add("tloc", *loc())
        te.add("tkind", draw(st.sampled_from(TEMPLATE_KINDS)))
    n_routines = draw(st.integers(1, 7))
    routines = []
    for i in range(1, n_routines + 1):
        ro = doc.add(RawItem("ro", i, draw(st.sampled_from(ROUTINE_NAMES))))
        ro.add("rloc", *loc())
        if n_classes and draw(st.booleans()):
            ro.add("rclass", f"cl#{draw(st.integers(1, n_classes))}")
        if n_templates and draw(st.booleans()):
            ro.add("rtempl", f"te#{draw(st.integers(1, n_templates))}")
        if draw(st.integers(0, 5)) != 5:
            begin = loc()
            ro.add("rpos", *begin, *begin, *begin, *begin)
        routines.append(ro)
    for ro in routines:
        for _ in range(draw(st.integers(0, 4))):
            # ro#0 never resolves: a call into code outside the database
            callee = f"ro#{draw(st.integers(0, n_routines))}"
            virt = draw(st.sampled_from(("no", "virt")))
            ro.add("rcall", callee, virt, *loc())
    return PDB(doc)


@st.composite
def cases(draw):
    pdb = draw(call_graphs())
    routines = pdb.getRoutineVec()
    full_names = sorted({r.fullName() for r in routines})
    names = sorted(set(full_names) | {r.name() for r in routines})

    def counts(keys) -> dict:
        return draw(st.dictionaries(keys, st.sampled_from(COUNTS), max_size=4))

    sites = st.tuples(
        st.sampled_from(full_names), st.sampled_from(FILES), st.integers(1, 4)
    )
    nodes = draw(st.integers(1, 3))
    cost = CostModel(
        rules=[
            CostRule(draw(st.sampled_from(PATTERNS)), draw(st.sampled_from((0.0, 0.5, 3.0, 25.0))))
            for _ in range(draw(st.integers(0, 2)))
        ],
        default_cycles=draw(st.sampled_from((0.0, 1.0, 4.0, 10.0))),
        node_skew=linear_skew(nodes, draw(st.sampled_from((0.0, 0.2, 0.9)))),
    )
    spec = WorkloadSpec(
        entry=draw(st.sampled_from(names)),
        nodes=nodes,
        cost=cost,
        site_counts=counts(sites),
        pair_counts=counts(st.tuples(st.sampled_from(full_names), st.sampled_from(full_names))),
        callee_counts=counts(st.sampled_from(full_names)),
        default_count=draw(st.sampled_from((0, 1, 1, 2, 3))),
    )
    naming = draw(st.sampled_from(("all", "tau", "tuples")))
    if naming == "all":
        namer = None
    elif naming == "tau":
        namer = TauNaming(select_instrumentation(pdb)).timer_for
    else:
        # colliding timer names with per-routine groups: the group a
        # timer is created with depends on which routine ran first
        table = {
            r.ref: draw(
                st.one_of(
                    st.none(),
                    st.tuples(st.sampled_from(("T0", "T1")), st.sampled_from(("G1", "G2"))),
                )
            )
            for r in routines
        }

        def namer(r):
            return table[r.ref]

    run = dict(
        max_events=draw(st.one_of(st.integers(1, 80), st.just(3000), st.just(3000))),
        callpath_depth=draw(st.integers(1, 3)),
    )
    # None runs without a trace buffer
    buffer_size = draw(st.one_of(st.none(), st.integers(0, 40), st.just(5_000_000)))
    group = draw(st.sampled_from(("TAU_DEFAULT", "TAU_USER")))
    return pdb, spec, namer, group, run, buffer_size


def _snapshot(profiler) -> dict:
    return {
        key: (list(p.timers.items()), p.now, p.depth)
        for key, p in profiler.profiles.items()
    }


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_traced_engine_matches_per_call_oracle(case):
    pdb, spec, namer, group, run, buffer_size = case

    def buffer():
        return None if buffer_size is None else TraceBuffer(max_events=buffer_size)

    want_trace, got_trace = buffer(), buffer()
    want = oracle_run_traced(
        ExecutionSimulator(pdb, spec, namer=namer, group=group), tracer=want_trace, **run
    )
    got = ExecutionSimulator(pdb, spec, namer=namer, group=group).run_traced(
        tracer=got_trace, **run
    )
    assert _snapshot(got) == _snapshot(want)
    if want_trace is not None:
        assert got_trace.events == want_trace.events
        assert got_trace.dropped == want_trace.dropped


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_closed_form_engine_matches_per_call_oracle(case):
    """``run`` reads its call sites from the program graph; per timer and
    node it must give the per-visit resolution's exact stats, or fail the
    same profile consistency check (colliding timer names can)."""
    pdb, spec, namer, group, _run, _buffer_size = case

    def outcome(run) -> object:
        try:
            return _snapshot(run(ExecutionSimulator(pdb, spec, namer=namer, group=group)))
        except AssertionError as e:
            return str(e)

    assert outcome(ExecutionSimulator.run) == outcome(oracle_run)


def test_one_simulator_runs_twice_like_the_oracle():
    """Plans live for one run: a second run on the same simulator sees
    the same graph and the same naming cache as the oracle does."""
    doc = PdbDocument()
    doc.add(RawItem("so", 1, "a.cpp")).add("skind", "source")
    for i, name in enumerate(("main", "f", "g"), 1):
        ro = doc.add(RawItem("ro", i, name))
        ro.add("rloc", "so#1", i, 1)
        ro.add("rpos", *["so#1", i, 1] * 4)
    main, f, g = doc.items[1:]
    main.add("rcall", "ro#2", "no", "so#1", 1, 5)
    main.add("rcall", "ro#3", "no", "so#1", 1, 9)
    f.add("rcall", "ro#1", "no", "so#1", 2, 5)
    g.add("rcall", "ro#3", "no", "so#1", 3, 5)
    pdb = PDB(doc)
    spec = WorkloadSpec(nodes=2, pair_counts={("main", "g"): 3})
    sim, ref = ExecutionSimulator(pdb, spec), ExecutionSimulator(pdb, spec)
    for depth in (1, 2, 1):
        got, want = TraceBuffer(), TraceBuffer()
        assert _snapshot(sim.run_traced(got, callpath_depth=depth)) == _snapshot(
            oracle_run_traced(ref, want, callpath_depth=depth)
        )
        assert got.events == want.events and len(got) > 0
