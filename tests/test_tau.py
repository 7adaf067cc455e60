"""TAU tests: selection (Figure 6), instrumentation, runtime, simulation."""

import pytest

from repro.analyzer import analyze
from repro.cpp import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.tau.instrumentor import TAU_H, instrument_file, instrument_sources
from repro.tau.machine import CostModel, linear_skew, uniform_model
from repro.tau.profile import exclusive_ranking, format_mean_profile, format_profile
from repro.tau.runtime import Profiler, ThreadProfile
from repro.tau.selector import select_instrumentation
from repro.tau.simulate import ExecutionSimulator, TauNaming, WorkloadSpec
from repro.tau.tracing import TraceBuffer, format_trace, merge_traces
from repro.workloads.stack import compile_stack
from tests.util import compile_source


@pytest.fixture(scope="module")
def stack_pdb():
    return PDB(analyze(compile_stack()))


class TestSelector:
    """Figure 6's selection logic."""

    SRC = (
        "template <class T> class Holder {\n"
        "public:\n"
        "    T fetch() const;\n"
        "    static int census();\n"
        "};\n"
        "template <class T> T Holder<T>::fetch() const { return 0; }\n"
        "template <class T> int Holder<T>::census() { return 0; }\n"
        "template <class T> T clamp(T v) { return v; }\n"
        "int plain() { return 1; }\n"
        "int main() { Holder<int> h; h.fetch(); Holder<int>::census(); clamp(2); return plain(); }\n"
    )

    def pdb(self):
        return PDB(analyze(compile_source(self.SRC)))

    def test_memfunc_template_gets_ct(self):
        points = select_instrumentation(self.pdb())
        fetch = next(p for p in points if "fetch" in p.timer_name())
        assert fetch.needs_ct
        assert fetch.type_argument() == "CT(*this)"

    def test_statmem_template_no_ct(self):
        points = select_instrumentation(self.pdb())
        census = next(p for p in points if "census" in p.timer_name())
        assert not census.needs_ct

    def test_func_template_no_ct(self):
        points = select_instrumentation(self.pdb())
        clamp = next(p for p in points if "clamp" in p.timer_name())
        assert not clamp.needs_ct

    def test_plain_routine_static_name(self):
        points = select_instrumentation(self.pdb())
        plain = next(p for p in points if "plain" in p.timer_name())
        assert not plain.needs_ct

    def test_class_template_itself_not_selected(self):
        points = select_instrumentation(self.pdb())
        from repro.ductape.items import PdbTemplate

        for p in points:
            if isinstance(p.item, PdbTemplate):
                assert p.item.kind() != PdbTemplate.TE_CLASS

    def test_sorted_by_location(self):
        points = select_instrumentation(self.pdb())
        keys = [(p.file_name, p.line, p.column) for p in points]
        assert keys == sorted(keys)

    def test_one_point_per_source_location(self, stack_pdb):
        points = select_instrumentation(stack_pdb)
        keys = [(p.file_name, p.line, p.column) for p in points]
        assert len(keys) == len(set(keys))

    def test_file_filter(self, stack_pdb):
        points = select_instrumentation(stack_pdb, file="StackAr.cpp")
        assert points
        assert all(p.file_name == "StackAr.cpp" for p in points)

    def test_inline_class_template_members_get_ct(self, stack_pdb):
        points = select_instrumentation(stack_pdb, file="/pdt/include/kai/vector.h")
        sizes = [p for p in points if p.timer_name().startswith("vector::size")]
        assert sizes and sizes[0].needs_ct


def _load(rel_path: str, module_name: str):
    """Import a repository file outside the ``tests`` package."""
    import importlib.util
    import os
    import sys

    path = os.path.join(os.path.dirname(__file__), "..", rel_path)
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def _fig6_corpus(tmp_path):
    src = _load("benchmarks/test_e5_tau_selection.py", "e5_tau_selection").FIG6_SRC
    return PDB(analyze(compile_source(src))), {"main.cpp": src}, ""


def _stack_corpus(tmp_path):
    from repro.workloads.stack import stack_files

    return PDB(analyze(compile_stack())), dict(stack_files()), ""


def _analyze_corpus(tmp_path):
    """A small corpus from the benchmark's generator, built by pdbbuild."""
    import os

    from repro.tools import pdbbuild

    gen = _load("perfbench/corpus.py", "perfbench_corpus")
    corpus = gen.generate(1, gen.CorpusSpec(n_tus=3, n_headers=3, headers_per_tu=2))
    corpus.write(str(tmp_path))
    options = pdbbuild.BuildOptions(
        include_paths=tuple(str(tmp_path / d) for d in corpus.include_dirs)
    )
    pdb, _ = pdbbuild.build([str(tmp_path / s) for s in corpus.sources], options)
    sources = {}
    for f in pdb.getFileVec():
        if not f.isSystem():
            with open(f.name()) as fh:
                sources[f.name()] = fh.read()
    return pdb, sources, str(tmp_path) + os.sep


class TestInstrumentor:
    @pytest.mark.parametrize(
        "make, want",
        [
            (_fig6_corpus, "c96b5620744c7f72a616a57ab03fcfdf6770bdd8f12f821ee17bf8969ebc046b"),
            (_stack_corpus, "0b72d747697c22290c28ff81e4b1cbe361a58f6f791a8f3e57f84c931a040514"),
            (_analyze_corpus, "faf42ca0a4e0544f30389c02d2cf4c21a27f7a0c938b18ced22d4caba21e1162"),
        ],
        ids=["e5-fig6", "e5-stack", "analyze-corpus"],
    )
    def test_rewrite_bytes_unchanged(self, make, want, tmp_path):
        """One selection pass bucketed by file rewrites every file to the
        bytes a per-file selection gives, and to the pinned digest of
        those bytes (file names relative to the corpus root)."""
        import hashlib

        pdb, sources, root = make(tmp_path)
        got = instrument_sources(pdb, sources)
        digest = hashlib.sha256()
        for name in sorted(got):
            per_file = instrument_file(
                name, sources[name], select_instrumentation(pdb, file=name)
            )
            assert got[name].text == per_file.text
            assert got[name].insertions == per_file.insertions
            rel = name[len(root):] if name.startswith(root) else name
            digest.update(rel.encode() + b"\0" + got[name].text.encode() + b"\0")
        assert any(r.insertions for r in got.values())
        assert digest.hexdigest() == want

    def test_macro_inserted_after_brace(self, stack_pdb):
        from repro.workloads.stack import STACKAR_CPP

        points = select_instrumentation(stack_pdb, file="StackAr.cpp")
        res = instrument_file("StackAr.cpp", STACKAR_CPP, points)
        assert res.insertions
        for line in res.text.splitlines():
            if "TAU_PROFILE(" in line and "define" not in line:
                brace = line.index("{")
                macro = line.index("TAU_PROFILE(")
                assert macro > brace

    def test_ct_only_on_members(self, stack_pdb):
        from repro.workloads.stack import STACKAR_CPP

        points = select_instrumentation(stack_pdb, file="StackAr.cpp")
        res = instrument_file("StackAr.cpp", STACKAR_CPP, points)
        assert 'CT(*this)' in res.text

    def test_include_added_once(self, stack_pdb):
        from repro.workloads.stack import STACKAR_CPP

        points = select_instrumentation(stack_pdb, file="StackAr.cpp")
        res = instrument_file("StackAr.cpp", STACKAR_CPP, points)
        assert res.text.count('#include "TAU.h"') == 1

    def test_untouched_file_without_points(self, stack_pdb):
        res = instrument_file("nofile.cpp", "int x;\n", [])
        assert res.text == "int x;\n"

    def test_instrumented_sources_reparse(self):
        """E5's round trip: the rewritten corpus compiles again."""
        from repro.workloads.stack import stack_files
        from repro.workloads.stl import KAI_INCLUDE_DIR

        tree = compile_stack()
        pdb = PDB(analyze(tree))
        sources = dict(stack_files())
        results = instrument_sources(pdb, sources)
        rewritten = {name: r.text for name, r in results.items()}
        rewritten["TAU.h"] = TAU_H
        fe = Frontend(FrontendOptions(include_paths=[KAI_INCLUDE_DIR]))
        fe.register_files(rewritten)
        tree2 = fe.compile("TestStackAr.cpp")
        assert tree2.find_routine("main") is not None
        # instrumentation must not change the extracted call graph
        main1 = {c.callee.full_name for c in tree.find_routine("main").calls}
        main2 = {c.callee.full_name for c in tree2.find_routine("main").calls}
        assert main1 == main2

    def test_ctor_initialiser_insertion_lands_in_body(self, stack_pdb):
        from repro.workloads.stack import STACKAR_CPP

        points = select_instrumentation(stack_pdb, file="StackAr.cpp")
        res = instrument_file("StackAr.cpp", STACKAR_CPP, points)
        ctor_line = next(
            l for l in res.text.splitlines() if "Stack<Object>::Stack" in l
        )
        assert ctor_line.index(":") < ctor_line.index("TAU_PROFILE")


class TestRuntime:
    def test_basic_timer(self):
        p = ThreadProfile()
        p.start("a")
        p.advance(10)
        p.stop("a")
        t = p.timers["a"]
        assert t.calls == 1
        assert t.inclusive == 10 and t.exclusive == 10

    def test_nested_exclusive(self):
        p = ThreadProfile()
        p.start("outer")
        p.advance(5)
        p.start("inner")
        p.advance(7)
        p.stop("inner")
        p.advance(3)
        p.stop("outer")
        assert p.timers["outer"].inclusive == 15
        assert p.timers["outer"].exclusive == 8
        assert p.timers["inner"].exclusive == 7
        assert p.timers["outer"].subrs == 1

    def test_recursion_same_timer(self):
        p = ThreadProfile()
        p.start("f")
        p.advance(1)
        p.start("f")
        p.advance(1)
        p.stop("f")
        p.stop("f")
        t = p.timers["f"]
        assert t.calls == 2
        assert t.exclusive == 2

    def test_stop_mismatch_raises(self):
        p = ThreadProfile()
        p.start("a")
        with pytest.raises(RuntimeError, match="mismatch"):
            p.stop("b")

    def test_stop_mismatch_keeps_the_stack(self):
        p = ThreadProfile()
        p.start("f")
        p.advance(1)
        p.start("g")
        p.advance(2)
        p.start("f")  # recursive re-activation
        p.advance(4)
        with pytest.raises(RuntimeError, match="mismatch"):
            p.stop("g")
        assert p.depth == 3 and p.top().name == "f"
        p.stop("f")
        p.advance(8)
        p.stop("g")
        p.stop("f")
        f, g = p.timers["f"], p.timers["g"]
        assert (f.inclusive, f.exclusive) == (15, 5)
        assert (g.inclusive, g.exclusive) == (14, 10)
        # no activation left behind: the next "f" is outermost again
        p.start("f")
        p.advance(2)
        p.stop("f")
        assert (f.inclusive, f.exclusive) == (17, 7)

    def test_underflow_raises(self):
        with pytest.raises(RuntimeError, match="underflow"):
            ThreadProfile().stop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ThreadProfile().advance(-1)

    def test_consistency_check(self):
        p = ThreadProfile()
        p.start("a")
        p.advance(2)
        p.stop()
        p.check_consistency()

    def test_profiler_nct(self):
        prof = Profiler()
        prof.profile(node=0).advance(1)
        prof.profile(node=3).advance(2)
        assert prof.nodes() == [0, 3]

    def test_mean_stats(self):
        prof = Profiler()
        for node, cost in ((0, 10), (1, 30)):
            p = prof.profile(node=node)
            p.start("k")
            p.advance(cost)
            p.stop()
        mean = prof.mean_stats()["k"]
        assert mean.inclusive == 20
        assert mean.calls == 1

    def test_total_stats(self):
        prof = Profiler()
        for node in (0, 1):
            p = prof.profile(node=node)
            p.start("k")
            p.advance(5)
            p.stop()
        assert prof.total_stats()["k"].inclusive == 10

    def test_mean_calls_fractional(self):
        # one call on node 0, none on node 1: the mean over 2 profiles
        # is 0.5 calls, not 0 (the old integer division dropped it)
        prof = Profiler()
        p = prof.profile(node=0)
        p.start("rare")
        p.advance(4)
        p.stop()
        prof.profile(node=1).advance(4)
        mean = prof.mean_stats()["rare"]
        assert mean.calls == pytest.approx(0.5)
        assert mean.inclusive == pytest.approx(2.0)

    def test_mean_subrs_fractional(self):
        prof = Profiler()
        p = prof.profile(node=0)
        p.start("outer")
        p.start("inner")
        p.stop()
        p.stop()
        prof.profile(node=1).advance(0)
        assert prof.mean_stats()["outer"].subrs == pytest.approx(0.5)

    def test_mean_and_total_group_first_seen(self):
        # nodes disagree on a timer's group (e.g. re-instrumented build):
        # the aggregate must deterministically keep the first-seen
        # (lowest node) group, not whichever profile iterated last
        prof = Profiler()
        for node, group in ((1, "TAU_USER"), (0, "CT"), (2, "TAU_DEFAULT")):
            p = prof.profile(node=node)
            p.start("f", group)
            p.advance(1)
            p.stop()
        assert prof.mean_stats()["f"].group == "CT"
        assert prof.total_stats()["f"].group == "CT"

    def test_stop_all_unwinds_dangling(self):
        p = ThreadProfile()
        p.start("main")
        p.advance(5)
        p.start("leaf")
        p.advance(3)
        p.stop_all()
        assert p.depth == 0
        assert p.timers["main"].inclusive == 8
        assert p.timers["main"].exclusive == 5
        assert p.timers["leaf"].inclusive == 3
        p.check_consistency()

    def test_profiler_stop_all(self):
        prof = Profiler()
        for node in (0, 1):
            p = prof.profile(node=node)
            p.start("k")
            p.advance(2)
        prof.stop_all()
        assert all(p.depth == 0 for p in prof.profiles.values())
        assert prof.total_stats()["k"].inclusive == 4

    def test_snapshot_timers_counts_running(self):
        p = ThreadProfile()
        p.start("outer")
        p.advance(5)
        p.start("inner")
        p.advance(3)
        snap = p.snapshot_timers()
        assert snap["outer"].inclusive == 8
        assert snap["outer"].exclusive == 5
        assert snap["inner"].inclusive == 3
        # non-mutating: the live table still shows no completed time
        assert p.timers["outer"].inclusive == 0
        assert p.depth == 2
        # and matches what stop_all would have recorded
        p.stop_all()
        assert p.timers["outer"].inclusive == snap["outer"].inclusive
        assert p.timers["inner"].exclusive == snap["inner"].exclusive

    def test_snapshot_timers_recursive_outermost(self):
        # only the outermost activation of a recursive timer may add
        # inclusive time in the snapshot
        p = ThreadProfile()
        p.start("f")
        p.advance(2)
        p.start("f")
        p.advance(3)
        snap = p.snapshot_timers()
        assert snap["f"].inclusive == 5
        assert snap["f"].exclusive == 5
        p.check_consistency()


class TestCostModel:
    def test_rule_matching(self):
        cm = CostModel(default_cycles=1.0)
        cm.add(r"apply", 100.0).add(r"dot", 40.0)
        assert cm.cost("StencilMatrix<double>::apply") == 100.0
        assert cm.cost("pooma::dot") == 40.0
        assert cm.cost("other") == 1.0

    def test_first_rule_wins(self):
        cm = CostModel().add("f", 5.0).add("foo", 9.0)
        assert cm.cost("foo") == 5.0

    def test_node_skew(self):
        cm = CostModel(default_cycles=10.0, node_skew=[1.0, 2.0])
        assert cm.cost("x", node=0) == 10.0
        assert cm.cost("x", node=1) == 20.0

    def test_linear_skew_bounds(self):
        skew = linear_skew(5, spread=0.2)
        assert len(skew) == 5
        assert abs(min(skew) - 0.9) < 1e-9
        assert abs(max(skew) - 1.1) < 1e-9


class TestSimulator:
    SRC = (
        "int leaf() { return 1; }\n"
        "int mid() { return leaf() + leaf(); }\n"
        "int main() { return mid(); }\n"
    )

    def pdb(self):
        return PDB(analyze(compile_source(self.SRC)))

    def test_call_counts(self):
        sim = ExecutionSimulator(self.pdb(), WorkloadSpec(cost=uniform_model(1.0)))
        prof = sim.run().profile(0)
        by_name = {k.split(" ")[0]: v for k, v in prof.timers.items()}
        assert by_name["main"].calls == 1
        assert by_name["mid"].calls == 1
        assert by_name["leaf"].calls == 2

    def test_multiplicities(self):
        spec = WorkloadSpec(
            cost=uniform_model(1.0), pair_counts={("main", "mid"): 10}
        )
        prof = ExecutionSimulator(self.pdb(), spec).run().profile(0)
        by_name = {k.split(" ")[0]: v for k, v in prof.timers.items()}
        assert by_name["mid"].calls == 10
        assert by_name["leaf"].calls == 20

    def test_inclusive_exclusive(self):
        prof = (
            ExecutionSimulator(self.pdb(), WorkloadSpec(cost=uniform_model(1.0)))
            .run()
            .profile(0)
        )
        by_name = {k.split(" ")[0]: v for k, v in prof.timers.items()}
        assert by_name["main"].inclusive == 4  # 1 + 1 + 2*1
        assert by_name["main"].exclusive == 1
        assert by_name["mid"].inclusive == 3

    def test_engines_agree(self):
        pdb = self.pdb()
        spec = WorkloadSpec(
            cost=uniform_model(3.0), pair_counts={("mid", "leaf"): 4}
        )
        sim = ExecutionSimulator(pdb, spec)
        fast = sim.run().profile(0)
        traced = sim.run_traced().profile(0)
        assert set(fast.timers) == set(traced.timers)
        for name in fast.timers:
            f, t = fast.timers[name], traced.timers[name]
            assert f.calls == t.calls
            assert abs(f.inclusive - t.inclusive) < 1e-9
            assert abs(f.exclusive - t.exclusive) < 1e-9
            assert f.subrs == t.subrs

    def test_engines_agree_on_recursion(self):
        src = (
            "int rec(int n) { return rec(n - 1); }\n"
            "int main() { return rec(5); }\n"
        )
        pdb = PDB(analyze(compile_source(src)))
        sim = ExecutionSimulator(pdb, WorkloadSpec(cost=uniform_model(1.0)))
        fast = sim.run().profile(0)
        traced = sim.run_traced().profile(0)
        for name in fast.timers:
            assert fast.timers[name].calls == traced.timers[name].calls
            assert abs(fast.timers[name].inclusive - traced.timers[name].inclusive) < 1e-9

    def test_multi_node(self):
        spec = WorkloadSpec(
            nodes=3,
            cost=CostModel(default_cycles=10.0, node_skew=[1.0, 2.0, 3.0]),
        )
        profiler = ExecutionSimulator(self.pdb(), spec).run()
        times = [profiler.profile(n).total_time() for n in range(3)]
        assert times[0] < times[1] < times[2]

    def test_missing_entry_raises(self):
        with pytest.raises(ValueError, match="entry routine"):
            ExecutionSimulator(self.pdb(), WorkloadSpec(entry="nonexistent"))

    def test_consistency_invariants(self):
        prof = ExecutionSimulator(self.pdb(), WorkloadSpec()).run().profile(0)
        prof.check_consistency()

    def test_untimed_routines_fold_into_caller(self):
        pdb = self.pdb()

        def namer(r):
            if r.name() == "mid":
                return None  # mid is uninstrumented
            return r.name()

        prof = ExecutionSimulator(
            pdb, WorkloadSpec(cost=uniform_model(1.0)), namer=namer
        ).run().profile(0)
        assert "mid" not in prof.timers
        # mid's own cost lands in main's exclusive
        assert prof.timers["main"].exclusive == 2
        assert prof.timers["leaf"].calls == 2

    def test_tau_naming_ct_uniqueness(self):
        """Section 4.1: unique per-instantiation timer names via CT."""
        src = (
            "template <class T> class Box { public: T get() { return 0; } };\n"
            "int main() { Box<int> a; Box<double> b; a.get(); b.get(); return 0; }\n"
        )
        pdb = PDB(analyze(compile_source(src)))
        points = select_instrumentation(pdb)
        naming = TauNaming(points)
        gets = [r for r in pdb.getRoutineVec() if r.name() == "get"]
        names = {naming.timer_for(r) for r in gets}
        assert len(names) == 2
        assert any("[CT = Box<int>]" in n for n in names)
        assert any("[CT = Box<double>]" in n for n in names)


class TestTracing:
    def make_trace(self):
        src = "int leaf() { return 1; }\nint main() { return leaf(); }\n"
        pdb = PDB(analyze(compile_source(src)))
        sim = ExecutionSimulator(pdb, WorkloadSpec(cost=uniform_model(2.0), nodes=2))
        tb = TraceBuffer()
        sim.run_traced(tb)
        return tb

    def test_events_emitted(self):
        tb = self.make_trace()
        assert len(tb) == 8  # 2 nodes * 2 routines * enter+exit

    def test_nesting_validates(self):
        self.make_trace().validate_nesting()

    def test_merged_order_monotone(self):
        tb = self.make_trace()
        merged = list(merge_traces(tb))
        stamps = [e.timestamp for e in merged]
        assert stamps == sorted(stamps)

    def test_format(self):
        out = format_trace(self.make_trace())
        assert "enter" in out and "exit" in out

    def test_event_cap(self):
        tb = TraceBuffer(max_events=2)
        tb.enter(0, "a", 0.0)
        tb.enter(0, "b", 1.0)
        tb.exit(0, "b", 2.0)
        assert len(tb) == 2 and tb.dropped == 1


class TestProfileDisplay:
    def test_format_profile(self):
        src = "int leaf() { return 1; }\nint main() { return leaf(); }\n"
        pdb = PDB(analyze(compile_source(src)))
        prof = ExecutionSimulator(pdb, WorkloadSpec(cost=uniform_model(1000.0))).run()
        out = format_profile(prof, node=0)
        assert "%Time" in out and "Exclusive" in out and "#Call" in out
        assert "main" in out and "leaf" in out
        assert "NODE 0;CONTEXT 0;THREAD 0:" in out

    def test_mean_profile_header(self):
        src = "int main() { return 0; }\n"
        pdb = PDB(analyze(compile_source(src)))
        prof = ExecutionSimulator(pdb, WorkloadSpec(nodes=4)).run()
        out = format_mean_profile(prof)
        assert "mean over 4 nodes" in out

    def test_exclusive_ranking(self):
        src = (
            "int hot() { return 1; }\nint cold() { return 2; }\n"
            "int main() { return hot() + cold(); }\n"
        )
        pdb = PDB(analyze(compile_source(src)))
        cm = CostModel(default_cycles=1.0).add("hot", 500.0)
        prof = ExecutionSimulator(pdb, WorkloadSpec(cost=cm)).run()
        ranking = exclusive_ranking(prof)
        assert ranking[0][0].startswith("hot")


class TestCallpathProfiling:
    """TAU callpath mode: timers keyed by the trailing call-stack window."""

    SRC = (
        "int leaf() { return 1; }\n"
        "int left() { return leaf(); }\n"
        "int right() { return leaf(); }\n"
        "int main() { return left() + right(); }\n"
    )

    def profiler(self, depth):
        pdb = PDB(analyze(compile_source(self.SRC)))
        sim = ExecutionSimulator(pdb, WorkloadSpec(cost=uniform_model(4.0)))
        return sim.run_traced(callpath_depth=depth)

    def test_flat_mode_merges_paths(self):
        prof = self.profiler(1).profile(0)
        leaf = next(t for n, t in prof.timers.items() if n.startswith("leaf"))
        assert leaf.calls == 2

    def test_callpath_separates_paths(self):
        prof = self.profiler(2).profile(0)
        paths = sorted(n for n in prof.timers if "leaf" in n)
        assert len(paths) == 2
        assert any("left" in p and "=>" in p for p in paths)
        assert any("right" in p and "=>" in p for p in paths)
        for p in paths:
            assert prof.timers[p].calls == 1

    def test_callpath_times_sum_to_flat(self):
        flat = self.profiler(1).profile(0)
        deep = self.profiler(2).profile(0)
        flat_leaf = next(t for n, t in flat.timers.items() if n.startswith("leaf"))
        deep_leaf_total = sum(
            t.exclusive for n, t in deep.timers.items() if "leaf" in n
        )
        assert abs(flat_leaf.exclusive - deep_leaf_total) < 1e-9

    def test_callpath_consistency(self):
        prof = self.profiler(3).profile(0)
        prof.check_consistency()

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            self.profiler(0)


class TestProfileFiles:
    """TAU's on-disk profile.n.c.t format round trip."""

    def make_profiler(self):
        src = (
            "int leaf() { return 1; }\nint mid() { return leaf(); }\n"
            "int main() { return mid(); }\n"
        )
        pdb = PDB(analyze(compile_source(src)))
        spec = WorkloadSpec(nodes=3, cost=uniform_model(7.0))
        return ExecutionSimulator(pdb, spec).run()

    def test_write_one_file_per_node(self, tmp_path):
        from repro.tau.profiledata import write_profiles

        profiler = self.make_profiler()
        written = write_profiles(profiler, str(tmp_path))
        assert written == ["profile.0.0.0", "profile.1.0.0", "profile.2.0.0"]

    def test_file_format_shape(self, tmp_path):
        from repro.tau.profiledata import write_profiles

        profiler = self.make_profiler()
        write_profiles(profiler, str(tmp_path))
        text = (tmp_path / "profile.0.0.0").read_text()
        lines = text.splitlines()
        assert lines[0] == "3 templated_functions"
        assert lines[1].startswith("# Name Calls Subrs")
        assert lines[-1] == "0 aggregates"
        assert 'GROUP="TAU_DEFAULT"' in lines[2]

    def test_round_trip(self, tmp_path):
        from repro.tau.profiledata import read_profiles, write_profiles

        profiler = self.make_profiler()
        write_profiles(profiler, str(tmp_path))
        loaded = read_profiles(str(tmp_path))
        assert set(loaded.profiles) == set(profiler.profiles)
        for key, orig in profiler.profiles.items():
            back = loaded.profiles[key].timers
            for name, t in orig.timers.items():
                assert back[name].calls == t.calls
                assert abs(back[name].inclusive - t.inclusive) < 1e-6
                assert abs(back[name].exclusive - t.exclusive) < 1e-6

    def test_loaded_profiles_display(self, tmp_path):
        from repro.tau.profiledata import read_profiles, write_profiles

        write_profiles(self.make_profiler(), str(tmp_path))
        loaded = read_profiles(str(tmp_path))
        out = format_mean_profile(loaded)
        assert "main" in out and "mean over 3 nodes" in out

    def test_dangling_timers_written(self, tmp_path):
        # a profile written mid-run (timers still on the stack) must
        # not lose the accumulated time: the writer snapshots as-if
        # stopped now, without mutating the live profile
        from repro.tau.profiledata import read_profiles, write_profiles
        from repro.tau.runtime import Profiler

        profiler = Profiler()
        p = profiler.profile(0)
        p.start("main")
        p.advance(10)
        p.start("leaf")
        p.advance(4)
        write_profiles(profiler, str(tmp_path))
        loaded = read_profiles(str(tmp_path)).profile(0)
        assert loaded.timers["main"].inclusive == pytest.approx(14)
        assert loaded.timers["main"].exclusive == pytest.approx(10)
        assert loaded.timers["leaf"].inclusive == pytest.approx(4)
        # the live profile is untouched: timers still running
        assert p.depth == 2

    def test_quoted_names_survive(self, tmp_path):
        from repro.tau.profiledata import read_profiles, write_profiles
        from repro.tau.runtime import Profiler

        profiler = Profiler()
        p = profiler.profile(0)
        p.start('odd "name" with quotes')
        p.advance(5)
        p.stop()
        write_profiles(profiler, str(tmp_path))
        loaded = read_profiles(str(tmp_path))
        assert 'odd "name" with quotes' in loaded.profile(0).timers

    def test_malformed_file_rejected(self, tmp_path):
        from repro.tau.profiledata import read_profiles

        (tmp_path / "profile.0.0.0").write_text("not a profile\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_profiles(str(tmp_path))

    def test_count_mismatch_rejected(self, tmp_path):
        from repro.tau.profiledata import read_profiles

        (tmp_path / "profile.0.0.0").write_text(
            '5 templated_functions\n"a" 1 0 1 1 0 GROUP="G"\n0 aggregates\n'
        )
        with pytest.raises(ValueError, match="header says 5"):
            read_profiles(str(tmp_path))


class TestCallgraphDisplay:
    SRC = (
        "int leaf() { return 1; }\n"
        "int left() { return leaf(); }\n"
        "int right() { return leaf() + leaf(); }\n"
        "int main() { return left() + right(); }\n"
    )

    def test_callgraph_from_callpath_profile(self):
        from repro.tau.profile import format_callgraph

        pdb = PDB(analyze(compile_source(self.SRC)))
        sim = ExecutionSimulator(pdb, WorkloadSpec(cost=uniform_model(5.0)))
        profiler = sim.run_traced(callpath_depth=2)
        out = format_callgraph(profiler)
        assert "CALLGRAPH" in out
        # main's children with percentage split
        main_block = out.split("main", 1)[1]
        assert "left" in main_block and "right" in main_block
        # right calls leaf twice per invocation
        right_lines = [l for l in out.splitlines() if "leaf" in l and "calls" in l]
        assert any(" 2 calls" in l.replace("     ", " ") or l.split("calls")[0].strip().endswith("2") for l in right_lines)

    def test_flat_profile_rejected(self):
        from repro.tau.profile import format_callgraph

        pdb = PDB(analyze(compile_source(self.SRC)))
        profiler = ExecutionSimulator(pdb, WorkloadSpec()).run()
        with pytest.raises(ValueError, match="callpath"):
            format_callgraph(profiler)
