"""repro.obs tests: spans, Chrome traces, TAU replay, layering.

``obs.observe`` times with the installed observer's clock; these tests
install observers with a fake clock so every duration is deterministic.
"""

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.tau.profiledata import read_profiles, write_profiles
from repro.tau.runtime import Profiler


class FakeClock:
    """Deterministic monotonic clock for observer tests (seconds)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


@pytest.fixture
def observed():
    """An installed observer on a fake clock, uninstalled afterwards."""
    clock = FakeClock()
    o = obs.enable(obs.Observer(clock=clock, epoch=0.0))
    try:
        yield o, clock
    finally:
        obs.disable()


def make_observer():
    clock = FakeClock()
    return obs.Observer(clock=clock, epoch=0.0), clock


class TestObserver:
    def test_phase_records_span(self, observed):
        o, clock = observed
        with obs.observe("parse", cat="cpp", file="a.cpp") as span:
            clock.tick(2.0)
        assert o.spans == [span]
        assert span.name == "parse" and span.cat == "cpp"
        assert span.ts == 0.0 and span.dur == pytest.approx(2e6)
        assert span.args == {"file": "a.cpp"}
        assert span.pid == o.pid

    def test_nested_spans_complete_in_exit_order(self, observed):
        o, clock = observed
        with obs.observe("outer"):
            clock.tick(1.0)
            with obs.observe("inner"):
                clock.tick(3.0)
            clock.tick(0.5)
        # spans complete in exit order: inner first
        assert [s.name for s in o.spans] == ["inner", "outer"]
        assert [s.dur for s in o.spans] == [pytest.approx(3e6), pytest.approx(4.5e6)]

    def test_phase_survives_exception(self, observed):
        o, clock = observed
        with pytest.raises(RuntimeError, match="boom"):
            with obs.observe("failing"):
                clock.tick(1.0)
                raise RuntimeError("boom")
        assert [s.name for s in o.spans] == ["failing"]
        assert o.spans[0].dur == pytest.approx(1e6)

    def test_counter_samples(self):
        o, clock = make_observer()
        o.counter("cache", hits=0, misses=1)
        clock.tick(1.0)
        o.counter("cache", hits=2, misses=1)
        assert len(o.counters) == 2
        assert o.counters[1].values == {"hits": 2, "misses": 1}
        assert o.counters[1].ts == pytest.approx(1e6)


class TestGating:
    def test_disabled_observe_is_noop(self):
        """With no observer a span is still timed, but goes nowhere."""
        assert not obs.is_enabled()
        with obs.observe("anything") as span:
            assert isinstance(span, obs.Span) and span.dur == 0.0
            sum(range(1000))
        assert span.dur > 0.0
        assert span.ts == 0.0 and span.pid == 0
        assert obs.get_observer() is None

    def test_enable_disable_stack(self):
        a = obs.enable()
        b = obs.enable()
        assert obs.get_observer() is b
        assert obs.disable() is b
        assert obs.get_observer() is a
        assert obs.disable() is a
        assert not obs.is_enabled()

    def test_module_level_observe_routes_to_top(self):
        o, clock = make_observer()
        obs.enable(o)
        try:
            with obs.observe("phase"):
                clock.tick(1.0)
        finally:
            obs.disable()
        assert [s.name for s in o.spans] == ["phase"]

    def test_span_goes_to_the_observer_installed_when_it_opened(self):
        outer, clock = make_observer()
        inner, _ = make_observer()
        obs.enable(outer)
        try:
            with obs.observe("spanning"):
                obs.enable(inner)
                clock.tick(1.0)
                obs.disable()
        finally:
            obs.disable()
        assert [s.name for s in outer.spans] == ["spanning"]
        assert inner.spans == []


class TestChromeTrace:
    def make_spans(self, observed):
        o, clock = observed
        with obs.observe("build", cat="driver"):
            with obs.observe("a", cat="tu"):
                clock.tick(1.0)
            with obs.observe("b", cat="tu"):
                clock.tick(2.0)
        o.counter("cache", hits=1)
        return o

    def test_events_well_formed(self, observed):
        o = self.make_spans(observed)
        events = obs.chrome_trace_events(o.spans, o.counters)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        for e in xs:
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["ts"], float) and e["ts"] >= 0
            assert isinstance(e["dur"], float) and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        cs = [e for e in events if e["ph"] == "C"]
        assert len(cs) == 1 and cs[0]["args"] == {"hits": 1}

    def test_events_sorted_and_rebased(self, observed):
        o = self.make_spans(observed)
        events = [e for e in obs.chrome_trace_events(o.spans, o.counters) if e["ph"] != "M"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0.0

    def test_metadata_process_names(self, observed):
        o = self.make_spans(observed)
        events = obs.chrome_trace_events(o.spans, process_names={o.pid: "driver"})
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "driver"

    def test_write_chrome_trace_loads_back(self, observed, tmp_path):
        o = self.make_spans(observed)
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), o.spans, o.counters)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"


class TestReplay:
    def test_replay_reconstructs_nesting(self, observed):
        o, clock = observed
        with obs.observe("outer"):
            clock.tick(1.0)
            with obs.observe("inner"):
                clock.tick(3.0)
            clock.tick(0.5)
        prof = obs.replay_spans(o.spans).profile(0)
        # replay unit is microseconds
        assert prof.timers["outer"].inclusive == pytest.approx(4.5e6)
        assert prof.timers["outer"].exclusive == pytest.approx(1.5e6)
        assert prof.timers["inner"].inclusive == pytest.approx(3e6)
        prof.check_consistency()

    def test_replay_pid_becomes_node(self):
        spans = [
            obs.Span(name="w", cat="tu", ts=0.0, dur=5.0, pid=200, tid=1),
            obs.Span(name="w", cat="tu", ts=0.0, dur=7.0, pid=100, tid=1),
        ]
        profiler = obs.replay_spans(spans)
        assert sorted(profiler.profiles) == [(0, 0, 0), (1, 0, 0)]
        # sorted pid order: pid 100 -> node 0
        assert profiler.profile(0).timers["w"].inclusive == pytest.approx(7.0)

    def test_replay_siblings_not_nested(self):
        spans = [
            obs.Span(name="a", cat="t", ts=0.0, dur=4.0, pid=1, tid=1),
            obs.Span(name="b", cat="t", ts=4.0, dur=6.0, pid=1, tid=1),
        ]
        prof = obs.replay_spans(spans).profile(0)
        assert prof.timers["a"].subrs == 0
        assert prof.timers["b"].exclusive == pytest.approx(6.0)

    def test_replayed_profile_round_trips_profile_files(self, observed, tmp_path):
        o, clock = observed
        with obs.observe("pdbbuild.compile_tu", cat="pdbbuild"):
            with obs.observe("cpp.parse", cat="cpp"):
                clock.tick(1.0)
        write_profiles(obs.replay_spans(o.spans), str(tmp_path))
        loaded = read_profiles(str(tmp_path))
        assert isinstance(loaded, Profiler)
        assert "pdbbuild.compile_tu" in loaded.profile(0).timers
        assert "cpp.parse" in loaded.profile(0).timers

    def test_phase_aggregates(self, observed):
        o, clock = observed
        for _ in range(3):
            with obs.observe("p"):
                clock.tick(1.0)
        agg = obs.phase_aggregates(o.spans)
        assert agg == {"p": {"count": 3, "wall_s": pytest.approx(3.0)}}


class TestLayering:
    def test_obs_import_does_not_load_tools(self):
        """repro.obs must stay import-free of the tools it observes
        (pdbbuild imports obs, never the reverse) — checked in a fresh
        interpreter so this test is order-independent.  The repro
        package __init__ re-exports the frontend, so the check is on
        what importing repro.obs *adds* beyond that baseline."""
        code = (
            "import sys, repro; before = set(sys.modules); "
            "import repro.obs; "
            "added = sorted(set(sys.modules) - before); "
            "bad = [m for m in added if not ("
            "m.startswith('repro.obs') or m.startswith('repro.tau'))]; "
            "assert not bad, f'repro.obs pulled in {bad}'; "
            "assert not any(m.startswith('repro.tools') for m in sys.modules)"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=_src_env()
        )

    def test_toolchain_instrumentation_reports_phases(self):
        """Compiling through the frontend with an observer installed
        yields the frontend/analyzer/writer phase spans."""
        from repro.analyzer import analyze
        from repro.pdbfmt.writer import write_pdb
        from tests.util import compile_source

        o = obs.enable()
        try:
            tree = compile_source(
                "template <class T> struct Box { T get() { return T(); } };\n"
                "int main() { Box<int> b; return b.get(); }\n"
            )
            write_pdb(analyze(tree))
        finally:
            obs.disable()
        names = {s.name for s in o.spans}
        assert {
            "cpp.preprocess",
            "cpp.preprocess.lex",
            "cpp.parse",
            "cpp.instantiate",
            "analyzer.ro",
            "pdbfmt.write",
        } <= names


def _src_env():
    import os

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
