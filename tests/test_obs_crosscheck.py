"""repro.obs spans against the benchmark's timing shims.

``perfbench/shims.py`` times the toolchain from outside ``src/`` by
wrapping its entry points; ``repro.obs`` times it from inside.  Both
use the same layer names, so one traced build read both ways must tell
the same story: per layer, the obs spans' total wall time agrees with
the shims' busy time, and every span obs emits is a shim layer or a
child of one (``<layer>.<child>``).

The perfbench modules are imported read-only; the build runs serially
in-process so every shim and every span sees the same calls.
"""

import importlib
import sys
from pathlib import Path

import pytest

import repro.tools.pdbbuild as pdbbuild

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: layers whose obs total must match the shim's busy time
LAYERS = (
    "cpp.preprocess",
    "cpp.parse",
    "cpp.instantiate",
    "pdbfmt.write",
    "pdbmerge",
    "check",
    "pdbbuild.compile_tu",
    "pdbbuild.build",
)


def within(a: float, b: float) -> bool:
    """Agreement bound: 10% of the shim's figure, but never under 2 ms
    (each shim adds a few microseconds of its own to every call)."""
    return abs(a - b) <= max(0.10 * b, 0.002)


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``shims`` and ``workloads`` modules (its directory is
    on ``sys.path`` only while they import, as ``run.py`` arranges)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("shims"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def traced_build(perfbench, tmp_path_factory):
    """One serial traced ``cold-build`` corpus build (seed 7) under the
    shims: ``(shim layer table, build stats)``."""
    shims, workloads = perfbench
    root = tmp_path_factory.mktemp("cold-build")
    cold = workloads.ColdBuild()
    state = workloads._prepare(str(root), 7, cold.spec)
    tracer = shims.Tracer(str(root / "spans"))
    tracer.install()
    try:
        _merged, stats = pdbbuild.build(
            state.sources, state.options, jobs=1,
            cache_dir=str(root / "cache"), trace=True, checks="all",
        )
    finally:
        tracer.uninstall()
    tracer.collect()
    return shims.layer_table(tracer.spans), stats


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_time_matches_shim(traced_build, layer):
    table, stats = traced_build
    ours = stats.phases[layer]["wall_s"]
    theirs = table[layer]["busy_s"]
    assert within(ours, theirs), f"{layer}: obs {ours:.6f}s vs shim {theirs:.6f}s"


def test_analyzer_passes_sum_to_shim_analyzer(traced_build):
    """The passes and the assembly are most of ``analyze()``, never more."""
    table, stats = traced_build
    passes = sum(
        row["wall_s"] for name, row in stats.phases.items() if name.startswith("analyzer.")
    )
    whole = table["analyzer"]["busy_s"]
    assert 0.90 * whole <= passes <= whole, f"analyzer.* {passes:.6f}s vs shim {whole:.6f}s"


def test_span_names_are_shim_layers(perfbench, traced_build):
    shims, _ = perfbench
    layers = {name for name, *_ in shims.SHIMS}
    _table, stats = traced_build
    names = {s.name for s in stats.trace_spans}
    stray = {
        n for n in names
        if n not in layers and not any(n.startswith(layer + ".") for layer in layers)
    }
    assert not stray, f"span names outside the benchmark's layers: {sorted(stray)}"
    # the build exercised every instrumented layer
    assert set(LAYERS) <= names
