"""Profile displays — the pprof-style text analog of paper Figure 7.

Figure 7 shows TAU displays of "time spent in POOMA's Krylov Solver
routines", mean over nodes and per node.  We render the classic pprof
table::

    ---------------------------------------------------------------
    %Time    Exclusive    Inclusive   #Call   #Subrs  Incl/Call Name
             msec         total msec
    ---------------------------------------------------------------
     100.0       12           3,210       1       42    3210000 main
    ...

Times are virtual microseconds (the simulator's cycle counter divided
by a nominal clock), so absolute values are meaningless; ordering and
ratios — the profile *shape* — are the reproduction target.
"""

from __future__ import annotations

from typing import Optional

from repro.tau.runtime import Profiler, TimerStats

#: nominal "clock": virtual cycles per microsecond
CYCLES_PER_USEC = 1.0


def _usec(cycles: float) -> float:
    return cycles / CYCLES_PER_USEC


def _fmt_msec(usec: float) -> str:
    msec = usec / 1000.0
    if msec >= 1000:
        return f"{msec:,.0f}"
    if msec >= 1:
        return f"{msec:.3g}"
    return f"{msec:.3g}"


def format_stats_table(
    stats: dict[str, TimerStats],
    total: Optional[float] = None,
    title: str = "",
    top: Optional[int] = None,
) -> str:
    """One pprof-style table, sorted by exclusive time descending."""
    rows = sorted(stats.values(), key=lambda t: -t.exclusive)
    if top is not None:
        rows = rows[:top]
    if total is None:
        total = max((t.inclusive for t in stats.values()), default=0.0)
    lines: list[str] = []
    if title:
        lines.append(title)
    bar = "-" * 78
    lines.append(bar)
    lines.append(
        f"{'%Time':>6} {'Exclusive':>12} {'Inclusive':>12} "
        f"{'#Call':>8} {'#Subrs':>8} {'Incl/Call':>10}  Name"
    )
    lines.append(
        f"{'':>6} {'msec':>12} {'total msec':>12} {'':>8} {'':>8} {'usec':>10}"
    )
    lines.append(bar)
    for t in rows:
        pct = 100.0 * t.inclusive / total if total else 0.0
        # mean views carry fractional calls (TAU's mean display); ``g``
        # renders 0.5 as 0.5 and integral counts without a trailing .0
        lines.append(
            f"{pct:>6.1f} {_fmt_msec(_usec(t.exclusive)):>12} "
            f"{_fmt_msec(_usec(t.inclusive)):>12} "
            f"{t.calls:>8g} {t.subrs:>8g} "
            f"{_usec(t.inclusive_per_call):>10.0f}  {t.name}"
        )
    lines.append(bar)
    return "\n".join(lines)


def format_profile(profiler: Profiler, node: int = 0, top: Optional[int] = None) -> str:
    """Per-node profile display (``NODE 0;CONTEXT 0;THREAD 0:``)."""
    prof = profiler.profile(node=node)
    title = f"NODE {node};CONTEXT 0;THREAD 0:"
    return format_stats_table(prof.timers, total=prof.total_time(), title=title, top=top)


def format_mean_profile(profiler: Profiler, top: Optional[int] = None) -> str:
    """Mean-over-nodes display — what paper Figure 7 shows."""
    stats = profiler.mean_stats()
    n = len(profiler.profiles)
    total = (
        sum(p.total_time() for p in profiler.profiles.values()) / n if n else 0.0
    )
    return format_stats_table(stats, total=total, title=f"FUNCTION SUMMARY (mean over {n} nodes):", top=top)


def format_bars(
    profiler: Profiler,
    node: Optional[int] = None,
    metric: str = "exclusive",
    width: int = 50,
    top: Optional[int] = 15,
) -> str:
    """Racy/paraprof-style horizontal bar display — the graphical form
    of paper Figure 7, rendered in text.

    ``node=None`` shows the mean profile; ``metric`` is ``exclusive`` or
    ``inclusive``."""
    if node is None:
        stats = profiler.mean_stats()
        title = f"mean over {len(profiler.profiles)} node(s), {metric} time"
    else:
        stats = dict(profiler.profile(node=node).timers)
        title = f"node {node}, {metric} time"
    rows = sorted(stats.values(), key=lambda t: -getattr(t, metric))
    if top is not None:
        rows = rows[:top]
    peak = max((getattr(t, metric) for t in rows), default=0.0)
    lines = [title, "-" * (width + 30)]
    for t in rows:
        value = getattr(t, metric)
        n = int(round(width * value / peak)) if peak else 0
        bar = "#" * max(n, 1 if value > 0 else 0)
        lines.append(f"{_fmt_msec(_usec(value)):>10} msec |{bar:<{width}}| {t.name}")
    return "\n".join(lines)


def format_callgraph(profiler: Profiler, node: int = 0) -> str:
    """pprof's callgraph view, reconstructed from callpath timers.

    Requires a profile produced with ``run_traced(callpath_depth=2)``:
    each ``parent => child`` timer contributes an edge; per parent we
    show how its children's inclusive time divides up."""
    prof = profiler.profile(node=node)
    edges: dict[str, list[tuple[str, "TimerStats"]]] = {}
    flat: dict[str, float] = {}
    for name, t in prof.timers.items():
        if " => " in name:
            parent, child = name.rsplit(" => ", 1)
            parent = parent.rsplit(" => ", 1)[-1]
            edges.setdefault(parent, []).append((child, t))
        else:
            flat[name] = t.inclusive
    if not edges:
        raise ValueError(
            "no callpath timers found — produce the profile with "
            "run_traced(callpath_depth=2) or deeper"
        )
    lines: list[str] = [f"CALLGRAPH (node {node}):"]
    for parent in sorted(edges, key=lambda p: -sum(t.inclusive for _, t in edges[p])):
        children = sorted(edges[parent], key=lambda x: -x[1].inclusive)
        total = sum(t.inclusive for _, t in children)
        lines.append(f"{parent}")
        for child, t in children:
            pct = 100.0 * t.inclusive / total if total else 0.0
            lines.append(
                f"    {pct:5.1f}%  {_fmt_msec(_usec(t.inclusive)):>10} msec  "
                f"{t.calls:>6} calls  {child}"
            )
    return "\n".join(lines)


def exclusive_ranking(profiler: Profiler) -> list[tuple[str, float]]:
    """(timer, mean exclusive) pairs, descending — bench assertions use
    this to check the profile shape without string parsing."""
    stats = profiler.mean_stats()
    return sorted(((t.name, t.exclusive) for t in stats.values()), key=lambda x: -x[1])
