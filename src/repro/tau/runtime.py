"""The TAU measurement runtime: timers and profile storage.

A real (not mocked) measurement library: timers nest on a per-thread
stack, exclusive time flows to the routine on top, inclusive time covers
the whole span, and statistics accumulate per (node, context, thread) —
TAU's n,c,t triple.  The only substitution versus the paper is the clock
source: instead of wall-clock on real hardware, time is whatever the
caller reports (the execution simulator's virtual cycle counter), which
keeps profiles deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TimerStats:
    """Accumulated measurements for one timer on one (n,c,t).

    ``calls``/``subrs`` are integral on a live thread profile; mean
    views (:meth:`Profiler.mean_stats`) carry fractional values, as in
    TAU's mean display — 1 call across 2 ranks is 0.5 calls."""

    name: str
    group: str = "TAU_DEFAULT"
    calls: float = 0
    subrs: float = 0  # child timer starts while this timer was on top
    inclusive: float = 0.0
    exclusive: float = 0.0

    @property
    def inclusive_per_call(self) -> float:
        return self.inclusive / self.calls if self.calls else 0.0

    @property
    def exclusive_per_call(self) -> float:
        return self.exclusive / self.calls if self.calls else 0.0


@dataclass(slots=True)
class _ActiveTimer:
    stats: TimerStats
    start: float
    child_time: float = 0.0
    #: first activation of this timer on the stack — recursive
    #: re-activations must not double-count inclusive time
    outermost: bool = True


class ThreadProfile:
    """Timer storage and the running timer stack for one (n,c,t)."""

    def __init__(self, node: int = 0, context: int = 0, thread: int = 0):
        self.node = node
        self.context = context
        self.thread = thread
        self.timers: dict[str, TimerStats] = {}
        self._stack: list[_ActiveTimer] = []
        #: timer name -> activations of it on the stack
        self._active: dict[str, int] = {}
        self._now = 0.0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        """Report elapsed work time (the simulator's virtual clock)."""
        if dt < 0:
            raise ValueError("time cannot run backwards")
        self._now += dt

    # -- timers ------------------------------------------------------------

    def timer(self, name: str, group: str = "TAU_DEFAULT") -> TimerStats:
        t = self.timers.get(name)
        if t is None:
            t = TimerStats(name=name, group=group)
            self.timers[name] = t
        return t

    def start(self, name: str, group: str = "TAU_DEFAULT") -> None:
        stats = self.timer(name, group)
        stats.calls += 1
        stack = self._stack
        if stack:
            stack[-1].stats.subrs += 1
        running = self._active.get(stats.name, 0)
        self._active[stats.name] = running + 1
        stack.append(_ActiveTimer(stats, self._now, 0.0, running == 0))

    def stop(self, name: Optional[str] = None) -> None:
        stack = self._stack
        if not stack:
            raise RuntimeError("timer stack underflow")
        active = stack[-1]
        stats = active.stats
        if name is not None and stats.name != name:
            raise RuntimeError(
                f"timer stop mismatch: stopping {name!r}, "
                f"top of stack is {stats.name!r}"
            )
        stack.pop()
        running = self._active[stats.name] - 1
        if running:
            self._active[stats.name] = running
        else:
            del self._active[stats.name]
        span = self._now - active.start
        if active.outermost:
            stats.inclusive += span
        stats.exclusive += span - active.child_time
        if stack:
            stack[-1].child_time += span

    def stop_all(self) -> None:
        """Stop every running timer at the current clock.

        A program that exits while ``main`` (or anything else) is still
        on the stack must not lose that time: the profile writers call
        this so end-of-run snapshots account for dangling timers."""
        while self._stack:
            self.stop()

    def snapshot_timers(self) -> dict[str, TimerStats]:
        """Copy of the timer table *as if* :meth:`stop_all` ran now,
        without disturbing the live stack — the snapshot-at-``now``
        view the profile writers serialise."""
        copies = {
            name: TimerStats(
                name=t.name,
                group=t.group,
                calls=t.calls,
                subrs=t.subrs,
                inclusive=t.inclusive,
                exclusive=t.exclusive,
            )
            for name, t in self.timers.items()
        }
        # Replay the pending stops top-down: each popped frame's full
        # span becomes child time of the frame below it (mirrors stop()).
        inherited = 0.0
        for frame in reversed(self._stack):
            span = self._now - frame.start
            c = copies[frame.stats.name]
            if frame.outermost:
                c.inclusive += span
            c.exclusive += span - frame.child_time - inherited
            inherited = span
        return copies

    @property
    def depth(self) -> int:
        return len(self._stack)

    def top(self) -> Optional[TimerStats]:
        return self._stack[-1].stats if self._stack else None

    def total_time(self) -> float:
        return self._now

    def check_consistency(self) -> None:
        """Invariants any real profile must satisfy (property-tested):
        inclusive >= exclusive >= 0 for every timer, and no timer's
        inclusive exceeds the total elapsed time.  Checked on the
        snapshot-at-``now`` view, so the invariants hold even while
        timers are still running (dangling at end-of-run)."""
        for t in self.snapshot_timers().values():
            assert t.exclusive >= -1e-9, f"{t.name}: negative exclusive"
            assert t.inclusive >= t.exclusive - 1e-9, f"{t.name}: incl < excl"
            assert t.inclusive <= self._now + 1e-9, f"{t.name}: incl > total"


class Profiler:
    """Whole-program profile storage across nodes/contexts/threads."""

    def __init__(self):
        self.profiles: dict[tuple[int, int, int], ThreadProfile] = {}

    def profile(self, node: int = 0, context: int = 0, thread: int = 0) -> ThreadProfile:
        key = (node, context, thread)
        p = self.profiles.get(key)
        if p is None:
            p = ThreadProfile(node, context, thread)
            self.profiles[key] = p
        return p

    def nodes(self) -> list[int]:
        return sorted({n for (n, _, _) in self.profiles})

    def all_timer_names(self) -> list[str]:
        names: dict[str, None] = {}
        for p in self.profiles.values():
            for name in p.timers:
                names.setdefault(name)
        return list(names)

    def stop_all(self) -> None:
        """Stop every running timer on every thread profile."""
        for p in self.profiles.values():
            p.stop_all()

    def mean_stats(self) -> dict[str, TimerStats]:
        """Per-timer statistics averaged over all (n,c,t) profiles —
        TAU's "mean" display (paper Figure 7 shows mean profiles).

        Means are true averages: call counts come out fractional when a
        timer did not fire the same number of times on every profile
        (TAU's mean display shows fractional calls).  A timer seen with
        different groups across profiles takes the group of the
        first profile (in sorted (n,c,t) order) that has it."""
        count = max(1, len(self.profiles))
        out = self.total_stats()
        for agg in out.values():
            agg.calls /= count
            agg.subrs /= count
            agg.inclusive /= count
            agg.exclusive /= count
        return out

    def groups(self) -> list[str]:
        """All profile groups seen across nodes (TAU_USER, TAU_FIELD, …)."""
        out: dict[str, None] = {}
        for p in self.profiles.values():
            for t in p.timers.values():
                out.setdefault(t.group)
        return list(out)

    def group_stats(self, group: str) -> dict[str, TimerStats]:
        """Mean statistics restricted to one profile group — TAU's
        group-filtered displays."""
        return {
            name: t for name, t in self.mean_stats().items() if t.group == group
        }

    def total_stats(self) -> dict[str, TimerStats]:
        """Per-timer statistics summed over all profiles (the sums
        :meth:`mean_stats` divides).  A timer seen with different groups
        takes the first one, in sorted (n,c,t) order."""
        out: dict[str, TimerStats] = {}
        for name in self.all_timer_names():
            agg = TimerStats(name=name)
            group: Optional[str] = None
            for key in sorted(self.profiles):
                t = self.profiles[key].timers.get(name)
                if t is None:
                    continue
                agg.calls += t.calls
                agg.subrs += t.subrs
                agg.inclusive += t.inclusive
                agg.exclusive += t.exclusive
                if group is None:
                    group = t.group
            if group is not None:
                agg.group = group
            out[name] = agg
        return out
