"""TAU-style event tracing.

Besides profiles, TAU's "profiling and tracing toolkit" (paper Section
4.1) records timestamped enter/exit events per node.  The simulator's
traced engine emits them here; :func:`merge_traces` time-merges per-node
buffers the way TAU's trace merger does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class EventKind(enum.Enum):
    """Trace event kinds: routine enter and exit."""
    ENTER = "enter"
    EXIT = "exit"


class TraceEvent(NamedTuple):
    """One enter/exit record: node, timer, virtual timestamp."""

    node: int
    kind: EventKind
    timer: str
    timestamp: float
    sequence: int  # tie-breaker: emission order within a node


@dataclass
class TraceBuffer:
    """Per-run event storage (all nodes interleaved as emitted)."""

    events: list[TraceEvent] = field(default_factory=list)
    max_events: int = 5_000_000
    dropped: int = 0

    def enter(self, node: int, timer: str, timestamp: float) -> None:
        self._emit(node, EventKind.ENTER, timer, timestamp)

    def exit(self, node: int, timer: str, timestamp: float) -> None:
        self._emit(node, EventKind.EXIT, timer, timestamp)

    def _emit(self, node: int, kind: EventKind, timer: str, ts: float) -> None:
        events = self.events
        n = len(events)
        if n >= self.max_events:
            self.dropped += 1
            return
        events.append(TraceEvent(node, kind, timer, ts, n))

    def node_events(self, node: int) -> list[TraceEvent]:
        return [e for e in self.events if e.node == node]

    def nodes(self) -> list[int]:
        return sorted({e.node for e in self.events})

    def __len__(self) -> int:
        return len(self.events)

    def validate_nesting(self) -> None:
        """Per node, enter/exit events must nest like brackets and
        timestamps must be monotone (property-tested)."""
        for node in self.nodes():
            stack: list[str] = []
            last_ts = float("-inf")
            for e in self.node_events(node):
                assert e.timestamp >= last_ts, "timestamps must be monotone"
                last_ts = e.timestamp
                if e.kind is EventKind.ENTER:
                    stack.append(e.timer)
                else:
                    assert stack and stack[-1] == e.timer, (
                        f"unbalanced exit of {e.timer!r} on node {node}"
                    )
                    stack.pop()
            assert not stack, f"unclosed timers on node {node}: {stack}"


def merge_traces(buffer: TraceBuffer) -> Iterator[TraceEvent]:
    """Global time-ordered event stream across nodes (stable on ties)."""
    yield from sorted(buffer.events, key=lambda e: (e.timestamp, e.node, e.sequence))


def format_trace(buffer: TraceBuffer, limit: int = 100) -> str:
    """Human-readable merged trace listing."""
    lines = ["timestamp      node  event  timer"]
    for i, e in enumerate(merge_traces(buffer)):
        if i >= limit:
            lines.append(f"... ({len(buffer) - limit} more events)")
            break
        lines.append(
            f"{e.timestamp:<13.1f} {e.node:<5} {e.kind.value:<6} {e.timer}"
        )
    return "\n".join(lines)
