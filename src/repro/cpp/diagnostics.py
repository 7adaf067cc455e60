"""Diagnostics: errors and warnings with source positions.

The front end never raises bare exceptions for user-source problems; it
reports :class:`Diagnostic` records through a :class:`DiagnosticSink` so a
driving tool can decide whether to abort.  Hard errors (malformed input the
parser cannot recover from) raise :class:`CppError`, which also carries a
location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpp.source import SourceLocation


class Severity(enum.Enum):
    """Diagnostic severity levels, ordered."""

    NOTE = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem: severity, message, optional location."""

    severity: Severity
    message: str
    location: Optional["SourceLocation"] = None

    def render(self) -> str:
        """Format like ``file:line:col: error: message``."""
        prefix = ""
        if self.location is not None:
            prefix = f"{self.location}: "
        return f"{prefix}{self.severity.name.lower()}: {self.message}"


class CppError(Exception):
    """Unrecoverable front-end error, carrying a source location."""

    def __init__(self, message: str, location: Optional["SourceLocation"] = None):
        self.location = location
        self.message = message
        super().__init__(Diagnostic(Severity.ERROR, message, location).render())


class TooManyErrors(CppError):
    """The ``max_errors`` cascade bound was hit; compilation must stop.

    Recovery handlers (backtracking parses, instantiation fallbacks) catch
    plain :class:`CppError` and continue; they must re-raise this subclass
    so a runaway cascade actually terminates the translation unit.
    """


@dataclass
class DiagnosticSink:
    """Collects diagnostics; optionally escalates errors to exceptions.

    ``max_errors`` bounds how many errors accumulate — through
    :meth:`error` *and* :meth:`soft_error` — before the sink raises
    :class:`TooManyErrors` regardless of ``fatal_errors``: runaway
    cascades in a broken input should not silently fill memory.
    ``error_count`` and ``warning_count`` are running counts, kept by
    the reporting methods, so recording N errors costs O(N).
    """

    fatal_errors: bool = True
    max_errors: int = 50
    diagnostics: list[Diagnostic] = field(default_factory=list)
    error_count: int = field(default=0, init=False, compare=False)
    warning_count: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        severities = [d.severity for d in self.diagnostics]
        self.error_count = severities.count(Severity.ERROR)
        self.warning_count = severities.count(Severity.WARNING)

    def note(self, message: str, location: Optional["SourceLocation"] = None) -> None:
        self.diagnostics.append(Diagnostic(Severity.NOTE, message, location))

    def warn(self, message: str, location: Optional["SourceLocation"] = None) -> None:
        self.diagnostics.append(Diagnostic(Severity.WARNING, message, location))
        self.warning_count += 1

    def error(self, message: str, location: Optional["SourceLocation"] = None) -> None:
        self.soft_error(message, location)
        if self.fatal_errors:
            raise CppError(message, location)

    def soft_error(self, message: str, location: Optional["SourceLocation"] = None) -> None:
        """Record an error without escalating (parser error recovery).

        Still subject to the ``max_errors`` cascade bound."""
        self.diagnostics.append(Diagnostic(Severity.ERROR, message, location))
        self.error_count += 1
        if self.error_count >= self.max_errors:
            raise TooManyErrors(
                f"too many errors ({self.error_count}); giving up", location
            )

    def render_all(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)

    def render_errors(self) -> list[str]:
        """Rendered error diagnostics only (build-failure reports)."""
        return [d.render() for d in self.diagnostics if d.severity is Severity.ERROR]
