"""TAU instrumentation of Fortran 90 source — the paper's Section 6
requirement, implemented.

"TAU must know the locations of Fortran routine entry and exit points
to insert profiling instrumentation."  The Fortran front end records
both in the PDB (``rfexec`` / ``rexit``); this instrumentor rewrites
the source in TAU's Fortran style::

    subroutine heat_step(g, dt)
       ...declarations...
       integer, dimension(2) :: tau_profiler = (/ 0, 0 /)   ! added
       call TAU_PROFILE_TIMER(tau_profiler, 'heat_mod::heat_step')  ! entry
       call TAU_PROFILE_START(tau_profiler)
       ...
       call TAU_PROFILE_STOP(tau_profiler)                  ! before return
       return
       ...
       call TAU_PROFILE_STOP(tau_profiler)                  ! before end
    end subroutine heat_step
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ductape.pdb import PDB

PROFILER_DECL = "integer, dimension(2) :: tau_profiler = (/ 0, 0 /)"


@dataclass
class FortranInstrumented:
    """Rewriting result for one Fortran file."""

    file_name: str
    original: str
    text: str
    routines_instrumented: list[str] = field(default_factory=list)


def instrument_fortran_file(file_name: str, text: str, pdb: PDB) -> FortranInstrumented:
    """Insert TAU entry/exit instrumentation into one Fortran file."""
    lines = text.splitlines()
    #: line -> list of (indent-source-line, text) inserted *before* it
    before: dict[int, list[str]] = {}
    instrumented: list[str] = []
    for r in pdb.getRoutineVec():
        if r.linkage() != "fortran":
            continue
        loc = r.location()
        if not loc.known or loc.file().name() != file_name:
            continue
        entry = r.raw.get_location("rfexec")
        exits = []
        for a in r.raw.get_all("rexit"):
            if len(a.words) >= 3 and a.words[0] != "NULL":
                exits.append(int(a.words[1]))
        if entry is None or entry.file is None:
            continue
        timer = r.fullName()
        before.setdefault(entry.line, []).extend(
            [
                PROFILER_DECL,
                f"call TAU_PROFILE_TIMER(tau_profiler, '{timer}')",
                "call TAU_PROFILE_START(tau_profiler)",
            ]
        )
        for line_no in exits:
            before.setdefault(line_no, []).append(
                "call TAU_PROFILE_STOP(tau_profiler)"
            )
        instrumented.append(timer)
    out: list[str] = []
    for i, line in enumerate(lines, start=1):
        if i in before:
            indent = " " * (len(line) - len(line.lstrip()))
            out.extend(indent + ins for ins in before[i])
        out.append(line)
    return FortranInstrumented(
        file_name=file_name,
        original=text,
        text="\n".join(out) + ("\n" if text.endswith("\n") else ""),
        routines_instrumented=instrumented,
    )


def instrument_fortran_sources(
    pdb: PDB, sources: dict[str, str]
) -> dict[str, FortranInstrumented]:
    """Rewrite every Fortran source file known to the PDB."""
    return {
        name: instrument_fortran_file(name, text, pdb)
        for name, text in sources.items()
    }
