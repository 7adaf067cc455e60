"""Fortran 90 front end tests (the paper's Section 6 extension)."""

import pytest

from repro.analyzer import analyze
from repro.cpp.il import ClassKind
from repro.ductape.pdb import PDB
from repro.fortran.frontend import FortranFrontend
from repro.fortran.lexer import split_statements
from repro.cpp.source import SourceFile
from repro.workloads.fortran90 import compile_heat, fortran_files


def compile_f90(text: str, name: str = "test.f90"):
    fe = FortranFrontend()
    fe.register_files({name: text})
    return fe.compile([name])


class TestStatementScanner:
    def lex(self, text):
        return split_statements(SourceFile(name="t.f90", text=text))

    def test_basic_statements(self):
        stmts = self.lex("x = 1\ny = 2\n")
        assert [s.text for s in stmts] == ["x = 1", "y = 2"]

    def test_comments_stripped(self):
        stmts = self.lex("x = 1 ! set x\n! whole-line comment\ny = 2\n")
        assert [s.text for s in stmts] == ["x = 1", "y = 2"]

    def test_bang_in_string_kept(self):
        stmts = self.lex("print *, 'hello! world'\n")
        assert stmts[0].text == "print *, 'hello! world'"

    def test_continuation(self):
        stmts = self.lex("call foo(a, &\n    b, c)\n")
        assert stmts[0].text == "call foo(a, b, c)"

    def test_continuation_with_leading_amp(self):
        stmts = self.lex("x = 1 + &\n   & 2\n")
        assert stmts[0].text == "x = 1 + 2"

    def test_semicolons(self):
        stmts = self.lex("x = 1; y = 2\n")
        assert [s.text for s in stmts] == ["x = 1", "y = 2"]

    def test_locations(self):
        stmts = self.lex("\n\n  x = 1\n")
        assert stmts[0].location.line == 3
        assert stmts[0].location.column == 3

    def test_whitespace_normalised(self):
        stmts = self.lex("integer   ::    n\n")
        assert stmts[0].text == "integer :: n"


class TestConstructMapping:
    """Section 6: 'Fortran derived types and modules will correspond to
    C++ classes/structs/unions' …"""

    def test_module_becomes_namespace(self):
        tree = compile_f90("module physics\nend module physics\n")
        assert [n.name for n in tree.all_namespaces] == ["physics"]

    def test_derived_type_becomes_struct(self):
        tree = compile_f90(
            "module m\n"
            "  type particle\n"
            "     real :: mass\n"
            "     integer :: charge\n"
            "  end type particle\n"
            "end module m\n"
        )
        cls = tree.find_class("m::particle")
        assert cls is not None
        assert cls.kind is ClassKind.STRUCT
        assert [(f.name, f.type.spelling()) for f in cls.fields] == [
            ("mass", "float"),
            ("charge", "int"),
        ]

    def test_component_attributes(self):
        tree = compile_f90(
            "module m\n"
            "  type grid\n"
            "     real, dimension(:), pointer :: cells\n"
            "     real :: corners(4)\n"
            "  end type grid\n"
            "end module m\n"
        )
        cls = tree.find_class("m::grid")
        types = {f.name: f.type.spelling() for f in cls.fields}
        assert types["cells"] == "float [] *"
        assert types["corners"] == "float []"

    def test_derived_type_component_of_derived_type(self):
        tree = compile_f90(
            "module m\n"
            "  type inner\n"
            "     integer :: i\n"
            "  end type inner\n"
            "  type outer\n"
            "     type(inner) :: nested\n"
            "  end type outer\n"
            "end module m\n"
        )
        outer = tree.find_class("m::outer")
        assert outer.fields[0].type.spelling() == "m::inner"

    def test_subroutine_becomes_routine(self):
        tree = compile_f90(
            "module m\ncontains\n"
            "  subroutine go(n)\n"
            "    integer, intent(in) :: n\n"
            "  end subroutine go\n"
            "end module m\n"
        )
        r = tree.find_routine("m::go")
        assert r is not None
        assert r.linkage == "fortran"
        assert r.signature.return_type.spelling() == "void"
        assert r.parameters[0].type.spelling() == "int"

    def test_function_return_type_from_result(self):
        tree = compile_f90(
            "module m\ncontains\n"
            "  function area(r) result(a)\n"
            "    real, intent(in) :: r\n"
            "    real :: a\n"
            "    a = r * r\n"
            "  end function area\n"
            "end module m\n"
        )
        r = tree.find_routine("m::area")
        assert r.signature.return_type.spelling() == "float"

    def test_typed_function_prefix(self):
        tree = compile_f90(
            "module m\ncontains\n"
            "  integer function count_up(n)\n"
            "    integer, intent(in) :: n\n"
            "    count_up = n + 1\n"
            "  end function count_up\n"
            "end module m\n"
        )
        r = tree.find_routine("m::count_up")
        assert r.signature.return_type.spelling() == "int"

    def test_module_variable(self):
        tree = compile_f90("module m\n  real :: tolerance = 0.5\nend module m\n")
        assert tree.all_variables[0].name == "tolerance"

    def test_interface_aliases(self):
        """'Fortran interfaces will correspond to routines with aliases'."""
        tree = compile_heat()
        scalar = tree.find_routine("heat_mod::residual_scalar")
        fieldr = tree.find_routine("heat_mod::residual_field")
        assert scalar.flags["aliases"] == ["residual"]
        assert fieldr.flags["aliases"] == ["residual"]

    def test_program_unit(self):
        tree = compile_heat()
        prog = tree.find_routine("heat_app")
        assert prog is not None and prog.defined
        assert prog.flags.get("program_unit") is True


class TestCallExtraction:
    def test_call_statement(self):
        tree = compile_heat()
        prog = tree.find_routine("heat_app")
        assert [c.callee.name for c in prog.calls] == [
            "grid_init", "heat_step", "check_convergence"
        ]

    def test_function_reference_in_expression(self):
        tree = compile_heat()
        step = tree.find_routine("heat_mod::heat_step")
        callees = {c.callee.name for c in step.calls}
        assert callees == {"grid_size", "stencil"}

    def test_forward_reference_within_module(self):
        # heat_step calls stencil, defined after it
        tree = compile_heat()
        step = tree.find_routine("heat_mod::heat_step")
        assert any(c.callee.name == "stencil" for c in step.calls)

    def test_cross_module_calls(self):
        tree = compile_heat()
        stencil = tree.find_routine("heat_mod::stencil")
        parents = {c.callee.parent.name for c in stencil.calls}
        assert parents == {"grid_mod"}

    def test_generic_interface_call_resolves(self):
        tree = compile_heat()
        check = tree.find_routine("heat_mod::check_convergence")
        assert any(c.callee.name.startswith("residual") for c in check.calls)

    def test_intrinsics_not_called(self):
        tree = compile_heat()
        rs = tree.find_routine("heat_mod::residual_scalar")
        assert rs.calls == []  # abs() is an intrinsic

    def test_array_reference_not_a_call(self):
        tree = compile_f90(
            "module m\ncontains\n"
            "  subroutine s()\n"
            "    real :: buffer(10)\n"
            "    buffer(1) = 2.0\n"
            "  end subroutine s\n"
            "end module m\n"
        )
        assert tree.find_routine("m::s").calls == []

    def test_call_location(self):
        tree = compile_heat()
        prog = tree.find_routine("heat_app")
        first = prog.calls[0]
        assert first.location.file.name == "heat_app.f90"


class TestEntryExit:
    def test_exit_points_recorded(self):
        tree = compile_heat()
        check = tree.find_routine("heat_mod::check_convergence")
        assert len(check.flags["exits"]) == 2  # return + end subroutine

    def test_first_exec_after_declarations(self):
        tree = compile_heat()
        step = tree.find_routine("heat_mod::heat_step")
        first = step.flags["first_exec"]
        assert first is not None
        # the first executable statement is "n = grid_size(g)"
        assert "grid_size" in step.calls[0].location.file.text.splitlines()[first.line - 1]


class TestUniformPdb:
    """Section 6's thesis: a uniform parse tree means uniform tools."""

    @pytest.fixture(scope="class")
    def pdb(self):
        return PDB(analyze(compile_heat()))

    def test_pdb_items(self, pdb):
        assert pdb.findClass("grid_mod::grid") is not None
        assert pdb.findRoutine("heat_mod::heat_step") is not None
        names = {n.name() for n in pdb.getNamespaceVec()}
        assert names == {"grid_mod", "heat_mod"}

    def test_rlink_fortran(self, pdb):
        r = pdb.findRoutine("heat_mod::stencil")
        assert r.linkage() == "fortran"

    def test_ralias_emitted(self, pdb):
        r = pdb.findRoutine("heat_mod::residual_scalar")
        assert r.raw.get("ralias").split() == ["residual"]

    def test_rexit_emitted(self, pdb):
        r = pdb.findRoutine("heat_mod::check_convergence")
        assert len(r.raw.get_all("rexit")) == 2

    def test_pdbtree_works_unchanged(self, pdb):
        from repro.tools.pdbtree import render_call_tree

        out = render_call_tree(pdb, "heat_app")
        assert "`--> heat_mod::heat_step" in out
        assert "heat_mod::stencil" in out

    def test_pdbconv_works_unchanged(self, pdb):
        from repro.tools.pdbconv import check_pdb, convert_pdb

        assert check_pdb(pdb) == []
        assert "grid_mod::grid" in convert_pdb(pdb)

    def test_merge_works_unchanged(self, pdb):
        other = PDB.from_text(pdb.to_text())
        stats = PDB.from_text(pdb.to_text()).merge(other)
        assert stats.items_added == 0

    def test_round_trip(self, pdb):
        from repro.pdbfmt import parse_pdb, write_pdb

        text = pdb.to_text()
        assert write_pdb(parse_pdb(text)) == text


class TestFortranInstrumentation:
    def test_entry_exit_insertion(self):
        from repro.tau.fortran_instrumentor import instrument_fortran_file
        from repro.workloads.fortran90 import HEAT_MOD_F90

        pdb = PDB(analyze(compile_heat()))
        res = instrument_fortran_file("heat_mod.f90", HEAT_MOD_F90, pdb)
        assert "heat_mod::heat_step" in res.routines_instrumented
        text = res.text
        assert "call TAU_PROFILE_TIMER(tau_profiler, 'heat_mod::heat_step')" in text
        assert text.count("call TAU_PROFILE_START") == len(res.routines_instrumented)
        # stops at every exit: each routine has >= 1
        assert text.count("call TAU_PROFILE_STOP") >= len(res.routines_instrumented)

    def test_stop_before_return(self):
        from repro.tau.fortran_instrumentor import instrument_fortran_file
        from repro.workloads.fortran90 import HEAT_MOD_F90

        pdb = PDB(analyze(compile_heat()))
        res = instrument_fortran_file("heat_mod.f90", HEAT_MOD_F90, pdb)
        lines = res.text.splitlines()
        for i, line in enumerate(lines):
            if line.strip() == "return":
                assert "TAU_PROFILE_STOP" in lines[i - 1]

    def test_start_before_first_executable(self):
        from repro.tau.fortran_instrumentor import instrument_fortran_file
        from repro.workloads.fortran90 import GRID_MOD_F90

        pdb = PDB(analyze(compile_heat()))
        res = instrument_fortran_file("grid_mod.f90", GRID_MOD_F90, pdb)
        lines = res.text.splitlines()
        start_idx = next(
            i for i, l in enumerate(lines) if "TAU_PROFILE_START" in l and "grid_init" in lines[i - 1]
        )
        # the next original statement is the first executable one
        assert "g%nx = nx" in lines[start_idx + 1]

    def test_instrumented_source_reparses(self):
        """The rewritten Fortran still parses (TAU_PROFILE_* are calls)."""
        from repro.tau.fortran_instrumentor import instrument_fortran_sources
        from repro.workloads.fortran90 import fortran_files

        pdb = PDB(analyze(compile_heat()))
        results = instrument_fortran_sources(pdb, fortran_files())
        fe = FortranFrontend()
        fe.register_files({n: r.text for n, r in results.items()})
        tree2 = fe.compile(["grid_mod.f90", "heat_mod.f90", "heat_app.f90"])
        prog = tree2.find_routine("heat_app")
        assert prog is not None
        user_calls = [c.callee.name for c in prog.calls if not c.callee.name.startswith("TAU_")]
        assert user_calls == ["grid_init", "heat_step", "check_convergence"]


class TestSimulatedFortranProfile:
    def test_tau_simulator_runs_fortran_pdb(self):
        """Dynamic analysis works across languages too: the simulator
        profiles the Fortran heat solver through the same machinery."""
        from repro.tau.machine import CostModel
        from repro.tau.simulate import ExecutionSimulator, WorkloadSpec

        pdb = PDB(analyze(compile_heat()))
        cm = CostModel(default_cycles=5.0).add("stencil", 100.0)
        spec = WorkloadSpec(
            entry="heat_app",
            cost=cm,
            pair_counts={
                ("heat_app", "heat_mod::heat_step"): 100,
                ("heat_mod::heat_step", "heat_mod::stencil"): 64,
            },
        )
        prof = ExecutionSimulator(pdb, spec).run().profile(0)
        prof.check_consistency()
        stencil = next(t for n, t in prof.timers.items() if "stencil" in n)
        assert stencil.calls == 100 * 64
        ranking = sorted(prof.timers.values(), key=lambda t: -t.exclusive)
        assert "stencil" in ranking[0].name
