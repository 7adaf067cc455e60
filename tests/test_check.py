"""pdbcheck tests: the pass framework, every checker against the
seeded-defect corpus (exact ground truth — precision and recall both
1.0), the three reporters (SARIF validated against a vendored subset of
the OASIS 2.1.0 schema), suppressions, and the CLI surface of pdbcheck,
pdbmerge --check, and pdbbuild --check."""

from __future__ import annotations

import json

import pytest

from repro.check import (
    Suppressions,
    all_checks,
    all_rules,
    render_json,
    render_sarif,
    render_text,
    resolve_selection,
    run_checks,
    to_json_dict,
    to_sarif_dict,
)
from repro.check.report import JSON_SCHEMA
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.pdb import PDB
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.defects import (
    DEFECT_SOURCES,
    EXPECTED,
    compile_defects,
    defect_files,
    write_corpus,
)
from repro.workloads.stack import UNUSED_MEMBERS, compile_stack


@pytest.fixture(scope="module")
def defect_report():
    pdb, _stats = compile_defects()
    return run_checks(pdb)


@pytest.fixture(scope="module")
def clean_pdb():
    return PDB.from_il(compile_stack(InstantiationMode.USED))


def by_rule(report) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for f in report.findings:
        out.setdefault(f.rule.id, set()).add(f.item)
    return out


def odr_groups(report) -> dict[tuple[str, str], set[str]]:
    """ODR conflict groups: (rule id, entity) -> its ``file:line`` sites."""
    out: dict[tuple[str, str], set[str]] = {}
    for f in report.findings:
        if f.rule.id in ("PDT021", "PDT022"):
            out.setdefault((f.rule.id, f.item), set()).add(f"{f.file}:{f.line}")
    return out


def tu_pdbs(root, files: dict[str, str], sources) -> list[str]:
    """Build each of ``sources`` alone and write its PDB under ``root``."""
    from repro.tools.pdbbuild import BuildOptions, build

    paths = []
    for src in sources:
        pdb, _stats = build([src], BuildOptions(), files=files)
        path = str(root / src.replace(".cpp", ".pdb"))
        pdb.write(path)
        paths.append(path)
    return paths


def odr_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if "[PDT021]" in ln or "[PDT022]" in ln]


# opaque-pointer idiom: a forward declaration is not a definition
OPAQUE_H = """\
#ifndef H_H
#define H_H
class Node;
int size( Node * n );
#endif
"""
OPAQUE_A = """\
#include "h.h"
class Node {
public:
    int v;
};
int size( Node * n ) { return n->v; }
int main( ) { Node n; n.v = 1; return size( &n ); }
"""
OPAQUE_B = """\
#include "h.h"
int count( Node * n ) { return size( n ); }
"""
OPAQUE_C = """\
class Node {
public:
    long v;
};
long peek( Node * n ) { return n->v; }
"""

# same unqualified name in nested scopes of different enclosing scopes:
# distinct entities, not ODR conflicts
NESTED_NAMESPACES = {
    "a.cpp": "namespace a {\nnamespace inner {\nint f( ) { return 1; }\n}\n}\n"
             "int main( ) { return a::inner::f( ); }\n",
    "b.cpp": "namespace b {\nnamespace inner {\nint f( ) { return 2; }\n}\n}\n"
             "int g( ) { return b::inner::f( ); }\n",
}
NESTED_CLASSES = {
    "a.cpp": "class A {\npublic:\n    class In {\n    public:\n"
             "        int f( ) { return 1; }\n    };\n};\n"
             "int main( ) { A::In x; return x.f( ); }\n",
    "b.cpp": "class B {\npublic:\n    class In {\n    public:\n"
             "        int f( ) { return 2; }\n    };\n};\n"
             "int g( ) { B::In y; return y.f( ); }\n",
}


# ------------------------------------------------------------ framework


class TestFramework:
    def test_registry_is_stable(self):
        checks = all_checks()
        assert [c.name for c in checks] == [
            "bloat", "deadcode", "hierarchy", "includes", "odr"
        ]
        rules = all_rules()
        assert [r.id for r in rules] == [
            "PDT011", "PDT012", "PDT001", "PDT031", "PDT032",
            "PDT041", "PDT042", "PDT021", "PDT022",
        ]
        assert all(r.severity in ("error", "warning", "note") for r in rules)

    def test_resolve_selection_forms(self):
        every = resolve_selection("all")
        assert set(every) == {c.name for c in all_checks()}
        assert resolve_selection("deadcode") == {"deadcode": {"PDT001"}}
        assert resolve_selection("PDT021,PDT022") == {"odr": {"PDT021", "PDT022"}}
        # rule *names* work too
        sel = resolve_selection("dead-routine")
        assert sel == {"deadcode": {"PDT001"}}

    def test_resolve_selection_unknown_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            resolve_selection("deadcode,bogus")

    def test_deterministic(self):
        pdb, _ = compile_defects()
        a = run_checks(pdb)
        b = run_checks(pdb)
        assert [f.render() for f in a.findings] == [f.render() for f in b.findings]
        assert render_json(a).split('"wall_s"')[0] == render_json(b).split('"wall_s"')[0]

    def test_findings_sorted(self, defect_report):
        keys = [f.sort_key() for f in defect_report.findings]
        assert keys == sorted(keys)

    def test_selection_limits_checks_run(self):
        pdb, _ = compile_defects()
        report = run_checks(pdb, select="odr")
        assert report.checks_run == ["odr"]
        assert set(by_rule(report)) == {"PDT021", "PDT022"}


# ------------------------------------------------- seeded-defect corpus


class TestSeededDefects:
    def test_exact_ground_truth(self, defect_report):
        """Every planted defect found, nothing else: precision = recall = 1."""
        assert by_rule(defect_report) == EXPECTED

    def test_severities(self, defect_report):
        assert defect_report.count("error") == 4   # 2x PDT021 + 2x PDT022 sites
        assert defect_report.worst_severity() == "error"
        assert defect_report.fails("error")
        assert not defect_report.fails("error") is None

    def test_odr_findings_carry_related_sites(self, defect_report):
        odr = [f for f in defect_report.findings if f.rule.id == "PDT021"]
        assert len(odr) == 2  # one finding per definition site
        assert all(f.related for f in odr)

    def test_entries_rescue_dead_code(self):
        pdb, _ = compile_defects()
        report = run_checks(pdb, select="deadcode", entries=["ping"])
        assert report.findings == []

    def test_odr_conflict_groups(self):
        """The merge keeps both definitions of ``helper`` and ``Config``;
        the check groups them, one finding per definition site."""
        pdb, _stats = compile_defects()
        assert odr_groups(run_checks(pdb, select="odr")) == {
            ("PDT021", "helper"): {"a.cpp:13", "b.cpp:8"},
            ("PDT022", "Config"): {"a.cpp:8", "b.cpp:3"},
        }

    def test_forward_declaration_is_not_a_definition(self, tmp_path):
        """The opaque-pointer idiom: ``class Node;`` in a header, the one
        definition in a.cpp.  A second, real definition is still caught,
        and the forward declaration is not one of its sites."""
        from repro.tools.pdbcheck import main

        files = {"h.h": OPAQUE_H, "a.cpp": OPAQUE_A, "b.cpp": OPAQUE_B, "c.cpp": OPAQUE_C}
        paths = tu_pdbs(tmp_path, files, ("a.cpp", "b.cpp", "c.cpp"))
        assert main(["--checks", "odr", *paths[:2]]) == 0
        pdb, _ = merge_pdbs([PDB.read(p) for p in paths])
        assert odr_groups(run_checks(pdb, select="odr")) == {
            ("PDT022", "Node"): {"a.cpp:2", "c.cpp:1"},
        }


# ------------------------------------------------------- clean corpora


class TestCleanCorpora:
    def test_clean_stack_is_clean(self, clean_pdb):
        report = run_checks(clean_pdb)
        assert report.findings == []
        assert report.worst_severity() is None
        assert not report.fails("note")

    def test_all_mode_flags_unused_template_members(self):
        """Paper's E2: ALL-mode instantiation emits top/pop/makeEmpty
        even though nothing calls them — exactly what PDT011 flags."""
        pdb = PDB.from_il(compile_stack(InstantiationMode.ALL))
        report = run_checks(pdb, select="bloat")
        items = {f.item for f in report.findings if f.rule.id == "PDT011"}
        assert {i.rsplit("::", 1)[-1] for i in items} == set(UNUSED_MEMBERS)


# ------------------------------------------------- include-cycle (042)


CYCLE_PDB = """\
<PDB 3.0>

so#1 a.h
sinc so#2

so#2 b.h
sinc so#1
"""


class TestIncludeCycle:
    def test_pdt042_on_handwritten_cycle(self):
        """Real preprocessor runs cannot produce include cycles (guards
        break them), so the fixture is hand-written PDB text."""
        pdb = PDB.from_text(CYCLE_PDB)
        report = run_checks(pdb, select="PDT042")
        (finding,) = report.findings  # one finding per cycle
        assert "include cycle: a.h -> b.h -> a.h" in finding.message


# -------------------------------------------------------- suppressions


class TestSuppressions:
    def test_exclude_by_rule_prefixed_pattern(self):
        pdb, _ = compile_defects()
        sup = Suppressions.from_text(
            "BEGIN_EXCLUDE_LIST\nPDT001:#\nEND_EXCLUDE_LIST\n"
        )
        report = run_checks(pdb, suppressions=sup)
        assert "PDT001" not in by_rule(report)
        assert report.suppressed == len(EXPECTED["PDT001"])

    def test_exclude_by_item_name(self):
        pdb, _ = compile_defects()
        sup = Suppressions.from_text(
            "BEGIN_EXCLUDE_LIST\nhelper\nConfig\nEND_EXCLUDE_LIST\n"
        )
        report = run_checks(pdb, select="odr", suppressions=sup)
        assert report.findings == []
        assert report.suppressed == 4

    def test_file_exclude(self):
        pdb, _ = compile_defects()
        sup = Suppressions.from_text(
            "BEGIN_FILE_EXCLUDE_LIST\nshapes.h\nEND_FILE_EXCLUDE_LIST\n"
        )
        report = run_checks(pdb, select="hierarchy", suppressions=sup)
        assert report.findings == []

    def test_include_list_is_exhaustive(self):
        pdb, _ = compile_defects()
        sup = Suppressions.from_text(
            "BEGIN_INCLUDE_LIST\nPDT021:#\nEND_INCLUDE_LIST\n"
        )
        report = run_checks(pdb, suppressions=sup)
        assert set(by_rule(report)) == {"PDT021"}


# ----------------------------------------------------------- reporters

#: condensed (vendored) subset of the OASIS SARIF 2.1.0 schema — the
#: structural constraints that matter for code-scanning ingestion
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            # absolute paths are not
                                                            # valid relative URIs
                                                            "uri": {
                                                                "type": "string",
                                                                "pattern": "^[^/]",
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestReporters:
    def test_text_summary(self, defect_report):
        text = render_text(defect_report)
        assert "11 findings (4 errors, 7 warnings)" in text
        assert "[PDT001]" in text and "[PDT041]" in text

    def test_text_verbose_timings(self, defect_report):
        text = render_text(defect_report, verbose=True)
        assert " ms" in text

    def test_json_schema_tag_and_shape(self, defect_report):
        doc = json.loads(render_json(defect_report))
        assert doc["schema"] == JSON_SCHEMA == "pdbcheck-findings/1"
        assert doc["summary"]["findings"] == len(defect_report.findings)
        assert doc["summary"]["rules"] == defect_report.rule_counts
        assert {f["rule"] for f in doc["findings"]} == set(EXPECTED)
        for f in doc["findings"]:
            assert set(f) >= {"rule", "severity", "item", "message", "file", "line"}
        assert set(doc["checks"]) == set(defect_report.checks_run)
        assert all(c["wall_s"] >= 0 for c in doc["checks"].values())

    def test_sarif_validates_against_subset_schema(self, defect_report):
        jsonschema = pytest.importorskip("jsonschema")
        doc = json.loads(render_sarif(defect_report))
        jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)

    def test_sarif_rule_index_cross_references(self, defect_report):
        doc = to_sarif_dict(defect_report)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [r.id for r in all_rules()]
        for res in doc["runs"][0]["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
        assert len(doc["runs"][0]["results"]) == len(defect_report.findings)

    def test_sarif_empty_report_still_valid(self, clean_pdb):
        jsonschema = pytest.importorskip("jsonschema")
        report = run_checks(clean_pdb)
        doc = json.loads(render_sarif(report))
        jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)
        assert doc["runs"][0]["results"] == []

    def test_json_dict_roundtrips(self, defect_report):
        assert json.loads(json.dumps(to_json_dict(defect_report))) == to_json_dict(
            defect_report
        )


# -------------------------------------------------------- pdbcheck CLI


@pytest.fixture(scope="module")
def pdb_paths(tmp_path_factory):
    """defects.pdb (merged), a.pdb/b.pdb (per TU), clean.pdb, on disk."""
    root = tmp_path_factory.mktemp("pdbs")
    merged, _ = compile_defects()
    merged.write(str(root / "defects.pdb"))
    from repro.tools.pdbbuild import BuildOptions, build

    for src in DEFECT_SOURCES:
        one, _stats = build([src], BuildOptions(), files=defect_files())
        one.write(str(root / (src.replace(".cpp", ".pdb"))))
    clean = PDB.from_il(compile_stack(InstantiationMode.USED))
    clean.write(str(root / "clean.pdb"))
    return root


class TestPdbcheckCli:
    def test_no_inputs_is_usage_error(self, capsys):
        from repro.tools.pdbcheck import main

        assert main([]) == 2
        assert "no input PDB files" in capsys.readouterr().err

    def test_unknown_selection_is_usage_error(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main(["--checks", "bogus", str(pdb_paths / "clean.pdb")]) == 2

    def test_missing_file_is_usage_error(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main([str(pdb_paths / "nope.pdb")]) == 2

    def test_clean_exits_zero(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main([str(pdb_paths / "clean.pdb")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main([str(pdb_paths / "defects.pdb")]) == 1
        out = capsys.readouterr().out
        for rule in EXPECTED:
            assert f"[{rule}]" in out

    def test_fail_on_error_ignores_warnings(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        # only warning-level checks selected -> exit 0 under --fail-on error
        assert (
            main(
                ["--checks", "deadcode", "--fail-on", "error",
                 str(pdb_paths / "defects.pdb")]
            )
            == 0
        )

    def test_merges_multiple_inputs_for_cross_tu_checks(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        rc = main(
            ["--checks", "odr", str(pdb_paths / "a.pdb"), str(pdb_paths / "b.pdb")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[PDT021]" in out and "[PDT022]" in out

    def test_single_tu_has_no_odr_findings(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main(["--checks", "odr", str(pdb_paths / "a.pdb")]) == 0

    def test_list_rules(self, capsys):
        from repro.tools.pdbcheck import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for r in all_rules():
            assert r.id in out

    def test_output_file_json(self, pdb_paths, tmp_path, capsys):
        from repro.tools.pdbcheck import main

        out = tmp_path / "report.json"
        assert main(
            ["-f", "json", "-o", str(out), str(pdb_paths / "defects.pdb")]
        ) == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "pdbcheck-findings/1"

    def test_output_file_sarif(self, pdb_paths, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.tools.pdbcheck import main

        out = tmp_path / "report.sarif"
        assert main(
            ["-f", "sarif", "-o", str(out), str(pdb_paths / "defects.pdb")]
        ) == 1
        jsonschema.validate(json.loads(out.read_text()), SARIF_SUBSET_SCHEMA)

    def test_select_file_suppression(self, pdb_paths, tmp_path, capsys):
        from repro.tools.pdbcheck import main

        sel = tmp_path / "suppress.sel"
        sel.write_text("BEGIN_EXCLUDE_LIST\nPDT001:#\nEND_EXCLUDE_LIST\n")
        assert main(
            ["--checks", "deadcode", "--select", str(sel),
             str(pdb_paths / "defects.pdb")]
        ) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_bad_select_file_is_usage_error(self, pdb_paths, capsys):
        from repro.tools.pdbcheck import main

        assert main(
            ["--select", "/nonexistent.sel", str(pdb_paths / "defects.pdb")]
        ) == 2


# --------------------------------------------------- pdbmerge --check


class TestPdbmergeCheck:
    @staticmethod
    def _run(paths, tmp_path, capsys) -> str:
        from repro.tools.pdbmerge import main

        assert main(["--check", "-o", str(tmp_path / "merged.pdb"), *paths]) == 0
        return capsys.readouterr().out

    def test_cli_check_flag(self, pdb_paths, tmp_path, capsys):
        """``pdbmerge --check`` prints the ``odr`` check's findings, line
        for line what ``pdbcheck --checks odr`` prints for the same inputs."""
        from repro.tools.pdbcheck import main as pdbcheck

        paths = [str(pdb_paths / "a.pdb"), str(pdb_paths / "b.pdb")]
        text = self._run(paths, tmp_path, capsys)
        assert "helper" in text and "Config" in text
        assert pdbcheck(["--checks", "odr", *paths]) == 1
        want = capsys.readouterr().out
        assert len(odr_lines(want)) == 4
        assert odr_lines(text) == odr_lines(want)
        assert want in text

    @pytest.mark.parametrize("sources", [NESTED_NAMESPACES, NESTED_CLASSES], ids=["namespaces", "classes"])
    def test_nested_scopes_are_not_odr_conflicts(self, sources, tmp_path, capsys):
        """``a::inner::f`` and ``b::inner::f`` (and ``A::In::f`` and
        ``B::In::f``) are different entities: their immediate parents
        share a name, their qualified names do not."""
        paths = tu_pdbs(tmp_path, sources, ("a.cpp", "b.cpp"))
        text = self._run(paths, tmp_path, capsys)
        assert text.splitlines()[0] == "0 findings — checks run: odr"
        assert "ODR conflicts" not in text and "[PDT021]" not in text


# --------------------------------------------------- pdbbuild --check


class TestPdbbuildCheck:
    def test_build_with_checks_populates_stats(self):
        from repro.tools.pdbbuild import BuildOptions, build

        merged, stats = build(
            list(DEFECT_SOURCES), BuildOptions(), files=defect_files(),
            checks="all", trace=True,
        )
        assert stats.check is not None
        assert stats.check["findings"] == 11
        assert stats.check["errors"] == 4
        # rule_counts count findings: ODR rules emit one per definition site
        assert stats.check["rules"] == {
            "PDT001": 2, "PDT011": 1, "PDT012": 1, "PDT021": 2,
            "PDT022": 2, "PDT031": 1, "PDT032": 1, "PDT041": 1,
        }
        assert set(stats.check["checks"]) == {c.name for c in all_checks()}
        assert all(v["wall_s"] >= 0 for v in stats.check["checks"].values())
        assert stats.check_report is not None and stats.check_report.fails("warning")
        # per-check spans land in the trace
        span_names = {s.name for s in stats.trace_spans}
        assert {f"check.{c.name}" for c in all_checks()} <= span_names

    def test_stats_schema_v6_carries_check_section(self):
        from repro.tools.pdbbuild import STATS_SCHEMA, BuildOptions, build

        assert STATS_SCHEMA == "pdbbuild-stats/8"
        _merged, stats = build(
            list(DEFECT_SOURCES), BuildOptions(), files=defect_files(), checks="odr"
        )
        d = stats.to_dict()
        assert d["schema"] == "pdbbuild-stats/8"
        assert d["check"]["selection"] == "odr"
        assert d["check"]["findings"] == 4
        # ODR violations are the check's findings, not a merge counter
        assert d["check"]["rules"] == {"PDT021": 2, "PDT022": 2}
        assert "odr_conflicts" not in d["merge"]
        assert "check_report" not in d
        json.dumps(d)  # must stay serialisable

    def test_build_without_checks_has_no_check_section(self, clean_pdb):
        from repro.tools.pdbbuild import BuildOptions, build

        _m, stats = build(["a.cpp"], BuildOptions(), files={"a.cpp": "int main( ) { return 0; }\n"})
        assert stats.check is None
        assert "check" not in stats.to_dict()
