"""Engine, registry, report and renderer behavior."""

import json

import numpy as np
import pytest

from repro.core import Schedule
from repro.diagnostics import ALL_CODES, Diagnostic, Severity
from repro.lint import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    LintContext,
    LintReport,
    RULES,
    SARIF_SCHEMA_URI,
    render_human,
    render_json,
    render_sarif,
    resolve_codes,
    run_lint,
    workload_context,
)
from repro.lint.engine import MAX_DIAGNOSTICS_PER_RULE
from repro.trace import windows_by_step_count
from repro.workloads import paper_instance


def bad_schedule(n_bad=1):
    """3 data x 4 windows on a 16-node mesh; n_bad centers out of range."""
    centers = np.full((3, 4), 2, dtype=np.int64)
    flat = centers.ravel()
    flat[:n_bad] = 99
    return Schedule(
        centers=flat.reshape(3, 4), windows=windows_by_step_count(8, 2)
    )


def test_registry_covers_every_code():
    assert set(RULES) == set(ALL_CODES)
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.title
        assert rule.description
        assert rule.requires


def test_resolve_codes_expands_prefixes():
    assert set(resolve_codes(["SCH"])) == {c for c in RULES if c.startswith("SCH")}
    assert resolve_codes(["FLT003"]) == ["FLT003"]
    with pytest.raises(ValueError, match="unknown"):
        resolve_codes(["XYZ999"])


def test_empty_context_runs_nothing():
    report = run_lint(LintContext())
    assert report.diagnostics == []
    assert report.rules_run == []
    assert set(report.rules_skipped) == set(RULES)
    assert report.exit_code == EXIT_CLEAN


def test_clean_workload_lints_clean(mesh44):
    report = run_lint(workload_context(paper_instance(1, 8, mesh44.shape)))
    assert report.exit_code == EXIT_CLEAN
    assert report.diagnostics == []
    assert "SCH001" in report.rules_run
    assert "THY001" in report.rules_run


def test_residency_violation_gates(mesh44):
    report = run_lint(LintContext(schedule=bad_schedule(), topology=mesh44))
    assert report.exit_code == EXIT_ERRORS
    (diag,) = report.by_code("SCH001")
    assert diag.severity == Severity.ERROR
    assert diag.datum == 0 and diag.window == 0
    assert "16-node array" in diag.message


def test_select_and_ignore(mesh44):
    context = LintContext(schedule=bad_schedule(), topology=mesh44)
    only_sch003 = run_lint(context, select=["SCH003"])
    assert only_sch003.rules_run == ["SCH003"]
    assert only_sch003.exit_code == EXIT_CLEAN
    ignored = run_lint(context, ignore=["SCH001"])
    assert "SCH001" not in ignored.rules_run
    assert "SCH001" not in ignored.codes()


def test_severity_override_downgrades(mesh44):
    context = LintContext(schedule=bad_schedule(), topology=mesh44)
    report = run_lint(
        context,
        select=["SCH001"],
        severities={"SCH001": Severity.WARNING},
    )
    assert report.n_errors == 0
    assert report.n_warnings == 1
    assert report.exit_code == EXIT_WARNINGS


def test_severity_override_unknown_code_rejected():
    with pytest.raises(ValueError, match="unknown"):
        run_lint(LintContext(), severities={"NOP000": Severity.ERROR})


def test_truncation_caps_pathological_reports(mesh44):
    # 60 data x 4 windows all out of range: 240 raw SCH001 findings.
    centers = np.full((60, 4), 99, dtype=np.int64)
    schedule = Schedule(centers=centers, windows=windows_by_step_count(8, 2))
    report = run_lint(
        LintContext(schedule=schedule, topology=mesh44), select=["SCH001"]
    )
    errors = report.by_code("SCH001")
    suppressed = [d for d in errors if d.severity == Severity.INFO]
    assert len(errors) == MAX_DIAGNOSTICS_PER_RULE + 1
    assert len(suppressed) == 1
    assert "140 further SCH001 diagnostics suppressed" in suppressed[0].message


def test_report_counts_and_exit_codes():
    report = LintReport()
    assert report.exit_code == EXIT_CLEAN
    report.diagnostics.append(
        Diagnostic(code="THY001", severity=Severity.WARNING, message="w")
    )
    assert report.exit_code == EXIT_WARNINGS
    report.diagnostics.append(
        Diagnostic(code="SCH001", severity=Severity.ERROR, message="e")
    )
    assert report.exit_code == EXIT_ERRORS
    assert report.codes() == {"THY001", "SCH001"}
    assert len(report.by_code("SCH001")) == 1


def test_render_human_summary(mesh44):
    report = run_lint(LintContext(schedule=bad_schedule(), topology=mesh44))
    text = render_human(report)
    assert "SCH001 error:" in text
    assert "hint:" in text
    assert "error(s)" in text and "rule(s) run" in text
    clean = render_human(LintReport())
    assert "clean: no diagnostics" in clean


def test_render_json_payload(mesh44):
    report = run_lint(LintContext(schedule=bad_schedule(), topology=mesh44))
    payload = json.loads(render_json(report))
    assert payload["version"] == 1
    assert payload["summary"]["errors"] == report.n_errors
    assert payload["summary"]["exit_code"] == EXIT_ERRORS
    (first,) = [d for d in payload["diagnostics"] if d["code"] == "SCH001"]
    assert first["severity"] == "error"
    assert first["datum"] == 0 and first["window"] == 0


def test_render_sarif_shape(mesh44):
    report = run_lint(LintContext(schedule=bad_schedule(), topology=mesh44))
    doc = json.loads(render_sarif(report))
    assert doc["$schema"] == SARIF_SCHEMA_URI
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert {r["id"] for r in driver["rules"]} == set(ALL_CODES)
    for rule_entry in driver["rules"]:
        assert rule_entry["shortDescription"]["text"]
        assert rule_entry["defaultConfiguration"]["level"] in (
            "error",
            "warning",
            "note",
        )
    result = next(r for r in run["results"] if r["ruleId"] == "SCH001")
    assert result["level"] == "error"
    assert result["message"]["text"]
    logical = result["locations"][0]["logicalLocations"][0]
    assert logical["fullyQualifiedName"] == "datum/0/window/0"
    assert logical["kind"] == "member"
