"""Auto-fixes (`repro lint --fix`), diagnostic dedup, and SARIF
fingerprints."""

import json

import numpy as np
import pytest

from repro.core import CostModel, gomcds
from repro.cli import main
from repro.diagnostics import (
    FLT002,
    FLT007,
    THY001,
    TRC003,
    Diagnostic,
    Severity,
)
from repro.faults import FaultPlan, NodeFault, RecoveryPolicy
from repro.grid import Mesh2D
from repro.lint import (
    FIXABLE_CODES,
    LintContext,
    apply_fixes,
    dedupe_diagnostics,
    render_diff,
    result_fingerprint,
    run_lint,
)
from repro.trace import (
    build_reference_tensor,
    save_schedule,
    save_trace,
    windows_by_step_count,
)
from repro.workloads import trace_from_counts


@pytest.fixture
def mesh():
    return Mesh2D(4, 4)


def _empty_window_context(mesh, with_schedule=False):
    counts = np.zeros((2, 4, 16), dtype=np.int64)
    counts[0, 0, 0] = 2
    counts[1, 1, 3] = 1
    counts[0, 3, 5] = 2  # window 2 stays empty
    trace, windows = trace_from_counts(counts, mesh)
    context = LintContext(trace=trace, windows=windows, topology=mesh)
    if with_schedule:
        tensor = build_reference_tensor(trace, windows)
        context.schedule = gomcds(tensor, CostModel(mesh), None)
    return context


def test_fixable_codes_are_the_documented_trio():
    assert set(FIXABLE_CODES) == {FLT002, FLT007, TRC003}


def test_fix_drops_out_of_horizon_faults(mesh):
    plan = FaultPlan(
        node_faults=(NodeFault(pid=1, start=0), NodeFault(pid=2, start=50))
    )
    context = LintContext(
        faults=plan, topology=mesh, windows=windows_by_step_count(8, 2)
    )
    report = run_lint(context)
    assert report.by_code(FLT002)
    outcome = apply_fixes(context, report.diagnostics)
    assert outcome.n_fixed == 1 and outcome.modified == {"faults"}
    assert context.faults.node_faults == (NodeFault(pid=1, start=0),)
    assert not run_lint(context).by_code(FLT002)


def test_fix_clamps_checkpoint_interval(mesh):
    context = LintContext(
        topology=mesh,
        windows=windows_by_step_count(8, 2),
        recovery=RecoveryPolicy(mode="degrade", checkpoint_interval=99),
    )
    report = run_lint(context)
    assert report.by_code(FLT007)
    outcome = apply_fixes(context, report.diagnostics)
    assert outcome.modified == {"recovery"}
    assert context.recovery.checkpoint_interval == 4
    assert not run_lint(context).by_code(FLT007)


def test_fix_merges_empty_windows_and_schedule_columns(mesh):
    context = _empty_window_context(mesh, with_schedule=True)
    n_before = context.windows.n_windows
    report = run_lint(context)
    assert report.by_code(TRC003)
    outcome = apply_fixes(context, report.diagnostics)
    assert {"windows", "schedule"} <= outcome.modified
    assert context.windows.n_windows == n_before - 1
    assert context.schedule.n_windows == context.windows.n_windows
    fresh = run_lint(context)
    assert not fresh.by_code(TRC003)
    assert fresh.n_errors == 0


def test_relint_after_merging_empty_windows_is_clean(mesh):
    # the re-lint must price the merged 3-window schedule against a cost
    # tensor of the merged windows, not the 4-window one it started with
    context = _empty_window_context(mesh, with_schedule=True)
    outcome = apply_fixes(context, run_lint(context).diagnostics)
    assert {"windows", "schedule"} <= outcome.modified
    report = run_lint(context)
    assert not report.by_code(THY001)
    assert report.exit_code == 0


def test_cli_fix_merges_empty_windows_and_exits_clean(mesh, tmp_path, capsys):
    context = _empty_window_context(mesh, with_schedule=True)
    trace_path, schedule_path = tmp_path / "t.npz", tmp_path / "s.npz"
    save_trace(trace_path, context.trace, context.windows)
    save_schedule(schedule_path, context.schedule)
    code = main([
        "lint", "--trace", str(trace_path), "--schedule", str(schedule_path),
        "--fix",
    ])
    out = capsys.readouterr().out
    assert "fixed [TRC003]" in out
    assert THY001 not in out
    assert code == 0


def test_empty_window_fix_skipped_under_faults(mesh):
    context = _empty_window_context(mesh)
    context.faults = FaultPlan(node_faults=(NodeFault(pid=1, start=0),))
    report = run_lint(context)
    outcome = apply_fixes(context, report.diagnostics)
    assert all(f.code != TRC003 for f in outcome.fixes)


def test_render_diff_shows_before_and_after(mesh):
    context = _empty_window_context(mesh)
    report = run_lint(context)
    outcome = apply_fixes(context, report.diagnostics)
    text = render_diff(outcome)
    assert text.startswith("--- windows [TRC003]")
    assert any(line.startswith("- ") for line in text.splitlines())
    assert any(line.startswith("+ ") for line in text.splitlines())
    assert render_diff(apply_fixes(context, [])) == "no applicable fixes"


def test_dedupe_preserves_order_and_distinct_findings():
    a = Diagnostic(code="SCH001", severity=Severity.ERROR, message="m", window=1)
    b = Diagnostic(code="SCH001", severity=Severity.ERROR, message="m", window=2)
    assert dedupe_diagnostics([a, b, a, b, a]) == [a, b]
    # hint differences do not make findings distinct
    c = Diagnostic(
        code="SCH001", severity=Severity.ERROR, message="m", window=1,
        hint="try this",
    )
    assert dedupe_diagnostics([a, c]) == [a]


def test_report_prepend_dedupes_loader_failures():
    from repro.lint import LintReport

    a = Diagnostic(code="TRC001", severity=Severity.ERROR, message="boom")
    report = LintReport(diagnostics=[a])
    report.prepend([a, a])
    assert report.diagnostics == [a]


def test_fingerprint_is_stable_and_location_sensitive():
    a = Diagnostic(code="SCH001", severity=Severity.ERROR, message="m", window=1)
    same = Diagnostic(
        code="SCH001", severity=Severity.ERROR, message="m", window=1
    )
    other = Diagnostic(
        code="SCH001", severity=Severity.ERROR, message="m", window=2
    )
    assert result_fingerprint(a) == result_fingerprint(same)
    assert result_fingerprint(a) != result_fingerprint(other)
    assert len(result_fingerprint(a)) == 32


def test_sarif_results_carry_fingerprints(mesh):
    from repro.lint import LintReport, render_sarif

    a = Diagnostic(code="SCH001", severity=Severity.ERROR, message="m", window=1)
    doc = json.loads(render_sarif(LintReport(diagnostics=[a])))
    result = doc["runs"][0]["results"][0]
    assert result["partialFingerprints"]["reproDiagnostic/v1"] == (
        result_fingerprint(a)
    )
