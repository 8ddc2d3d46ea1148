"""Regression sentinel tests: bench suite measurement and report diffs."""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis import (
    BENCH_SCHEDULERS,
    compare_bench_reports,
    load_bench_report,
    run_bench_suite,
)
from repro.diagnostics import REG001, REG002, REG003, Severity

TRACKED_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_schedulers.json"


@pytest.fixture(scope="module")
def suite_report():
    """One tiny real measurement shared by the module's tests."""
    return run_bench_suite(size=8, benchmarks=(1,), repeats=1)


class TestRunBenchSuite:
    def test_report_schema(self, suite_report):
        assert suite_report["config"]["schedulers"] == list(BENCH_SCHEDULERS)
        (row,) = suite_report["results"]
        assert row["benchmark"] == 1 and row["name"] == "lu"
        for sched in ("scds", "lomcds", "gomcds"):
            assert row[f"{sched}_cost"] > 0
            assert row[f"{sched}_s"] <= row[f"{sched}_median_s"]
        assert row["replay_s"] <= row["replay_median_s"]
        assert row["noop_overhead_pct"] >= 0

    def test_overhead_uses_medians(self, suite_report):
        overhead = suite_report["noop_overhead"]
        assert overhead["overhead_pct"] == pytest.approx(
            100.0 * overhead["probe_s"] / overhead["replay_s"]
        )

    def test_costs_are_deterministic(self, suite_report):
        again = run_bench_suite(size=8, benchmarks=(1,), repeats=1)
        for key in ("scds_cost", "lomcds_cost", "gomcds_cost"):
            assert again["results"][0][key] == suite_report["results"][0][key]

    def test_tracked_baseline_keys_are_all_measured(self, suite_report):
        """Every row key of the committed baseline is still produced, so
        the baseline carries no stale timings nobody re-measures."""
        baseline = load_bench_report(TRACKED_BASELINE)
        produced = set(suite_report["results"][0])
        for row in baseline["results"]:
            assert set(row) <= produced, sorted(set(row) - produced)

    def test_json_serializable(self, suite_report, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(suite_report))
        assert load_bench_report(path)["results"] == suite_report["results"]


def test_load_rejects_non_reports(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(ValueError, match="not a bench report"):
        load_bench_report(path)


class TestCompare:
    def test_identical_reports_are_clean(self, suite_report):
        comparison = compare_bench_reports(suite_report, suite_report)
        assert comparison.is_clean
        assert comparison.exit_code == 0
        assert comparison.n_rows == 1
        assert "OK" in comparison.summary()

    def test_injected_cost_regression_is_an_error(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["results"][0]["gomcds_cost"] += 10.0
        comparison = compare_bench_reports(suite_report, fresh)
        assert comparison.exit_code == 2
        (diag,) = [d for d in comparison.diagnostics if d.code == REG001]
        assert diag.severity == Severity.ERROR
        assert "GOMCDS" in diag.message
        assert comparison.cost_deltas[0]["scheduler"] == "GOMCDS"

    def test_timing_regression_is_a_warning(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["results"][0]["gomcds_s"] = (
            suite_report["results"][0]["gomcds_s"] * 10 + 1.0
        )
        comparison = compare_bench_reports(suite_report, fresh)
        assert comparison.exit_code == 1
        codes = {d.code for d in comparison.diagnostics}
        assert codes == {REG002}
        regressed = [r for r in comparison.time_rows if r["regressed"]]
        assert [r["key"] for r in regressed] == ["gomcds_s"]

    def test_small_absolute_deltas_never_regress(self, suite_report):
        # a 10x slowdown that stays under the absolute floor is noise
        fresh = copy.deepcopy(suite_report)
        fresh["results"][0]["replay_s"] = (
            suite_report["results"][0]["replay_s"] + 0.04
        )
        comparison = compare_bench_reports(
            suite_report, fresh, min_time_delta_s=0.05
        )
        assert comparison.is_clean

    def test_config_drift_is_not_comparable(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["config"]["size"] = 16
        comparison = compare_bench_reports(suite_report, fresh)
        assert comparison.exit_code == 2
        (diag,) = comparison.diagnostics
        assert diag.code == REG003
        assert "size" in diag.message
        # no row comparison happens on incomparable reports
        assert comparison.n_rows == 0 and not comparison.time_rows

    def test_repeats_drift_is_tolerated(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["config"]["repeats"] = 99
        assert compare_bench_reports(suite_report, fresh).is_clean

    def test_missing_row_is_an_error(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["results"] = []
        comparison = compare_bench_reports(suite_report, fresh)
        assert comparison.exit_code == 2
        (diag,) = comparison.diagnostics
        assert diag.code == REG003 and "missing" in diag.message

    def test_to_dict_and_render(self, suite_report):
        fresh = copy.deepcopy(suite_report)
        fresh["results"][0]["scds_cost"] += 1
        comparison = compare_bench_reports(
            suite_report, fresh, baseline_label="base.json"
        )
        d = comparison.to_dict()
        assert d["kind"] == "bench_comparison"
        assert d["exit_code"] == 2
        assert d["diagnostics"][0]["code"] == REG001
        text = comparison.render()
        assert "REG001" in text and "base.json" in text
        assert "scds_s" in text  # timing table renders
