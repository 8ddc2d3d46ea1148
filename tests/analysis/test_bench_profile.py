"""``benchmarks/bench_profile.py``: the perf-smoke script and its gates."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_profile.py"


@pytest.fixture(scope="module")
def bench_profile():
    spec = importlib.util.spec_from_file_location("bench_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(module, tmp_path, **gates):
    return module.run(
        out=tmp_path / "bench.json",
        size=8,
        benchmarks=(1,),
        repeats=1,
        batch_trace_out=tmp_path / "trace.json",
        batch_prom_out=tmp_path / "metrics.prom",
        **gates,
    )


def test_gates_pass_and_export_the_probe_session(bench_profile, tmp_path):
    assert _run(bench_profile, tmp_path, max_telemetry_overhead_pct=1e6) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["traceEvents"]
    assert (tmp_path / "metrics.prom").read_text().strip()
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["batch_telemetry"]["bit_identical"] is True


def test_telemetry_budget_fails_the_run(bench_profile, tmp_path):
    assert _run(bench_profile, tmp_path, max_telemetry_overhead_pct=-100) == 1


def test_schedule_change_fails_the_run(bench_profile, tmp_path, monkeypatch):
    real = bench_profile.overhead_probe

    def diverging(run, repeats):
        report, session = real(run, repeats)
        return {**report, "bit_identical": False}, session

    monkeypatch.setattr(bench_profile, "overhead_probe", diverging)
    assert _run(bench_profile, tmp_path, max_telemetry_overhead_pct=1e6) == 1


def test_exports_need_the_telemetry_gate(bench_profile, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_profile.main(
            ["--out", str(tmp_path / "b.json"), "--batch-prom-out", "m.prom"]
        )
    assert exc.value.code == 2
