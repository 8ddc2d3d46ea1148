"""Smoke test of the pimbench harness: one short run of every workload.

Run with ``pytest benchmarks/pimbench -q``; it takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/pimbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pimbench")
    done = run_bench("--ops", "1", "--seed", "1998", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    records = {}
    for path in out.glob("result-*.json"):
        record = json.loads(path.read_text())
        records[record["workload"]] = record
    return out, records, json_lines(done.stdout)


def test_every_metric_is_emitted_with_its_unit(traced_run):
    _, records, lines = traced_run
    assert sorted(records) == sorted(WORKLOADS)
    expected = {
        entry["name"]: entry["unit"]
        for group in ("end_to_end", "per_layer")
        for entry in CATALOGUE[group]
    }
    for record in records.values():
        assert {
            name: metric["unit"] for name, metric in record["metrics"].items()
        } == expected
    per_layer = {entry["name"] for entry in CATALOGUE["per_layer"]}
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == per_layer


def test_names_follow_the_grammar():
    names = [w["name"] for w in CATALOGUE["workloads"]] + [
        entry["name"]
        for group in ("end_to_end", "per_layer")
        for entry in CATALOGUE[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_no_op_failed(traced_run):
    _, records, lines = traced_run
    for record in records.values():
        assert record["correct"], record["failures"]
        assert record["failed"] == 0
        assert record["attempted"] >= 1
    assert all(line["correct"] and line["failed"] == 0 for line in lines)


def test_seed_1998_costs_match_the_pins(traced_run):
    _, records, _ = traced_run
    expected = json.loads((HERE / "expected.json").read_text())["costs"]
    for workload, record in records.items():
        assert record["costs"] == expected[workload]
    # the healthy certified pipeline is the tracked baseline's GOMCDS row
    baseline = json.loads((ROOT / "BENCH_schedulers.json").read_text())
    for row in baseline["results"]:
        key = f"b{row['benchmark']}/gomcds/healthy"
        assert expected["pipeline-certify"][key] == row["gomcds_cost"]


def test_traced_pass_writes_a_chrome_trace(traced_run):
    out, _, _ = traced_run
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        names = {event.get("name") for event in trace["traceEvents"]}
        assert "pimbench.op" in names


def test_dark_run_reports_the_end_to_end_metrics(tmp_path):
    done = run_bench(
        "--workload", "dp-unconstrained-8x8", "--ops", "1", "--seed", "7",
        "--trace", "0", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    line = json_lines(done.stdout)[-1]
    assert set(line["metrics"]) == {e["name"] for e in CATALOGUE["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_compare_accepts_identical_runs(traced_run):
    out, _, _ = traced_run
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    n_metrics = len(CATALOGUE["end_to_end"]) + len(CATALOGUE["per_layer"])
    assert len(rows) == len(WORKLOADS) * n_metrics
    assert not any("REGRESSION" in row or "MISMATCH" in row for row in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "pimbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = run_bench("--workload", "batch-engine", cwd=tmp_path)
    assert done.returncode != 0
    assert not json_lines(done.stdout)
