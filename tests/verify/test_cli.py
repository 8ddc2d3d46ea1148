"""``repro certify``: the CLI surface and its exit-code contract."""

import json

import pytest

from repro.cli import main
from repro.core import CostModel, gomcds
from repro.diagnostics import DIVERGENCE_CODES, VERIFY_CODES
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.trace import save_schedule, save_trace
from repro.verify import (
    EXIT_CERT_CLEAN,
    EXIT_CERT_DIVERGENCE,
    EXIT_CERT_ERRORS,
    certify_schedule,
    certify_workload,
    render_certify_sarif,
)
from repro.workloads import benchmark, paper_instance


def test_bench_mode_certifies_clean(capsys):
    code = main(["certify", "--bench", "1", "--size", "8"])
    out = capsys.readouterr().out
    assert code == EXIT_CERT_CLEAN
    assert "certified" in out and "proven optimal" in out


def test_faulted_bench_mode_certifies_clean(capsys):
    code = main(
        ["certify", "--bench", "1", "--size", "8", "--fail-node", "5",
         "--fail-window", "2"]
    )
    assert code == EXIT_CERT_CLEAN


def test_json_format_roundtrips(capsys):
    code = main(["certify", "--bench", "2", "--size", "8", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CERT_CLEAN
    assert payload["kind"] == "certify-report"
    assert payload["exit_code"] == 0
    assert payload["certified_data"] > 0


def test_sarif_format_carries_fingerprints():
    mesh = Mesh2D(4, 4)
    report = certify_workload(
        paper_instance(1, 8, mesh.shape), require_certificate=True
    )
    text = render_certify_sarif(report)
    doc = json.loads(text)
    run = doc["runs"][0]
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(
        VERIFY_CODES
    )
    for result in run["results"]:
        assert "reproDiagnostic/v1" in result["partialFingerprints"]


def test_file_mode_certifies_without_certificate(tmp_path, capsys):
    mesh = Mesh2D(4, 4)
    wl = benchmark(1, 8, mesh)
    tensor = wl.reference_tensor()
    model = CostModel(mesh)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity)
    spath, tpath = tmp_path / "s.npz", tmp_path / "t.npz"
    save_schedule(spath, schedule)
    save_trace(tpath, wl.trace, wl.windows)
    code = main(["certify", "--schedule", str(spath), "--trace", str(tpath)])
    out = capsys.readouterr().out
    assert code == EXIT_CERT_CLEAN
    assert "VER005" in out  # optimality unproven, flagged as info


def test_file_mode_without_trace_is_config_error(tmp_path, capsys):
    code = main(["certify", "--schedule", str(tmp_path / "s.npz")])
    assert code == 2


def test_corrupted_schedule_exits_divergence():
    import dataclasses

    mesh = Mesh2D(4, 4)
    wl = benchmark(1, 8, mesh)
    tensor = wl.reference_tensor()
    model = CostModel(mesh)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity, certify=True)
    centers = schedule.centers.copy()
    centers[0, 1] = (centers[0, 1] + 7) % mesh.n_procs
    bad = dataclasses.replace(schedule, centers=centers)
    report = certify_schedule(bad, wl.trace, model, capacity=capacity)
    assert report.exit_code == EXIT_CERT_DIVERGENCE
    assert report.diverged
    assert any(d.code in DIVERGENCE_CODES for d in report.diagnostics)


def test_static_error_exits_two():
    import dataclasses

    mesh = Mesh2D(4, 4)
    wl = benchmark(1, 8, mesh)
    tensor = wl.reference_tensor()
    model = CostModel(mesh)
    schedule = gomcds(tensor, model, None)
    centers = schedule.centers.copy()
    centers[:, 0] = 0
    bad = dataclasses.replace(schedule, centers=centers, meta={})
    tight = CapacityPlan.uniform(mesh.n_procs, 4)
    report = certify_schedule(
        bad, wl.trace, model, capacity=tight, differential=False
    )
    assert report.exit_code == EXIT_CERT_ERRORS
    assert not report.diverged


def test_mismatched_trace_is_rejected():
    mesh = Mesh2D(4, 4)
    wl = benchmark(1, 8, mesh)
    other = benchmark(2, 8, mesh)
    model = CostModel(mesh)
    schedule = gomcds(wl.reference_tensor(), model, None)
    with pytest.raises(ValueError):
        certify_schedule(schedule, other.trace, model)
