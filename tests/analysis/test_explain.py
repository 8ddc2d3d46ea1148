"""The explain runner and the ``repro explain`` CLI surface."""

import json

import pytest

from repro.analysis import (
    diff_explain_records,
    explain_records,
    explain_solve,
    explain_workload,
    load_explain_records,
    measure_overhead,
    render_explain_diff,
    render_explain_human,
)
from repro.cli import EXIT_CONFIG_ERROR, EXIT_OK, main

ARGS = ["--bench", "1", "--size", "8", "--mesh", "2", "4"]


def test_explain_workload_audits_clean():
    result = explain_workload(bench=1, size=8, mesh=(2, 4))
    assert result.attribution_exact
    assert result.diagnostics == []
    assert result.scheduler == "GOMCDS"
    assert result.log.label.startswith("bench1:")


def test_explain_workload_faulted_variant():
    result = explain_workload(
        bench=1, size=8, mesh=(2, 4), fail_node=3, fail_window=1
    )
    assert result.attribution_exact and not result.diagnostics
    assert result.scheduler == "GOMCDS+faults"
    assert "node 3" in result.workload
    # the dead node is never used from the failure window on
    assert (result.schedule.centers[:, 1:] != 3).all()


def test_explain_workload_faulted_variant_honours_kernel():
    result = explain_workload(bench=1, size=8, fail_node=5, kernel="python")
    assert result.kernel == "python"
    assert result.attribution_exact and not result.diagnostics


def test_explain_workload_rejects_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        explain_workload(bench=9)


def test_records_round_trip_and_diff(tmp_path):
    base = explain_workload(bench=1, size=8, mesh=(2, 4))
    faulted = explain_workload(bench=1, size=8, mesh=(2, 4), fail_node=3)
    paths = []
    for name, result in (("a", base), ("b", faulted)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(
            "\n".join(json.dumps(rec) for rec in explain_records(result))
        )
        paths.append(path)
    parsed = [load_explain_records(p) for p in paths]
    assert parsed[0]["audit"]["attribution_exact"] is True
    assert len(parsed[0]["cells"]) == base.log.n_data * base.log.n_windows
    diff = diff_explain_records(*parsed)
    assert diff["n_changed"] > 0
    assert diff["total_delta"] == pytest.approx(
        faulted.breakdown.total - base.breakdown.total
    )
    text = render_explain_diff(diff, top=3)
    assert "total delta" in text
    # every changed record names a real decision flip
    for rec in diff["changed"]:
        assert rec["a"] != rec["b"]


def test_render_human_modes():
    result = explain_workload(bench=2, size=8, mesh=(2, 4))
    full = render_explain_human(result, top=2)
    assert "attribution: exact (bit-identical)" in full
    assert "timelines (per datum):" in full
    one_datum = render_explain_human(result, datum=0)
    assert "datum 0" in one_datum and "timelines" not in one_datum
    one_window = render_explain_human(result, window=1)
    assert "window 1:" in one_window


def test_measure_overhead_reports_medians():
    solve, *_ = explain_solve(bench=1, size=8, mesh=(2, 4))
    report = measure_overhead(solve, repeats=2, inner=1)
    assert report["dark_median_us"] > 0
    assert report["recorded_median_us"] > 0
    assert "overhead_pct" in report


def test_cli_human_and_check(capsys):
    assert main(["explain", *ARGS, "--datum", "0", "--check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "attribution: exact" in out
    assert "provenance audit: attribution exact" in out


def test_cli_jsonl_and_diff(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["explain", *ARGS, "--format", "jsonl", "--output", str(a)]) == EXIT_OK
    assert (
        main(
            [
                "explain", *ARGS, "--fail-node", "3",
                "--format", "jsonl", "--output", str(b),
            ]
        )
        == EXIT_OK
    )
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert records[0]["type"] == "provenance"
    assert records[-1]["type"] == "audit"
    assert records[-1]["attribution_exact"] is True
    capsys.readouterr()
    assert main(["explain", "--diff", str(a), str(b)]) == EXIT_OK
    assert "shared decisions changed" in capsys.readouterr().out


def test_cli_python_kernel_and_json(capsys):
    code = main(["explain", *ARGS, "--kernel", "python", "--format", "json"])
    assert code == EXIT_OK
    records = json.loads(capsys.readouterr().out)
    header = records[0]
    assert header["kernel"] == "python"


def test_cli_overhead_gate(capsys):
    # a generous budget always passes; an impossible one exits 2
    assert (
        main(["explain", *ARGS, "--max-overhead-pct", "10000", "--repeats", "1"])
        == EXIT_OK
    )
    capsys.readouterr()
    code = main(
        ["explain", *ARGS, "--max-overhead-pct", "-100", "--repeats", "1"]
    )
    assert code == EXIT_CONFIG_ERROR
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", (["--capacity-multiplier", "0.5"], ["--fail-node", "99"])
)
def test_cli_overhead_gate_times_the_named_solve(flags, capsys):
    # the gate builds the same instance as the explain it guards, so a
    # configuration the explain rejects fails the gate too
    base = ["explain", "--bench", "1", "--size", "8", *flags]
    assert main(base) == EXIT_CONFIG_ERROR
    gated = [*base, "--max-overhead-pct", "50", "--repeats", "1"]
    assert main(gated) == EXIT_CONFIG_ERROR
