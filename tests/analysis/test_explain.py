"""The explain runner and the ``repro explain`` CLI surface."""

import json

import pytest

from repro.analysis import (
    diff_explain_records,
    explain_records,
    explain_workload,
    load_explain_records,
    render_explain_diff,
    render_explain_human,
)
from repro.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_UNREACHABLE_DATA, main
from repro.verify import check_provenance_log
from repro.workloads import paper_instance
from tests.reference_pairs import (
    assert_derivations_match,
    recorded_derivations,
)

ARGS = ["--bench", "1", "--size", "8", "--mesh", "2", "4"]


def test_explain_workload_audits_clean():
    result = explain_workload(paper_instance(1, 8, (2, 4)))
    assert result.attribution_exact
    assert result.diagnostics == []
    assert result.scheduler == "GOMCDS"
    assert result.log.label.startswith("bench1:")


def test_explain_workload_faulted_variant():
    result = explain_workload(
        paper_instance(1, 8, (2, 4)), fail_node=3, fail_window=1
    )
    assert result.attribution_exact and not result.diagnostics
    assert result.scheduler == "GOMCDS+faults"
    assert "node 3" in result.workload
    # the dead node is never used from the failure window on
    assert (result.schedule.centers[:, 1:] != 3).all()


#: The solves the CI explain step runs: GOMCDS on every benchmark,
#: constrained SCDS at the tightest paper-rule capacity, and the faulted
#: reschedule.
ORACLE_SOLVES = [
    *(
        pytest.param(bench, 2.0, {}, id=f"gomcds-bench{bench}")
        for bench in (1, 2, 3, 4, 5)
    ),
    pytest.param(1, 1.0, {"scheduler": "SCDS"}, id="scds-x1.0"),
    pytest.param(1, 2.0, {"fail_node": 5, "fail_window": 2}, id="faulted"),
]


@pytest.mark.parametrize("bench, multiplier, flags", ORACLE_SOLVES)
def test_recorded_solves_match_the_scalar_derivation(bench, multiplier, flags):
    """The scalar derivation on each solve's recorded costs, centers,
    masks and evictions reproduces the stored log, and passes the VER012
    audit on its own."""
    instance = paper_instance(bench, 8, capacity_multiplier=multiplier)
    with recorded_derivations() as calls:
        result = explain_workload(instance, **flags)
    assert result.attribution_exact and not result.diagnostics
    (reference,) = assert_derivations_match(calls)
    assert check_provenance_log(
        reference, result.schedule, instance.tensor, instance.model
    ) == []


def test_explain_workload_rejects_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        explain_workload(paper_instance(9, 16))


def test_records_round_trip_and_diff(tmp_path):
    base = explain_workload(paper_instance(1, 8, (2, 4)))
    faulted = explain_workload(paper_instance(1, 8, (2, 4)), fail_node=3)
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
    result = explain_workload(paper_instance(2, 8, (2, 4)))
    full = render_explain_human(result, top=2)
    assert "attribution: exact (bit-identical)" in full
    assert "timelines (per datum):" in full
    one_datum = render_explain_human(result, datum=0)
    assert "datum 0" in one_datum and "timelines" not in one_datum
    one_window = render_explain_human(result, window=1)
    assert "window 1:" in one_window


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


def test_cli_json_header(capsys):
    code = main(["explain", *ARGS, "--format", "json"])
    assert code == EXIT_OK
    records = json.loads(capsys.readouterr().out)
    header = records[0]
    assert header["type"] == "provenance"
    assert header["method"] == "GOMCDS"
    assert "kernel" not in header


def test_cli_overhead_gate(capsys):
    # a generous budget always passes; an impossible one exits 2
    assert main(["explain", *ARGS, "--max-overhead-pct", "10000"]) == EXIT_OK
    capsys.readouterr()
    code = main(["explain", *ARGS, "--max-overhead-pct", "-100"])
    assert code == EXIT_CONFIG_ERROR
    assert "exceeds" in capsys.readouterr().err


def test_cli_overhead_gate_fails_a_schedule_change(monkeypatch, capsys):
    # a recording session that changes the schedules is a divergence,
    # whatever the timing says
    report = {
        "repeats": 1,
        "dark_median_s": 1.0,
        "instrumented_median_s": 1.0,
        "overhead_pct": 0.0,
        "bit_identical": False,
    }
    monkeypatch.setattr(
        "repro.analysis.overhead_probe", lambda run, repeats: (report, None)
    )
    code = main(["explain", *ARGS, "--max-overhead-pct", "10000"])
    assert code == EXIT_UNREACHABLE_DATA
    assert "bit-identity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    (
        ["--capacity-multiplier", "0.5"],
        ["--fail-node", "99"],
        ["--scheduler", "OMCDS"],
    ),
)
def test_cli_overhead_gate_times_the_named_solve(flags, capsys):
    # the gate builds the same instance as the explain it guards, so a
    # configuration the explain rejects fails the gate too
    base = ["explain", "--bench", "1", "--size", "8", *flags]
    assert main(base) == EXIT_CONFIG_ERROR
    gated = [*base, "--max-overhead-pct", "50"]
    assert main(gated) == EXIT_CONFIG_ERROR
