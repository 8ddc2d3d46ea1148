"""CLI smoke tests (small configurations through the real entry point)."""

import pytest

from repro.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_UNREACHABLE_DATA, main


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_figure1(capsys):
    out = run(capsys, "figure1")
    assert "SCDS" in out and "GOMCDS" in out
    assert "cost" in out


def test_table1_fast(capsys):
    out = run(capsys, "table1", "--fast", "--benchmarks", "1", "--sizes", "8")
    assert "Table 1" in out
    assert "8x8" in out
    assert "avg" in out


def test_table2_custom_mesh(capsys):
    out = run(
        capsys, "table2", "--benchmarks", "1", "--sizes", "8", "--mesh", "2", "2"
    )
    assert "2x2" in out


def test_capacity_multiplier_flag(capsys):
    out = run(
        capsys,
        "table1",
        "--benchmarks",
        "2",
        "--sizes",
        "8",
        "--capacity-multiplier",
        "4.0",
    )
    assert "Table 1" in out


@pytest.mark.parametrize("multiplier", ("inf", "nan"))
@pytest.mark.parametrize("command", ("lint", "certify"))
def test_non_finite_capacity_multiplier_is_a_config_error(
    capsys, command, multiplier
):
    argv = [command, "--bench", "1", "--size", "8"]
    code = main([*argv, "--capacity-multiplier", multiplier])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert f"error: multiplier must be finite, got {multiplier}" in err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["tablex"])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--bench", "1", "--scheduler", "FOO"],
        ["explain", "--bench", "1", "--scheduler", "FOO"],
        ["heatmap", "--bench", "1", "--scheduler", "FOO"],
        ["faults", "--bench", "1", "--scheduler", "FOO"],
        ["lint", "--bench", "1", "--scheduler", "FOO"],
        ["chaos", "--scheduler", "FOO"],
        ["batch", "--schedulers", "GOMCDS", "FOO"],
        ["profile", "--scheduler", "FOO"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_scheduler_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "unknown scheduler 'FOO'; known: GOMCDS, LOMCDS, OMCDS, SCDS" in err


def test_extended_command(capsys):
    out = run(capsys, "extended")
    assert "Extended suite" in out
    assert "fft" not in out  # table shows sizes, not names, in rows
    assert "256" in out


def test_faults_fault_free_exits_ok(capsys):
    # no faults at all: every reference delivered, exit 0
    assert main(["faults"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "completion_pct: 100.0" in out
    assert "unreachable: 0" in out


def test_faults_with_drops_reports_retries(capsys):
    code = main(["faults", "--drop-rate", "0.1"])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_UNREACHABLE_DATA)
    assert "retried:" in out and "dropped:" in out


def test_faults_config_error_exit_code(capsys):
    # pid outside the 4x4 array is a configuration error -> exit 2
    assert main(["faults", "--fail-node", "99"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "error:" in err
    assert "99" in err and "16 processors" in err


def test_faults_bad_drop_rate_exit_code(capsys):
    assert main(["faults", "--drop-rate", "1.5"]) == EXIT_CONFIG_ERROR
    assert "[0, 1]" in capsys.readouterr().err


def test_faults_unreachable_exit_code(capsys):
    # a dead node with evacuation disabled strands its residents -> exit 3
    code = main(["faults", "--fail-node", "5", "--no-evacuate"])
    captured = capsys.readouterr()
    assert code == EXIT_UNREACHABLE_DATA
    assert "unreachable" in captured.err


def test_faults_exit_codes_are_deterministic():
    # the same invocation always lands on the same exit code
    argv = ["faults", "--node-rate", "0.2", "--fault-seed", "4"]
    codes = {main(argv) for _ in range(3)}
    assert len(codes) == 1


def test_faults_sweep_renders_table(capsys):
    code = main(
        ["faults", "--sweep", "--drop-rate", "0.05", "--reschedule"]
    )
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_UNREACHABLE_DATA)
    assert "node_rate" in out and "completion_pct" in out


def test_all_ablation_commands(capsys):
    for command in (
        "ablation-window",
        "ablation-array",
        "ablation-memory",
        "ablation-grouping",
        "ablation-partition",
        "ablation-online",
        "ablation-replication",
        "ablation-refine",
        "ablation-segmentation",
        "ablation-static",
    ):
        out = run(capsys, command)
        assert out.strip(), command


def test_ablation_memory_prints_the_multiplier_in_full(capsys):
    out = run(capsys, "ablation-memory")
    multipliers = [line.split()[0] for line in out.splitlines()[2:]]
    assert multipliers == ["1.0", "1.25", "1.5", "2.0", "4.0"]
    # measured cells keep their one-decimal format
    assert "-33.1" in out.splitlines()[2].split()


def test_metrics_flag_records_any_subcommand(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.jsonl"
    run(capsys, "figure1", "--metrics", str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    names = {r["name"] for r in records if r["type"] == "span"}
    # figure1 runs all three offline schedulers under the active session
    assert {"scheduler.scds", "scheduler.lomcds", "scheduler.gomcds"} <= names


def test_metrics_flag_composes_with_profile(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.jsonl"
    run(
        capsys,
        "profile", "--benchmarks", "1", "--size", "8",
        "--metrics", str(path),
    )
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # profile joins the active --metrics session instead of forking one
    assert any(
        r["type"] == "span" and r["name"] == "profile.instance"
        for r in records
    )


def test_profile_spatial_flag_exports_telemetry(capsys):
    out = run(
        capsys,
        "profile", "--benchmarks", "1", "--size", "8", "--spatial",
    )
    assert "Spatial telemetry:" in out
    assert "link load:" in out
    assert "congestion[GOMCDS]" in out


def test_heatmap_command(capsys):
    code = main(["heatmap", "--bench", "1", "--size", "8"])
    out = capsys.readouterr().out
    assert code in (0, 1)  # warnings allowed, errors are not
    assert "Spatial telemetry (benchmark 1" in out
    assert "processor traffic (send+recv):" in out
    assert "peak storage:" in out
    assert "link load:" in out
    assert "congestion[GOMCDS]" in out


def test_heatmap_thresholds_drive_exit_code(capsys):
    # impossible hotspot factor + gini threshold 1.0: nothing can fire
    assert (
        main(
            [
                "heatmap", "--bench", "1", "--size", "8",
                "--hotspot-factor", "1e9", "--gini-threshold", "1.0",
            ]
        )
        == 0
    )
    # gini threshold 0 flags any nonuniform load as a warning
    assert (
        main(
            [
                "heatmap", "--bench", "1", "--size", "8",
                "--hotspot-factor", "1e9", "--gini-threshold", "0.0",
            ]
        )
        == 1
    )
    capsys.readouterr()


def _bench_report_file(tmp_path, name="base.json", **overrides):
    import json

    from repro.analysis import run_bench_suite

    report = run_bench_suite(size=8, benchmarks=(1,), repeats=1)
    for key, value in overrides.items():
        report["results"][0][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return path, report


def test_bench_compare_identical_files_exit_zero(tmp_path, capsys):
    path, _ = _bench_report_file(tmp_path)
    code = main(
        [
            "bench-compare", "--baseline", str(path), "--fresh", str(path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bench-compare: OK" in out


def test_bench_compare_detects_injected_cost_regression(tmp_path, capsys):
    base, report = _bench_report_file(tmp_path)
    fresh, _ = _bench_report_file(
        tmp_path, name="fresh.json",
        gomcds_cost=report["results"][0]["gomcds_cost"] + 5.0,
    )
    code = main(
        ["bench-compare", "--baseline", str(base), "--fresh", str(fresh)]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "REG001" in out


def test_bench_compare_json_output(tmp_path, capsys):
    import json

    base, _ = _bench_report_file(tmp_path)
    out_path = tmp_path / "cmp.json"
    code = main(
        [
            "bench-compare", "--baseline", str(base), "--fresh", str(base),
            "--format", "json", "--output", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "bench_comparison"
    assert payload["exit_code"] == 0


def test_bench_compare_missing_baseline_is_config_error(capsys):
    code = main(["bench-compare", "--baseline", "does/not/exist.json"])
    capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR


def test_batch_human_output_prints_cache_summary(capsys):
    out = run(
        capsys,
        "batch", "--benchmarks", "1", "--sizes", "8",
        "--schedulers", "GOMCDS", "GOMCDS",
    )
    assert "hit rate" in out
    # the duplicate scheduler dedups: 2 requests, 1 solved
    assert "1 dedup save(s)" in out
    assert "2 request(s)" in out


def test_batch_telemetry_flag_writes_merged_session(tmp_path, capsys):
    import json

    path = tmp_path / "batch.jsonl"
    out = run(
        capsys,
        "batch", "--benchmarks", "1", "--sizes", "8",
        "--schedulers", "SCDS", "GOMCDS", "--telemetry", str(path),
    )
    assert f"wrote telemetry to {path}" in out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    types = {r["type"] for r in records}
    assert {"span", "counter", "event"} <= types
    spans = [r for r in records if r["type"] == "span"]
    assert any(r["name"] == "engine.batch" for r in spans)
    # the solver spans of both requests land in the one session
    assert sum(r["name"] == "engine.request" for r in spans) == 2
    kinds = {r["kind"] for r in records if r["type"] == "event"}
    assert {"batch.start", "solve.start", "batch.end"} <= kinds


def test_batch_json_output_carries_merged_counters(capsys):
    import json

    out = run(
        capsys,
        "batch", "--benchmarks", "1", "--sizes", "8",
        "--schedulers", "GOMCDS", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["metrics"]["engine.batch.requests"] == 1
    assert payload["metrics"]["engine.cache.misses"] == 1
    assert "workers" not in payload


@pytest.mark.parametrize("command", ["table1", "table2", "batch"])
def test_workers_flag_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_tail_renders_telemetry_events(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    run(
        capsys,
        "batch", "--benchmarks", "1", "--sizes", "8",
        "--schedulers", "GOMCDS", "--telemetry", str(path),
    )
    out = run(capsys, "tail", str(path), "-n", "5")
    assert "batch.end" in out
    assert "matching record(s)" in out


def test_tail_kind_prefix_filter_and_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "batch.jsonl"
    run(
        capsys,
        "batch", "--benchmarks", "1", "--sizes", "8",
        "--schedulers", "GOMCDS", "--telemetry", str(path),
    )
    out = run(
        capsys, "tail", str(path), "--kind", "cache.", "--format", "jsonl"
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    assert all(r["kind"].startswith("cache.") for r in records)


def test_tail_all_includes_span_records(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    run(capsys, "figure1", "--metrics", str(path))
    out = run(capsys, "tail", str(path), "--all", "-n", "200")
    assert "scheduler.gomcds" in out


def test_tail_missing_file_is_config_error(capsys):
    code = main(["tail", "does/not/exist.jsonl"])
    assert code == EXIT_CONFIG_ERROR
    assert "cannot read telemetry file" in capsys.readouterr().err


def test_tail_non_jsonl_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("this is not json\n")
    code = main(["tail", str(path)])
    assert code == EXIT_CONFIG_ERROR
    assert "not JSON-lines telemetry" in capsys.readouterr().err


def test_profile_prometheus_format(capsys):
    out = run(
        capsys,
        "profile", "--benchmarks", "1", "--size", "8",
        "--format", "prometheus",
    )
    assert "# TYPE repro_sim_fetches_total counter" in out
    assert "repro_sim_window_hops_count" in out
