"""Command-line entry point: regenerate the paper's tables and ablations.

Usage::

    python -m repro table1 [--sizes 8 16 32] [--mesh 4 4] [--fast]
    python -m repro table2
    python -m repro figure1
    python -m repro ablation-window | ablation-array | ablation-memory \
        | ablation-grouping
    python -m repro faults [--node-rate 0.2] [--fail-node 5] [--sweep]
    python -m repro lint [--bench 1 --size 8 | --schedule s.npz] \
        [--trace t.npz] [--faults plan.json] [--format human|json|sarif] \
        [--fix | --diff]
    python -m repro certify [--bench 1 --size 8 | --schedule s.npz \
        --trace t.npz] [--faults plan.json] [--format human|json|sarif]
    python -m repro profile [--workload suite|lu|fft|...] [--spatial] \
        [--format summary|jsonl|chrome|prometheus] [--output trace.json]
    python -m repro batch [--workers 4] [--telemetry batch.jsonl]
    python -m repro tail telemetry.jsonl [-n 20] [--kind cache.]
    python -m repro heatmap [--bench 1 --size 16] [--scheduler GOMCDS]
    python -m repro bench-compare [--baseline BENCH_schedulers.json] \
        [--time-tolerance-pct 50] [--format human|json]
    python -m repro explain [--bench 1 --size 16] [--scheduler GOMCDS] \
        [--datum D] [--window W] [--fail-node P] [--format human|json|jsonl] \
        [--diff A.jsonl B.jsonl] [--max-overhead-pct 5]

Every subcommand additionally accepts ``--metrics PATH``: the run is
executed under a recording instrumentation session and the collected
spans/metrics are written to ``PATH`` as JSON-lines
(``docs/observability.md``).

Exit codes are deterministic: ``0`` on success, ``2`` on a configuration
error (bad arguments, a fault plan that does not fit the machine, an
infeasible capacity), ``3`` when a fault replay leaves references
unreachable or data stranded (degradation exceeded what recovery could
absorb).  ``lint``, ``heatmap`` and ``bench-compare`` follow the linter
convention instead: ``0`` clean, ``1`` warnings only, ``2`` errors (see
``docs/lint.md`` / ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    fault_sweep,
    run_fault_replay,
)
from .analysis import (
    ablation_array_size,
    ablation_grouping_strategy,
    ablation_memory_pressure,
    ablation_movement_budget,
    ablation_online_lookahead,
    ablation_partition_schemes,
    ablation_refinement,
    ablation_static_optimality,
    ablation_window_segmentation,
    ablation_replication,
    ablation_window_size,
    render_table,
    run_extended_table,
    run_figure1,
    seed_sensitivity,
    run_table1,
    run_table2,
)
from .faults import FaultPlan, NodeFault, RetryPolicy
from .mem import CapacityError

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG_ERROR", "EXIT_UNREACHABLE_DATA"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_UNREACHABLE_DATA = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[8, 16, 32],
        help="matrix sizes n (data universes n x n)",
    )
    parser.add_argument(
        "--benchmarks", type=int, nargs="+", default=[1, 2, 3, 4, 5],
        help="paper benchmark ids to run (1-5)",
    )
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS"),
        help="processor array shape",
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="per-processor memory as a multiple of the balanced minimum",
    )
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--fast", action="store_true",
        help="small sizes only (8, 16) for a quick run",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the batched solves (docs/performance.md)",
    )


def _render_rows(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    keys = list(rows[0].keys())
    widths = {
        k: max(len(str(k)), *(len(_fmt(r[k])) for r in rows)) for k in keys
    }
    header = "  ".join(f"{k:>{widths[k]}}" for k in keys)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(f"{_fmt(r[k]):>{widths[k]}}" for k in keys))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-pim",
        description="Regenerate the evaluation of 'Optimizing Data Scheduling "
        "on Processor-In-Memory Arrays' (IPPS 1998).",
    )
    # every subcommand accepts --metrics PATH (docs/observability.md)
    metrics_parent = argparse.ArgumentParser(add_help=False)
    metrics_parent.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="record spans/metrics for this run and write them to PATH "
        "as JSON-lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[metrics_parent], **kwargs)

    for name in ("table1", "table2"):
        _add_common(add_parser(name, help=f"regenerate {name}"))
    add_parser("figure1", help="the section 3.3 worked example")
    add_parser("extended", help="extended kernel suite (FFT/SOR/Floyd/bitonic)")
    add_parser("ablation-window", help="window-size sweep (DESIGN.md A)")
    add_parser("ablation-array", help="array-size sweep (DESIGN.md B)")
    add_parser("ablation-memory", help="memory-pressure sweep (DESIGN.md C)")
    add_parser("ablation-grouping", help="grouping strategies (DESIGN.md D)")
    add_parser("ablation-partition", help="iteration-partition sweep (E)")
    add_parser("ablation-online", help="online vs offline scheduling (F)")
    add_parser("ablation-replication", help="k-replica placement (G)")
    add_parser("ablation-refine", help="local-search refinement (H)")
    add_parser("ablation-segmentation", help="window boundary strategies (I)")
    add_parser("ablation-static", help="greedy vs optimal static placement (J)")
    add_parser("seeds", help="seed sensitivity of the improvements")
    add_parser("ablation-budget", help="movement-budget Pareto frontier (K)")
    _add_batch_parser(add_parser)
    _add_tail_parser(add_parser)
    _add_faults_parser(add_parser)
    _add_chaos_parser(add_parser)
    _add_lint_parser(add_parser)
    _add_certify_parser(add_parser)
    _add_profile_parser(add_parser)
    _add_heatmap_parser(add_parser)
    _add_bench_compare_parser(add_parser)
    _add_explain_parser(add_parser)
    args = parser.parse_args(argv)

    try:
        if getattr(args, "metrics", None):
            from .obs import Instrumentation, instrumented, write_export

            instr = Instrumentation.started()
            with instrumented(instr):
                code = _dispatch(args)
            write_export(instr, "jsonl", args.metrics)
            return code
        return _dispatch(args)
    except (CapacityError, ValueError) as exc:
        # FaultConfigError subclasses ValueError; CapacityError covers
        # infeasible memory/fault configurations.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _add_batch_parser(add_parser) -> None:
    parser = add_parser(
        "batch",
        help="solve a benchmark suite through the batch engine: "
        "content-addressed dedup, shared solve cache, optional worker "
        "fan-out (docs/performance.md)",
    )
    parser.add_argument(
        "--benchmarks", type=int, nargs="+", default=[1, 2, 3, 4, 5],
        help="paper benchmark ids to solve (1-5)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[16],
        help="matrix sizes n (data universes n x n)",
    )
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS"),
        help="processor array shape",
    )
    parser.add_argument(
        "--schedulers", nargs="+", default=["SCDS", "LOMCDS", "GOMCDS"],
        metavar="NAME", help="algorithms to solve each instance with",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the fan-out (1 = in-process)",
    )
    parser.add_argument(
        "--kernel", choices=("numpy", "python"), default=None,
        help="DP kernel for schedulers that support one "
        "(default: the vectorized numpy kernels)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persist solved schedules to this directory; later runs "
        "with identical inputs hit the disk cache",
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing",
    )
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write the merged batch telemetry (spans from every worker, "
        "whole-batch metrics, flight-recorder events) to PATH as "
        "JSON-lines; render it with 'repro tail'",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="fmt", help="report format",
    )


def _run_batch(args) -> int:
    import json
    from time import perf_counter

    from .core import CostModel, evaluate_schedule
    from .engine import ScheduleRequest, SolveCache, schedule_many
    from .grid import Mesh2D
    from .mem import CapacityPlan
    from .obs import Instrumentation, active, flight_recorder, to_jsonl
    from .workloads import BENCHMARK_NAMES, benchmark as make_benchmark

    topology = Mesh2D(*args.mesh)
    model = CostModel(topology)
    requests = []
    meta = []
    for size in args.sizes:
        for bench in args.benchmarks:
            workload = make_benchmark(bench, size, topology, seed=args.seed)
            tensor = workload.reference_tensor()
            capacity = CapacityPlan.paper_rule(
                workload.n_data, topology.n_procs, args.capacity_multiplier
            )
            for name in args.schedulers:
                requests.append(
                    ScheduleRequest(
                        tensor, model, capacity=capacity,
                        algorithm=name.upper(),
                        label=f"bench{bench}:{size}x{size}:{name.upper()}",
                    )
                )
                meta.append((bench, size, name.upper(), tensor))
    cache = SolveCache(disk_dir=args.cache_dir)
    # the batch CLI always records: the merged registry is the source of
    # the cache summary, and --telemetry exports the whole session
    instr = active() if active().enabled else Instrumentation.started()
    t0 = perf_counter()
    schedules = schedule_many(
        requests, workers=args.workers, cache=cache, kernel=args.kernel,
        instrument=instr,
    )
    elapsed = perf_counter() - t0
    rows = [
        {
            "benchmark": BENCHMARK_NAMES[bench],
            "size": f"{size}x{size}",
            "scheduler": name,
            "cost": evaluate_schedule(sched, tensor, model).total,
            "moves": int(sched.n_movements()),
        }
        for (bench, size, name, tensor), sched in zip(meta, schedules)
    ]
    stats = cache.stats()
    counters = {
        name: counter.value
        for name, counter in instr.metrics.counters.items()
    }
    hits = counters.get("engine.cache.hits", 0.0)
    misses = counters.get("engine.cache.misses", 0.0)
    looked_up = hits + misses
    hit_rate = 100.0 * hits / looked_up if looked_up else 0.0
    dedup_saves = counters.get("engine.batch.dedup_hits", 0.0)
    if args.telemetry:
        from pathlib import Path

        session = to_jsonl(instr)
        events = flight_recorder().to_jsonl()
        payload = "\n".join(part for part in (session, events) if part)
        Path(args.telemetry).write_text(payload + "\n")
    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "kind": "batch_report",
                    "n_requests": len(requests),
                    "workers": args.workers,
                    "kernel": args.kernel or "numpy",
                    "elapsed_s": elapsed,
                    "rows": rows,
                    "cache": stats,
                    "metrics": counters,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(_render_rows(rows))
        print(
            f"{len(requests)} request(s) in {elapsed:.3f}s "
            f"(workers={args.workers}, kernel={args.kernel or 'numpy'})"
        )
        print(
            f"cache: {hits:g} hit(s), {misses:g} miss(es), "
            f"{hit_rate:.1f}% hit rate, {dedup_saves:g} dedup save(s), "
            f"{stats['entries']} entries"
        )
    if args.telemetry:
        print(f"wrote telemetry to {args.telemetry}")
    return EXIT_OK


def _add_tail_parser(add_parser) -> None:
    parser = add_parser(
        "tail",
        help="render the last N events of a JSON-lines telemetry file "
        "(batch --telemetry, --metrics, or a flight-recorder dump); "
        "docs/observability.md",
    )
    parser.add_argument(
        "path", metavar="PATH", help="JSON-lines telemetry file to read"
    )
    parser.add_argument(
        "-n", "--events", type=int, default=20, dest="n",
        help="number of trailing events to show",
    )
    parser.add_argument(
        "--kind", default=None, metavar="PREFIX",
        help="only events whose kind starts with this prefix "
        "(e.g. cache. / solve. / recovery.)",
    )
    parser.add_argument(
        "--all", action="store_true", dest="all_records",
        help="tail every record type (spans, metrics, results), not "
        "just flight-recorder events",
    )
    parser.add_argument(
        "--format", choices=("human", "jsonl"), default="human",
        dest="fmt", help="output format",
    )


def _render_event_line(record: dict) -> str:
    from datetime import datetime, timezone

    ts = record.get("t_unix_us")
    if ts is not None:
        stamp = datetime.fromtimestamp(
            ts / 1e6, tz=timezone.utc
        ).strftime("%H:%M:%S.%f")[:-3]
    else:
        stamp = "--:--:--.---"
    kind = record.get("kind") or record.get("name") or record.get("type", "?")
    hidden = {"t_unix_us", "kind", "type", "seq", "name"}
    fields = " ".join(
        f"{key}={_fmt(value)}"
        for key, value in record.items()
        if key not in hidden and value is not None
    )
    seq = record.get("seq")
    prefix = f"[{seq:>4}]" if seq is not None else "[   -]"
    return f"{prefix} {stamp} {kind}" + (f"  {fields}" if fields else "")


def _run_tail(args) -> int:
    import json
    from pathlib import Path

    try:
        lines = Path(args.path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read telemetry file {args.path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{args.path}:{lineno}: not JSON-lines telemetry ({exc})"
            ) from exc
    events = [r for r in records if r.get("type") == "event"]
    pool = records if args.all_records or not events else events
    if args.kind is not None:
        pool = [r for r in pool if str(r.get("kind", "")).startswith(args.kind)]
    tail = pool[-args.n:] if args.n > 0 else []
    if args.fmt == "jsonl":
        for record in tail:
            print(json.dumps(record, sort_keys=True))
    else:
        for record in tail:
            print(_render_event_line(record))
        print(
            f"({len(tail)} of {len(pool)} matching record(s), "
            f"{len(records)} total in {args.path})"
        )
    return EXIT_OK


def _add_faults_parser(add_parser) -> None:
    parser = add_parser(
        "faults",
        help="fault-injection replay: degradation under node/link/message "
        "failures (docs/fault-model.md)",
    )
    parser.add_argument("--bench", type=int, default=1, help="paper benchmark id")
    parser.add_argument("--size", type=int, default=8, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument("--scheduler", default="GOMCDS")
    parser.add_argument("--seed", type=int, default=1998, help="workload seed")
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for sampled fault plans"
    )
    parser.add_argument(
        "--node-rate", type=float, default=0.0,
        help="probability each node fails (sampled plan)",
    )
    parser.add_argument(
        "--link-rate", type=float, default=0.0,
        help="probability each directed link is severed (sampled plan)",
    )
    parser.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="per-attempt transient message-drop probability",
    )
    parser.add_argument(
        "--fail-node", type=int, action="append", default=[], metavar="PID",
        help="explicitly fail a processor (repeatable)",
    )
    parser.add_argument(
        "--fail-window", type=int, default=0,
        help="window at which --fail-node processors go down",
    )
    parser.add_argument(
        "--retries", type=int, default=3, help="retry budget per reference"
    )
    parser.add_argument(
        "--deadline", type=int, default=8, help="timeout cycles per attempt"
    )
    parser.add_argument(
        "--reschedule", action="store_true",
        help="recompute centers around the faults before replaying",
    )
    parser.add_argument(
        "--no-evacuate", action="store_true",
        help="disable data evacuation on node failure",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="sweep node-failure rates instead of a single replay",
    )


def _add_chaos_parser(add_parser) -> None:
    parser = add_parser(
        "chaos",
        help="chaos campaign: seeded fault storms against the online-"
        "recovery invariants (docs/fault-model.md); exits 0 clean / 3 on "
        "an invariant violation",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="campaign seed (storms derive "
        "from it deterministically)",
    )
    parser.add_argument(
        "--scenarios", type=int, default=10, help="number of fault storms "
        "(scenario 0 is always the fault-free control)",
    )
    parser.add_argument("--bench", type=int, default=1, help="paper benchmark id")
    parser.add_argument("--size", type=int, default=8, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument("--scheduler", default="GOMCDS")
    parser.add_argument(
        "--checkpoint-interval", type=int, default=2,
        help="snapshot cadence (also the rollback-depth bound)",
    )
    parser.add_argument(
        "--max-node-rate", type=float, default=0.3,
        help="upper bound of the sampled per-node failure probability",
    )
    parser.add_argument(
        "--max-drop-rate", type=float, default=0.1,
        help="upper bound of the sampled transient-drop probability",
    )
    parser.add_argument(
        "--workload-seed", type=int, default=1998, help="workload seed"
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file (the chosen format) as well",
    )


def _run_chaos(args) -> int:
    import json

    from .analysis import run_chaos_campaign

    report = run_chaos_campaign(
        seed=args.seed,
        n_scenarios=args.scenarios,
        bench=args.bench,
        size=args.size,
        mesh=tuple(args.mesh),
        scheduler=args.scheduler,
        checkpoint_interval=args.checkpoint_interval,
        max_node_rate=args.max_node_rate,
        max_drop_rate=args.max_drop_rate,
        workload_seed=args.workload_seed,
    )
    text = (
        json.dumps(report.to_dict(), indent=2)
        if args.fmt == "json"
        else report.render()
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
            if args.output.endswith(".json")
            else text + "\n"
        )
    print(text)
    if not report.ok:
        print(
            f"error: {len(report.violations)} recovery-invariant "
            "violation(s); rerun with --seed "
            f"{args.seed} to reproduce", file=sys.stderr,
        )
    return report.exit_code


def _add_lint_parser(add_parser) -> None:
    parser = add_parser(
        "lint",
        help="static schedule/trace/fault-plan verifier with coded "
        "diagnostics (docs/lint.md); exits 0 clean / 1 warnings / 2 errors",
    )
    parser.add_argument(
        "--schedule", metavar="PATH", help=".npz schedule archive to lint"
    )
    parser.add_argument(
        "--trace", metavar="PATH", help=".npz trace archive (may carry windows)"
    )
    parser.add_argument(
        "--faults", metavar="PATH", help="fault-plan JSON to lint against"
    )
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS"),
        help="processor array the artifacts target",
    )
    parser.add_argument(
        "--bench", type=int, default=None,
        help="lint a named paper workload (1-5) instead of files",
    )
    parser.add_argument("--size", type=int, default=8, help="matrix size n")
    parser.add_argument("--scheduler", default="GOMCDS")
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--capacity", type=int, default=None,
        help="uniform per-processor capacity to lint against",
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing for --bench runs",
    )
    parser.add_argument(
        "--no-capacity", action="store_true",
        help="skip all capacity rules (unbounded memories)",
    )
    parser.add_argument(
        "--windows", type=int, default=None,
        help="window horizon when linting a bare fault plan",
    )
    parser.add_argument(
        "--recovery-mode", choices=("strict", "degrade", "replicate"),
        default=None,
        help="lint an online-recovery policy with this degradation mode "
        "(enables the FLT007/FLT008 rules)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=4,
        help="checkpoint cadence of the linted recovery policy (windows)",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--select", nargs="+", metavar="CODE", default=None,
        help="run only these codes (prefixes like SCH expand)",
    )
    parser.add_argument(
        "--ignore", nargs="+", metavar="CODE", default=None,
        help="disable these codes (prefixes expand)",
    )
    parser.add_argument(
        "--severity", action="append", default=[], metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. THY001=error (repeatable)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply the safe auto-fixes (see docs/lint.md), write repaired "
        "file artifacts back, and re-lint",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="preview what --fix would change without writing anything",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )


def _add_certify_parser(add_parser) -> None:
    parser = add_parser(
        "certify",
        help="static schedule certifier: abstract interpretation, optimality "
        "certificates and a static-vs-dynamic differential gate "
        "(docs/certify.md); exits 0 clean / 1 warnings / 2 static errors / "
        "3 divergence",
    )
    parser.add_argument(
        "--bench", type=int, default=None,
        help="certify a named paper workload (1-5), scheduling it with a "
        "certificate-emitting run",
    )
    parser.add_argument("--size", type=int, default=8, help="matrix size n")
    parser.add_argument("--scheduler", default="GOMCDS")
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing for --bench runs",
    )
    parser.add_argument(
        "--schedule", metavar="PATH",
        help=".npz schedule archive to certify instead of --bench "
        "(certificates are in-memory only, so file mode certifies "
        "everything except optimality)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help=".npz trace archive giving the ground truth for --schedule",
    )
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="fault-plan JSON: certify the degraded execution against it",
    )
    parser.add_argument(
        "--fail-node", type=int, action="append", default=[], metavar="PID",
        help="explicitly fail a processor (repeatable)",
    )
    parser.add_argument(
        "--fail-window", type=int, default=0,
        help="window at which --fail-node processors go down",
    )
    parser.add_argument(
        "--link-budget", type=float, default=None,
        help="per-link volume budget; VER003 fires above it",
    )
    parser.add_argument(
        "--hotspot-factor", type=float, default=None,
        help="VER003 fires for links loaded this many times the mean",
    )
    parser.add_argument(
        "--require-certificate", action="store_true",
        help="treat a missing optimality certificate as an error (VER005)",
    )
    parser.add_argument(
        "--no-differential", action="store_true",
        help="skip the replay comparison (purely static certification)",
    )
    parser.add_argument(
        "--no-theory", action="store_true",
        help="skip the VER011 separable-convexity cross-check",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )


def _run_certify(args) -> int:
    from .grid import Mesh2D
    from .verify import (
        certify_schedule,
        certify_workload,
        render_certify_human,
        render_certify_json,
        render_certify_sarif,
    )

    topology = Mesh2D(*args.mesh)
    faults = None
    if args.faults is not None:
        faults = FaultPlan.load_json(args.faults)
    if args.fail_node:
        explicit = tuple(
            NodeFault(pid=pid, start=args.fail_window) for pid in args.fail_node
        )
        faults = FaultPlan(
            node_faults=(faults.node_faults if faults else ()) + explicit,
            link_faults=faults.link_faults if faults else (),
            drop_rate=faults.drop_rate if faults else 0.0,
            seed=faults.seed if faults else 0,
        )
    if faults is not None:
        faults.validate_for(topology)

    common = dict(
        link_budget=args.link_budget,
        hotspot_factor=args.hotspot_factor,
        require_certificate=args.require_certificate,
        differential=not args.no_differential,
        check_theory=not args.no_theory,
    )
    if args.bench is not None:
        report = certify_workload(
            args.bench,
            args.size,
            topology,
            scheduler=args.scheduler,
            seed=args.seed,
            capacity_multiplier=args.capacity_multiplier,
            faults=faults,
            **common,
        )
    elif args.schedule is not None:
        if args.trace is None:
            raise ValueError(
                "--schedule needs --trace for the differential ground truth"
            )
        from .core import CostModel
        from .trace import load_schedule, load_trace

        schedule = load_schedule(args.schedule)
        trace, _ = load_trace(args.trace)
        report = certify_schedule(
            schedule,
            trace,
            CostModel(topology),
            faults=faults,
            label=str(args.schedule),
            **common,
        )
    else:
        raise ValueError("certify needs --bench or --schedule/--trace")

    renderer = {
        "human": render_certify_human,
        "json": render_certify_json,
        "sarif": render_certify_sarif,
    }[args.fmt]
    text = renderer(report)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(report.summary())
    else:
        print(text)
    return report.exit_code


def _add_profile_parser(add_parser) -> None:
    parser = add_parser(
        "profile",
        help="instrumented scheduling + replay: span trace, per-window "
        "metrics and cost results (docs/observability.md)",
    )
    parser.add_argument(
        "--workload", default="suite",
        help="'suite' or a paper kernel name (lu/matsq/code+rev/...) "
        "profiles the paper benchmarks; an extended kernel "
        "(fft/sor/floyd/bitonic) profiles that single workload",
    )
    parser.add_argument(
        "--benchmarks", type=int, nargs="+", default=[1, 2, 3, 4, 5],
        help="paper benchmark ids profiled in suite mode (1-5)",
    )
    parser.add_argument("--size", type=int, default=16, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument(
        "--scheduler", nargs="+", default=None, metavar="NAME",
        help="schedulers to profile (default: SCDS LOMCDS GOMCDS); the "
        "last one is replayed hop-by-hop",
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing",
    )
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--no-replay", action="store_true",
        help="skip the hop-level replay (schedulers only)",
    )
    parser.add_argument(
        "--spatial", action="store_true",
        help="record per-link/per-processor spatial telemetry during "
        "replays (heatmaps + congestion analytics in the export)",
    )
    parser.add_argument(
        "--format",
        choices=("summary", "jsonl", "chrome", "prometheus"),
        default="summary",
        dest="fmt", help="export format (chrome = trace-event JSON for "
        "chrome://tracing / Perfetto; prometheus = exposition text)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the export to a file instead of stdout",
    )


def _add_heatmap_parser(add_parser) -> None:
    parser = add_parser(
        "heatmap",
        help="spatial telemetry of one replayed schedule: processor/link "
        "ASCII heatmaps + congestion diagnostics (docs/observability.md); "
        "exits 0 clean / 1 warnings / 2 errors",
    )
    parser.add_argument("--bench", type=int, default=1, help="paper benchmark id")
    parser.add_argument("--size", type=int, default=16, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument("--scheduler", default="GOMCDS")
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing",
    )
    parser.add_argument(
        "--top-k", type=int, default=5, help="hot links listed in the report"
    )
    parser.add_argument(
        "--hotspot-factor", type=float, default=4.0,
        help="OBS001 fires for links loaded this many times the mean",
    )
    parser.add_argument(
        "--gini-threshold", type=float, default=0.6,
        help="OBS002 fires when link-load gini exceeds this",
    )


def _add_bench_compare_parser(add_parser) -> None:
    parser = add_parser(
        "bench-compare",
        help="regression sentinel: diff a fresh bench run against the "
        "tracked baseline (costs exact, timings within tolerance); "
        "exits 0 clean / 1 warnings / 2 errors",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default="BENCH_schedulers.json",
        help="tracked baseline report (benchmarks/bench_profile.py output)",
    )
    parser.add_argument(
        "--fresh", metavar="PATH", default=None,
        help="pre-recorded fresh report; omitted = re-run the suite now "
        "at the baseline's config",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats for the fresh run (default: baseline's)",
    )
    parser.add_argument(
        "--time-tolerance-pct", type=float, default=50.0,
        help="REG002 fires when a timing exceeds baseline by more than "
        "this percentage (and the absolute floor)",
    )
    parser.add_argument(
        "--min-time-delta", type=float, default=0.05, metavar="SECONDS",
        help="absolute slowdown floor below which timings never regress",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )


def _add_explain_parser(add_parser) -> None:
    parser = add_parser(
        "explain",
        help="decision provenance for one solve: per-window decision "
        "tables, per-datum timelines, counterfactual deltas and exact "
        "cost attribution (docs/explain.md); exits 3 when the log "
        "diverges from the schedule (VER012)",
    )
    parser.add_argument("--bench", type=int, default=1, help="paper benchmark id")
    parser.add_argument("--size", type=int, default=16, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--scheduler", default="GOMCDS", metavar="NAME",
        help="scheduler to explain (SCDS/LOMCDS/GOMCDS)",
    )
    parser.add_argument(
        "--kernel", choices=("numpy", "python"), default="numpy",
        help="solver kernel; the python oracle doubles as a provenance oracle",
    )
    parser.add_argument(
        "--capacity-multiplier", type=float, default=2.0,
        help="paper-rule capacity sizing",
    )
    parser.add_argument(
        "--fail-node", type=int, default=None, metavar="PID",
        help="explain the fault-aware reschedule with this processor down",
    )
    parser.add_argument(
        "--fail-window", type=int, default=0, metavar="W",
        help="window the --fail-node failure starts in",
    )
    parser.add_argument(
        "--datum", type=int, default=None, metavar="D",
        help="narrow to one datum's placement timeline",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="W",
        help="narrow to one window's decision table",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per window table in the full human rendering",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "jsonl"), default="human",
        dest="fmt", help="jsonl streams every decision record",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the rendering to a file instead of stdout",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="print the audit verdict even in machine formats (the audit "
        "itself always runs; divergence always exits 3)",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="compare two 'explain --format jsonl' exports decision by "
        "decision (e.g. fault-free vs faulted reschedule)",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None, metavar="PCT",
        help="instead of explaining, gate the dark-path cost of the "
        "provenance plumbing: median recording-but-provenance-off solve "
        "must be within PCT%% of the dark median",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats for --max-overhead-pct",
    )


def _run_explain(args) -> int:
    from .analysis import (
        diff_explain_records,
        explain_records,
        explain_solve,
        explain_workload,
        load_explain_records,
        measure_overhead,
        render_explain_diff,
        render_explain_human,
    )

    if args.diff is not None:
        diff = diff_explain_records(
            load_explain_records(args.diff[0]),
            load_explain_records(args.diff[1]),
        )
        if args.fmt == "human":
            text = render_explain_diff(diff, top=args.top)
        else:
            import json as _json

            text = _json.dumps(diff, sort_keys=True)
        _write_or_print(text, args.output)
        return EXIT_OK

    instance = dict(
        bench=args.bench,
        size=args.size,
        mesh=tuple(args.mesh),
        seed=args.seed,
        scheduler=args.scheduler.upper(),
        kernel=args.kernel,
        capacity_multiplier=args.capacity_multiplier,
        fail_node=args.fail_node,
        fail_window=args.fail_window,
    )
    if args.max_overhead_pct is not None:
        solve, _, _, label, method = explain_solve(**instance)
        report = {
            "workload": label,
            "scheduler": method,
            **measure_overhead(solve, repeats=args.repeats),
        }
        for key, value in report.items():
            print(f"  {key}: {_fmt(value)}")
        if report["overhead_pct"] > args.max_overhead_pct:
            print(
                f"error: dark-path overhead {report['overhead_pct']:.1f}% "
                f"exceeds the {args.max_overhead_pct:g}% budget",
                file=sys.stderr,
            )
            return EXIT_CONFIG_ERROR
        return EXIT_OK

    result = explain_workload(**instance)
    data = None if args.datum is None else [args.datum]
    windows = None if args.window is None else [args.window]
    if args.fmt == "human":
        text = render_explain_human(
            result, datum=args.datum, window=args.window, top=args.top
        )
    else:
        import json as _json

        records = list(explain_records(result, data=data, windows=windows))
        if args.fmt == "json":
            text = _json.dumps(records, sort_keys=True, indent=2)
        else:
            text = "\n".join(_json.dumps(rec, sort_keys=True) for rec in records)
    _write_or_print(text, args.output)
    diverged = bool(result.diagnostics) or not result.attribution_exact
    if args.check or diverged:
        verdict = "DIVERGED" if diverged else "exact"
        stream = sys.stderr if diverged else sys.stdout
        print(
            f"provenance audit: attribution {verdict} "
            f"(attributed {result.log.attribution().total:g}, "
            f"evaluated {result.breakdown.total:g}, "
            f"{len(result.diagnostics)} diagnostic(s))",
            file=stream,
        )
        for diag in result.diagnostics:
            print(f"  {diag.render()}", file=sys.stderr)
    return EXIT_UNREACHABLE_DATA if diverged else EXIT_OK


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        from pathlib import Path

        Path(output).write_text(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def _run_profile(args) -> int:
    from .analysis import PROFILE_SCHEDULERS, profile_suite
    from .obs import write_export

    schedulers = tuple(
        s.upper() for s in (args.scheduler or PROFILE_SCHEDULERS)
    )
    result = profile_suite(
        workload=args.workload,
        benchmarks=tuple(args.benchmarks),
        size=args.size,
        mesh=tuple(args.mesh),
        schedulers=schedulers,
        capacity_multiplier=args.capacity_multiplier,
        seed=args.seed,
        replay=not args.no_replay,
        spatial=args.spatial,
    )
    text = write_export(
        result.instrument, args.fmt, args.output, results=result.results
    )
    if args.output:
        print(f"wrote {args.fmt} export to {args.output}")
        if args.fmt != "summary":
            print(_render_rows(result.rows))
    else:
        print(text)
    return EXIT_OK


def _run_heatmap(args) -> int:
    from .analysis import render_heatmap, render_link_heatmap
    from .api import schedule
    from .core import CostModel
    from .grid import Mesh2D
    from .mem import CapacityPlan
    from .obs import Instrumentation, analyze_spatial
    from .sim import replay_schedule
    from .workloads import benchmark as make_benchmark

    topology = Mesh2D(*args.mesh)
    workload = make_benchmark(args.bench, args.size, topology, seed=args.seed)
    tensor = workload.reference_tensor()
    model = CostModel(topology)
    capacity = CapacityPlan.paper_rule(
        workload.n_data, topology.n_procs, args.capacity_multiplier
    )
    sched = schedule(
        tensor, model, algorithm=args.scheduler.upper(), capacity=capacity
    )
    instr = Instrumentation.started(spatial=True)
    replay_schedule(
        workload.trace, sched, model, capacity=capacity, instrument=instr
    )
    trace = instr.spatial.traces[-1]
    report = analyze_spatial(
        trace,
        hotspot_factor=args.hotspot_factor,
        gini_threshold=args.gini_threshold,
        top_k=args.top_k,
    )
    print(
        f"Spatial telemetry (benchmark {args.bench}, {args.size}x{args.size}, "
        f"{args.mesh[0]}x{args.mesh[1]} array, scheduler {sched.method})"
    )
    print(trace.summary())
    traffic = trace.per_proc_send() + trace.per_proc_recv()
    print(render_heatmap(traffic, topology, title="processor traffic (send+recv):"))
    print(
        render_heatmap(
            trace.per_proc_peak_storage(), topology, title="peak storage:"
        )
    )
    print(render_link_heatmap(trace.link_totals(), topology, title="link load:"))
    print(report.render())
    return report.exit_code


def _run_bench_compare(args) -> int:
    import json

    from .analysis import (
        compare_bench_reports,
        load_bench_report,
        run_bench_suite,
    )

    baseline = load_bench_report(args.baseline)
    if args.fresh is not None:
        fresh = load_bench_report(args.fresh)
        fresh_label = str(args.fresh)
    else:
        cfg = baseline["config"]
        fresh = run_bench_suite(
            mesh=tuple(cfg["mesh"]),
            size=cfg["size"],
            benchmarks=tuple(cfg["benchmarks"]),
            repeats=args.repeats if args.repeats is not None else cfg["repeats"],
            seed=cfg["seed"],
        )
        fresh_label = "fresh run"
    comparison = compare_bench_reports(
        baseline,
        fresh,
        time_tolerance_pct=args.time_tolerance_pct,
        min_time_delta_s=args.min_time_delta,
        baseline_label=str(args.baseline),
        fresh_label=fresh_label,
    )
    text = (
        comparison.render()
        if args.fmt == "human"
        else json.dumps(comparison.to_dict(), indent=2, sort_keys=True)
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(comparison.summary())
    else:
        print(text)
    return comparison.exit_code


def _run_lint(args) -> int:
    from .diagnostics import Severity
    from .grid import Mesh2D
    from .lint import (
        load_context,
        render_human,
        render_json,
        render_sarif,
        run_lint,
        workload_context,
    )
    from .mem import CapacityPlan
    from .trace import window_per_step

    topology = Mesh2D(*args.mesh)
    capacity = (
        None
        if args.capacity is None
        else CapacityPlan.uniform(topology.n_procs, args.capacity)
    )
    file_context, failures = load_context(
        schedule_path=args.schedule,
        trace_path=args.trace,
        faults_path=args.faults,
        topology=topology,
        capacity=capacity,
    )
    if args.bench is not None:
        context = workload_context(
            args.bench,
            args.size,
            topology,
            scheduler=args.scheduler,
            seed=args.seed,
            capacity_multiplier=args.capacity_multiplier,
            faults=file_context.faults,
        )
        # file artifacts override the generated ones, so a schedule
        # archive can be linted against a named workload's trace
        if file_context.schedule is not None:
            context.schedule = file_context.schedule
        if file_context.trace is not None:
            context.trace = file_context.trace
            context.windows = file_context.windows or context.windows
        if capacity is not None:
            context.capacity = capacity
    else:
        context = file_context
        if context.windows is None and args.windows is not None:
            context.windows = window_per_step(args.windows)
    if args.no_capacity:
        context.capacity = None
    if args.recovery_mode is not None:
        from .faults import RecoveryPolicy

        context.recovery = RecoveryPolicy(
            mode=args.recovery_mode,
            checkpoint_interval=args.checkpoint_interval,
        )

    severities = {}
    for override in args.severity:
        code, _, level = override.partition("=")
        if not level:
            raise ValueError(
                f"--severity expects CODE=LEVEL, got {override!r}"
            )
        severities[code.strip().upper()] = Severity.parse(level)

    report = run_lint(
        context, select=args.select, ignore=args.ignore, severities=severities
    )
    report.prepend(failures)

    if args.fix or args.diff:
        from .lint import apply_fixes, render_diff

        outcome = apply_fixes(context, report.diagnostics)
        if args.diff:
            print(render_diff(outcome))
            return report.exit_code
        if outcome.n_fixed:
            for fix in outcome.fixes:
                print(f"fixed [{fix.code}] {fix.artifact}: {fix.description}")
            _write_fixed_artifacts(args, context, outcome.modified)
            # re-lint the repaired context so the report reflects reality
            report = run_lint(
                context,
                select=args.select,
                ignore=args.ignore,
                severities=severities,
            )
            report.prepend(failures)
        else:
            print("no applicable fixes")

    renderer = {
        "human": render_human,
        "json": render_json,
        "sarif": render_sarif,
    }[args.fmt]
    text = renderer(report)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return report.exit_code


def _write_fixed_artifacts(args, context, modified: set[str]) -> None:
    """Persist repaired artifacts back to the files they were loaded from.

    Only file-backed artifacts can round-trip; generated ones (a --bench
    schedule, a --recovery-mode policy) are repaired in memory only.
    """
    from .trace import save_schedule, save_trace

    if "faults" in modified and args.faults:
        context.faults.save_json(args.faults)
        print(f"wrote repaired fault plan to {args.faults}")
    if ("windows" in modified or "trace" in modified) and args.trace:
        save_trace(args.trace, context.trace, context.windows)
        print(f"wrote repaired trace/windows to {args.trace}")
    if (
        ("schedule" in modified or "windows" in modified)
        and args.schedule
        and context.schedule is not None
    ):
        save_schedule(args.schedule, context.schedule)
        print(f"wrote repaired schedule to {args.schedule}")


def _run_faults(args) -> int:
    mesh = tuple(args.mesh)
    if args.sweep:
        rows = fault_sweep(
            link_rate=args.link_rate,
            drop_rate=args.drop_rate,
            bench=args.bench,
            size=args.size,
            mesh=mesh,
            scheduler=args.scheduler,
            reschedule=args.reschedule,
            fault_seed=args.fault_seed,
            seed=args.seed,
        )
        print("Fault sweep (node-failure rate vs cost/completion)")
        # rates like 0.05 must not collapse to "0.1" under the table's
        # one-decimal float formatting
        for row in rows:
            row["node_rate"] = f"{row['node_rate']:g}"
        print(_render_rows(rows))
        worst = min(rows, key=lambda r: r["completion_pct"])
        if worst["unreachable"] > 0:
            print(
                f"warning: {worst['unreachable']} references unreachable at "
                f"node rate {worst['node_rate']}", file=sys.stderr,
            )
            return EXIT_UNREACHABLE_DATA
        return EXIT_OK

    from .grid import Mesh2D
    from .workloads import benchmark as make_benchmark

    topology = Mesh2D(*mesh)
    n_windows = make_benchmark(
        args.bench, args.size, topology, seed=args.seed
    ).reference_tensor().n_windows
    explicit = tuple(
        NodeFault(pid=pid, start=args.fail_window) for pid in args.fail_node
    )
    sampled = FaultPlan.random(
        topology,
        n_windows=n_windows,
        node_rate=args.node_rate,
        link_rate=args.link_rate,
        drop_rate=args.drop_rate,
        seed=args.fault_seed,
    )
    plan = FaultPlan(
        node_faults=sampled.node_faults + explicit,
        link_faults=sampled.link_faults,
        drop_rate=args.drop_rate,
        seed=args.fault_seed,
    )
    plan.validate_for(topology)
    row = run_fault_replay(
        plan,
        bench=args.bench,
        size=args.size,
        mesh=mesh,
        scheduler=args.scheduler,
        reschedule=args.reschedule,
        retry=RetryPolicy(deadline=args.deadline, max_retries=args.retries),
        evacuate=not args.no_evacuate,
        seed=args.seed,
    )
    print(
        f"Fault replay (benchmark {args.bench}, {args.size}x{args.size}, "
        f"{mesh[0]}x{mesh[1]} array, scheduler {row['scheduler']})"
    )
    print(f"  node faults: {len(plan.node_faults)}, link faults: "
          f"{len(plan.link_faults)}, drop rate: {plan.drop_rate}")
    for key in (
        "analytic_cost", "replayed_cost", "degraded_cost", "evacuation_cost",
        "retry_cost", "delivered", "retried", "dropped", "unreachable",
        "evacuated", "lost", "skipped_moves", "completion_pct",
    ):
        print(f"  {key}: {_fmt(row[key])}")
    if row["unreachable"] > 0 or row["lost"] > 0:
        print(
            f"warning: {row['unreachable']} unreachable references, "
            f"{row['lost']} stranded data", file=sys.stderr,
        )
        return EXIT_UNREACHABLE_DATA
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "tail":
        return _run_tail(args)
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "certify":
        return _run_certify(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "heatmap":
        return _run_heatmap(args)
    if args.command == "bench-compare":
        return _run_bench_compare(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command in ("table1", "table2"):
        sizes = tuple(args.sizes if not args.fast else [8, 16])
        runner = run_table1 if args.command == "table1" else run_table2
        table = runner(
            sizes=sizes,
            benchmarks=tuple(args.benchmarks),
            mesh=tuple(args.mesh),
            capacity_multiplier=args.capacity_multiplier,
            seed=args.seed,
            workers=args.workers,
        )
        print(render_table(table))
    elif args.command == "extended":
        print(render_table(run_extended_table()))
    elif args.command == "figure1":
        result = run_figure1()
        print("Figure 1 / section 3.3 worked example (reconstructed counts)")
        print(f"  SCDS   center {result.scds_center}, cost {result.scds_cost:.0f}")
        print(
            f"  LOMCDS centers {result.lomcds_centers}, cost {result.lomcds_cost:.0f}"
        )
        print(
            f"  GOMCDS centers {result.gomcds_centers}, cost {result.gomcds_cost:.0f}"
        )
    elif args.command == "ablation-window":
        print(_render_rows(ablation_window_size()))
    elif args.command == "ablation-array":
        print(_render_rows(ablation_array_size()))
    elif args.command == "ablation-memory":
        print(_render_rows(ablation_memory_pressure()))
    elif args.command == "ablation-grouping":
        result = ablation_grouping_strategy()
        for key, value in result.items():
            print(f"  {key}: {_fmt(value)}")
    elif args.command == "ablation-partition":
        print(_render_rows(ablation_partition_schemes()))
    elif args.command == "ablation-online":
        print(_render_rows(ablation_online_lookahead()))
    elif args.command == "ablation-replication":
        print(_render_rows(ablation_replication()))
    elif args.command == "ablation-refine":
        print(_render_rows(ablation_refinement()))
    elif args.command == "ablation-segmentation":
        print(_render_rows(ablation_window_segmentation()))
    elif args.command == "ablation-static":
        print(_render_rows(ablation_static_optimality()))
    elif args.command == "seeds":
        print(_render_rows(seed_sensitivity()))
    elif args.command == "ablation-budget":
        print(_render_rows(ablation_movement_budget()))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
