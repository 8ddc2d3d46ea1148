"""Scheduler/replay timing harness + instrumentation overhead gates.

Run as a script (CI's perf-smoke job does)::

    python benchmarks/bench_profile.py --out BENCH_smoke.json \
        --size 8 --repeats 3 --max-overhead-pct 5 \
        --max-telemetry-overhead-pct 75 \
        --batch-trace-out batch_trace.json --batch-prom-out batch_metrics.prom

Thin CLI over :func:`repro.analysis.regression.run_bench_suite`, which
times SCDS/LOMCDS/GOMCDS scheduling and the hop-level replay on each
paper benchmark and measures the cost of the *disabled* observability
probes that ``replay_schedule`` executes per window.  The gate compares
the probe *median* against the replay *median* — medians absorb the one
slow repeat a noisy CI machine produces — and the script exits non-zero
when the ratio exceeds ``--max-overhead-pct``, keeping the "dark by
default" promise honest.  ``--max-telemetry-overhead-pct`` gates the
*enabled* path: :func:`repro.analysis.regression.overhead_probe` times a
``schedule_many`` GOMCDS batch over the same benchmarks dark and under a
recording session, alternating, and the script exits non-zero when the
median-over-median overhead exceeds the budget or the schedules differ.
The probe's last recorded session can be written out as a Chrome trace
(``--batch-trace-out``) and a Prometheus exposition dump
(``--batch-prom-out``) for CI artifacts.  The tracked
baseline at the repo root (``BENCH_schedulers.json``) is produced by
this same script at the pinned config and diffed by
``repro bench-compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.regression import overhead_probe, run_bench_suite
from repro.engine import ScheduleRequest, schedule_many
from repro.obs import render_chrome, to_prometheus
from repro.workloads import paper_instance


def _batch_requests(
    mesh: tuple[int, int],
    size: int,
    benchmarks: tuple[int, ...],
    seed: int,
) -> list[ScheduleRequest]:
    """One GOMCDS request per paper benchmark, at the suite's config."""
    requests = []
    for bench in benchmarks:
        inst = paper_instance(bench, size, mesh, seed)
        requests.append(
            ScheduleRequest(
                inst.tensor, inst.model, capacity=inst.capacity,
                algorithm="gomcds", label=f"bench{bench}",
            )
        )
    return requests


def run(
    out: Path,
    mesh: tuple[int, int] = (4, 4),
    size: int = 16,
    benchmarks: tuple[int, ...] = (1, 2, 3, 4, 5),
    repeats: int = 3,
    seed: int = 1998,
    max_overhead_pct: float | None = None,
    max_telemetry_overhead_pct: float | None = None,
    batch_trace_out: Path | None = None,
    batch_prom_out: Path | None = None,
) -> int:
    """Run the suite and the gates that are given; 0 when all pass.

    The telemetry probe runs only when ``max_telemetry_overhead_pct`` is
    set, and the two export paths write the session it returns.
    """
    report = run_bench_suite(
        mesh=mesh, size=size, benchmarks=benchmarks, repeats=repeats,
        seed=seed,
    )
    failed = False
    if max_telemetry_overhead_pct is not None:
        requests = _batch_requests(mesh, size, benchmarks, seed)
        tele, session = overhead_probe(
            lambda instrument: schedule_many(requests, instrument=instrument),
            repeats,
        )
        report["batch_telemetry"] = tele
        print(
            f"batch telemetry overhead (medians): "
            f"{tele['overhead_pct']:.1f}% "
            f"({tele['dark_median_s'] * 1e3:.1f} ms dark / "
            f"{tele['instrumented_median_s'] * 1e3:.1f} ms recorded)"
        )
        if not tele["bit_identical"]:
            print(
                "FAIL: telemetry changed the schedules — the bit-identity "
                "contract is broken",
                file=sys.stderr,
            )
            failed = True
        if tele["overhead_pct"] > max_telemetry_overhead_pct:
            print(
                f"FAIL: telemetry overhead {tele['overhead_pct']:.1f}% "
                f"exceeds budget {max_telemetry_overhead_pct:g}%",
                file=sys.stderr,
            )
            failed = True
        if batch_trace_out is not None:
            batch_trace_out.write_text(render_chrome(session) + "\n")
            print(f"wrote chrome trace to {batch_trace_out}")
        if batch_prom_out is not None:
            batch_prom_out.write_text(to_prometheus(session) + "\n")
            print(f"wrote prometheus dump to {batch_prom_out}")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    overhead = report["noop_overhead"]
    print(
        f"no-op instrumentation overhead on replay (medians): "
        f"{overhead['overhead_pct']:.3f}% "
        f"({overhead['probe_s'] * 1e3:.3f} ms probes / "
        f"{overhead['replay_s'] * 1e3:.1f} ms replay)"
    )
    if max_overhead_pct is not None and overhead["overhead_pct"] > max_overhead_pct:
        print(
            f"FAIL: overhead {overhead['overhead_pct']:.3f}% exceeds budget "
            f"{max_overhead_pct:g}%",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_schedulers.json")
    )
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument(
        "--benchmarks", type=int, nargs="+", default=[1, 2, 3, 4, 5]
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None,
        help="exit 1 if the no-op probe overhead exceeds this percentage",
    )
    parser.add_argument(
        "--max-telemetry-overhead-pct", type=float, default=None,
        help="probe a GOMCDS schedule_many batch dark vs recorded; exit 1 "
        "if the median-over-median overhead exceeds this percentage or "
        "the schedules differ",
    )
    parser.add_argument(
        "--batch-trace-out", type=Path, default=None, metavar="PATH",
        help="write the probe's recorded batch session as a Chrome trace "
        "(needs --max-telemetry-overhead-pct)",
    )
    parser.add_argument(
        "--batch-prom-out", type=Path, default=None, metavar="PATH",
        help="write the probe's recorded batch metrics in Prometheus "
        "exposition format (needs --max-telemetry-overhead-pct)",
    )
    args = parser.parse_args(argv)
    if args.max_telemetry_overhead_pct is None and (
        args.batch_trace_out or args.batch_prom_out
    ):
        parser.error(
            "--batch-trace-out/--batch-prom-out need "
            "--max-telemetry-overhead-pct"
        )
    return run(
        out=args.out,
        mesh=tuple(args.mesh),
        size=args.size,
        benchmarks=tuple(args.benchmarks),
        repeats=args.repeats,
        seed=args.seed,
        max_overhead_pct=args.max_overhead_pct,
        max_telemetry_overhead_pct=args.max_telemetry_overhead_pct,
        batch_trace_out=args.batch_trace_out,
        batch_prom_out=args.batch_prom_out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
