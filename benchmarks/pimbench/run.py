"""pimbench: end-to-end and per-layer benchmark of the scheduling pipeline.

Usage (from the repository root)::

    python3 benchmarks/pimbench/run.py [--workload NAME] [--seed 1998]
        [--seconds S | --ops N] [--trace 0|1] [--out DIR]

A run of one workload is ``PROCESSES`` fresh interpreters
(``harness.py``), started one after another and never concurrently, so
``setup_s`` and ``peak_rss_mb`` belong to that workload.  Each one sets
up and measures a third of the run's length; their op times are pooled.
Splitting the run averages out what differs between interpreters (memory
layout, the host's speed at the time) and gives three set-up samples,
whose median is ``setup_s``.  The load is a closed loop from one client;
only ``batch-engine`` fans out, to two workers.

Without ``--workload`` every workload in ``BENCHMARK.json`` runs.  A run
lasts ``--seconds`` of whole rounds, or ``--ops`` ops, or by default the
workload's fixed op count.  Every metric is printed with its unit, then
one JSON line per workload: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The full record, with run metadata and the
config hash ``compare.py`` checks, goes to ``DIR/result-*.json`` and the
traced pass to ``DIR/trace-<workload>.json``.  The exit code is non-zero
when any op failed or an output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import CAL_REF_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PROCESSES = 3
DEADLINE_S = 175.0  # one invocation per workload must end within 180 s
HARNESS_FILES = ("run.py", "harness.py", "workloads.py", "expected.json")


def harness_digest() -> str:
    """Digest of the benchmark's own code and pins."""
    hasher = hashlib.sha256()
    for name in HARNESS_FILES:
        hasher.update(name.encode())
        hasher.update((HERE / name).read_bytes())
    return hasher.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def spawn(args: argparse.Namespace, workload: str, deadline: float,
          trace: bool) -> dict:
    """Run the harness once in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--processes", str(PROCESSES), "--trace", str(int(trace)),
        "--out", str(args.out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    command += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: harness exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, workload: str, catalogue: dict) -> dict:
    """``PROCESSES`` interpreters, the last one traced; the result record."""
    started_at = time.time()
    deadline = time.monotonic() + DEADLINE_S
    runs = [
        spawn(args, workload, deadline, trace=args.trace and k == PROCESSES - 1)
        for k in range(PROCESSES)
    ]
    last = runs[-1]
    # times scaled to the reference speed (see harness.CAL_REF_MS)
    times = [
        t * CAL_REF_MS / run["dark"]["cal_ms"]
        for run in runs
        for t in run["dark"]["times_ms"]
    ]
    raw_times = [t for run in runs for t in run["dark"]["times_ms"]]
    setups = [run["setup"] for run in runs]
    values = {
        "setup_s": statistics.median(
            s["setup_s"] * CAL_REF_MS / s["cal_ms"] for s in setups
        ),
        "op_ms_p50": statistics.median(times),
        "op_ms_p90": p90(times),
        "ops_per_s": len(times) / (sum(times) / 1e3),
        "comm_cost": last["comm_cost"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    if args.trace:
        values.update(last["layers"])
        for name, key in (
            ("setup.import_ms", "import_ms"), ("workloads.build_ms", "build_ms")
        ):
            values[name] = statistics.median(s[key] for s in setups)
    groups = ["end_to_end"] + (["per_layer"] if args.trace else [])
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for group in groups
        for entry in catalogue[group]
    }
    failures = [
        reason
        for run in runs
        for reason in run["failures"] + run["setup_failures"]
    ]
    if len({json.dumps(run["costs"], sort_keys=True) for run in runs}) != 1:
        failures.append(f"{workload}: interpreters disagree on the costs")
    config = {
        "workload": workload,
        "config": last["config"],
        "run": {
            "seconds": args.seconds, "ops": args.ops, "trace": args.trace,
            "processes": PROCESSES,
        },
        "harness": harness_digest(),
    }
    failed = sum(run["failed"] for run in runs)
    return {
        "workload": workload,
        "seed": args.seed,
        "started_at": started_at,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "config": config,
        "meta": {
            "nproc": last["nproc"],
            "python": last["versions"]["python"],
            "numpy": last["versions"]["numpy"],
            "git_sha": git_sha(),
            "seed": args.seed,
            "ops": {
                "dark": len(times),
                "traced": last["traced_ops"],
                "per_process": [run["dark"]["ops"] for run in runs],
            },
            "setup_samples": setups,
        },
        "correct": failed == 0 and not failures,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "raw": {
            "op_ms_p50": statistics.median(raw_times),
            "op_ms_p90": p90(raw_times),
            "ops_per_s": len(raw_times) / (sum(raw_times) / 1e3),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cal_ms": [run["dark"]["cal_ms"] for run in runs],
        },
        "costs": last["costs"],
    }


def main(argv: list[str] | None = None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1998)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, default=None,
                        help="measure whole rounds for this long")
    length.add_argument("--ops", type=int, default=None,
                        help="measure this many ops (rounded up to a round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced pass and report per-layer "
                        "metrics in the JSON line")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"pimbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in [args.workload] if args.workload else names:
        try:
            record = run_workload(args, workload, catalogue)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"pimbench: {exc}", file=sys.stderr)
            return 1
        path = args.out / (
            f"result-{workload}-s{args.seed}-{time.time_ns()}.json"
        )
        path.write_text(json.dumps(record, indent=2) + "\n")
        for reason in record["failures"]:
            print(f"FAILED {workload}: {reason}", file=sys.stderr)
        print(
            f"{workload}: {record['meta']['ops']['dark']} dark ops, "
            f"{record['meta']['ops']['traced']} traced ops, "
            f"seed {args.seed}, {record['failed']} failed"
        )
        for name, metric in record["metrics"].items():
            print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
        group = "per_layer" if args.trace else "end_to_end"
        shown = {entry["name"] for entry in catalogue[group]}
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": {
                        name: metric
                        for name, metric in record["metrics"].items()
                        if name in shown
                    },
                }
            ),
            flush=True,
        )
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
