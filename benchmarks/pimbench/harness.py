"""One pimbench workload in a fresh interpreter: set up, time, trace.

``run.py`` starts this script ``--processes`` times per run, one after
another; each one sets up, measures its share of the run's length and
prints one JSON object on stdout.  The timed loop is closed: the next op
starts only when the previous one has returned and been checked, and a
pass always ends on a whole round, so every run holds the same mix of
ops.

* The dark pass runs with observability off and gives the end-to-end
  times.
* The traced pass (``--trace 1``) runs a fifth of the run's dark op
  count, at least 10 ops, under ``Instrumentation.started()``: the
  program's own phase spans nest under the harness's ``pimbench.*``
  spans, and the session is written as ``trace-<workload>.json``.

Set-up and the dark pass also time a fixed calibration kernel (numpy and
plain Python, no repro code); ``run.py`` scales the end-to-end times by
it (see ``CAL_REF_MS``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
TRACED_SHARE = 5  # the traced pass runs 1/5 of the dark op count...
TRACED_MIN_OPS = 10  # ...and at least this many ops
MAX_REPORTED_FAILURES = 20
# On a shared host the CPU's speed drifts by 10-20% over tens of seconds,
# in CPU time as much as in wall time, which would bury a 10% regression.
# End-to-end times are therefore scaled by CAL_REF_MS over the median of
# the calibration kernel measured alongside them: they are milliseconds at
# the speed at which the kernel takes CAL_REF_MS, its median on the 2-core
# x86-64 VM (Python 3.11, numpy 2.4) this benchmark was written on.
CAL_REF_MS = 4.3
CAL_INTERVAL_S = 0.25  # between rounds, calibrate at most this often...
CAL_REPS = 3  # ...this many times
SETUP_CAL_REPS = 5


def calibration_kernel() -> int:
    """Fixed work shaped like the solvers: 64-wide min-plus steps, a
    per-datum 16x16 shortest-path loop and a plain Python loop.  It calls
    no repro code, so its time tracks the machine, never the code under
    test."""
    import numpy as np

    rng = np.random.default_rng(0)
    move = rng.random((64, 64))
    f = rng.random(64)
    acc = 0
    for _ in range(100):
        step = f[:, None] + move
        f = step.min(axis=0) + 0.01
        acc += int(step.argmin(axis=0)[0])
    costs, hops = rng.random((16, 16)), rng.random((16, 16))
    for _ in range(30):
        f = costs[0].copy()
        for w in range(1, 16):
            step = f[:, None] + hops
            f = step.min(axis=0) + costs[w]
            acc += int(step.argmin(axis=0)[0])
    for i in range(20000):
        acc += i * i % 7
    return acc


def calibrate(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        start = perf_counter_ns()
        calibration_kernel()
        times.append((perf_counter_ns() - start) / 1e6)
    return times


def run_pass(wl, obs, *, first: int, n_ops: int | None, seconds: float | None):
    """Run whole rounds of ops until ``n_ops`` ran or ``seconds`` passed."""
    times, failures, cal_ms = [], {}, []
    index = first
    started = calibrated = perf_counter()
    cal_ms += calibrate(CAL_REPS)
    while True:
        done = index - first
        if done % wl.round_len == 0:
            if (
                done >= n_ops
                if n_ops is not None
                else perf_counter() - started >= seconds
            ):
                break
            if perf_counter() - calibrated >= CAL_INTERVAL_S:
                cal_ms += calibrate(CAL_REPS)
                calibrated = perf_counter()
        op = wl.make_op(index)
        start = perf_counter_ns()
        try:
            with obs.span("pimbench.op", workload=wl.name, index=index):
                outcome = wl.run(op, obs)
            times.append((perf_counter_ns() - start) / 1e6)
            reason = wl.check(op, outcome)
        except Exception:  # a failed op is counted, and the loop goes on
            times.append((perf_counter_ns() - start) / 1e6)
            reason = traceback.format_exc()
        if reason is not None:
            failures[index] = reason
        index += 1
    return {
        "ops": index - first,
        "times_ms": times,
        "failures": failures,
        "cal_ms": statistics.median(cal_ms),
    }


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_times(spans) -> dict[str, list[tuple[float, float]]]:
    """Span name -> ``(duration_ms, self_ms)`` per span.

    Self time is the duration minus the direct children's durations.
    Spans are in pre-order per process; spans harvested from pool
    workers carry ``worker_pid`` and nest within their own lane.
    """
    out = defaultdict(list)
    stacks = defaultdict(list)  # lane -> open [span, children_us]

    def close(entry):
        span, children_us = entry
        out[span.name].append(
            (span.duration_us / 1e3, (span.duration_us - children_us) / 1e3)
        )

    for span in spans:
        stack = stacks[span.attrs.get("worker_pid")]
        while stack and stack[-1][0].depth >= span.depth:
            close(stack.pop())
        if stack:
            stack[-1][1] += span.duration_us
        stack.append([span, 0.0])
    for stack in stacks.values():
        while stack:
            close(stack.pop())
    return out


COUNTS = (
    "core.dp_cells", "core.minplus_ops", "lomcds.idle_evictions",
    "sim.fetches", "sim.moves", "sim.retries", "sim.unreachable",
    "verify.diagnostics",
)


def round_counts(wl) -> dict[str, float]:
    """Exact counts over one round's distinct instances (warm-up results;
    LOMCDS is re-solved once, traced, for its eviction counter)."""
    from repro import schedule
    from repro.obs import Instrumentation

    counts = dict.fromkeys(COUNTS, 0.0)
    for inst in wl.instances:
        if inst.algorithm == "lomcds":
            instr = Instrumentation.started()
            schedule(
                inst.tensor, inst.model, algorithm="lomcds",
                capacity=inst.capacity, instrument=instr,
            )
            evictions = instr.metrics.counters.get("lomcds.idle_evictions")
            counts["lomcds.idle_evictions"] += (
                0.0 if evictions is None else evictions.value
            )
        if inst.algorithm == "gomcds":
            d, w, m = inst.tensor.n_data, inst.tensor.n_windows, inst.model.n_procs
            counts["core.dp_cells"] += d * w * m
            counts["core.minplus_ops"] += d * (w - 1) * m * m
        if inst.sim is not None:
            counts["sim.fetches"] += inst.sim.n_fetches
            counts["sim.moves"] += inst.sim.n_moves
            counts["sim.retries"] += inst.sim.n_retries
            counts["sim.unreachable"] += inst.sim.n_unreachable
        if inst.report is not None:
            counts["verify.diagnostics"] += len(inst.report.diagnostics)
    return counts


def walk_free_path_frac(wl) -> float:
    """Share of data whose constrained GOMCDS path is the unconstrained one.

    This is the accepted/attempted ratio a speculative batch walk would
    see; with no constrained GOMCDS instance every path is walk-free.
    """
    from repro import schedule

    same = total = 0
    for inst in wl.instances:
        constrained = inst.capacity is not None and inst.plan is None
        if inst.algorithm != "gomcds" or not constrained:
            continue
        free = schedule(inst.tensor, inst.model, algorithm="gomcds")
        same += int((free.centers == inst.schedule.centers).all(axis=1).sum())
        total += inst.tensor.n_data
    return ratio(same, total) if total else 1.0


def layer_metrics(wl, instr, dark, traced) -> dict[str, float]:
    """Per-layer metrics: phase spans from the traced pass, call times
    from every untraced call (set-up, dark pass, post-checks), counts
    from the warm-up round."""
    n_ops = traced["ops"]
    op_ms = sum(traced["times_ms"])
    spans = span_times(instr.tracer.spans)

    def total(suffix: str, *, self_time: bool = True, prefix: str = "") -> float:
        return sum(
            self_ms if self_time else duration_ms
            for name, samples in spans.items()
            if name.startswith(prefix) and name.endswith(suffix)
            for duration_ms, self_ms in samples
        )

    def per_op(suffix: str) -> float:
        return total(suffix) / n_ops

    def call_ms(layer: str) -> float:
        return median_or_zero(wl.calls.get(layer, ()))

    counters = {
        name: counter.value for name, counter in instr.metrics.counters.items()
    }
    solve_ms = total("", self_time=False, prefix="scheduler.")
    walk_ms = total(".capacity_walk")
    workers = getattr(wl, "workers", None)
    overhead_ms = 0.0
    if workers is not None:
        hist = instr.metrics.histograms.get("engine.request_us")
        solved_ms = sum(hist.samples) / 1e3 if hist is not None else 0.0
        overhead_ms = op_ms - solved_ms / workers
    metrics = {
        "trace.reference_tensor_ms": call_ms("reference_tensor"),
        "cost.placement_tensor_ms": per_op(".cost_tensor"),
        "core.capacity_walk_ms": walk_ms / n_ops,
        "core.capacity_walk_share": ratio(walk_ms, solve_ms),
        "core.dp_sweep_ms": per_op("gomcds.dp_sweep"),
        "core.dp_sweep_share": ratio(total("gomcds.dp_sweep"), op_ms),
        "core.walk_free_path_frac": walk_free_path_frac(wl),
        "reschedule.ms": call_ms("reschedule"),
        "evaluate.ms": call_ms("evaluate"),
        "sim.replay_ms": call_ms("replay"),
        "verify.certify_ms": call_ms("certify"),
        "verify.certify_share": ratio(
            total("verify.certify", self_time=False), op_ms
        ),
        "verify.abstract_ms": per_op("verify.abstract"),
        "verify.certificates_ms": per_op("verify.certificates"),
        "verify.differential_ms": per_op("verify.differential"),
        "engine.solve_key_ms": call_ms("solve_key"),
        "engine.cache_hit_ratio": ratio(
            counters.get("engine.cache.hits", 0.0),
            counters.get("engine.cache.hits", 0.0)
            + counters.get("engine.cache.misses", 0.0),
        ),
        "engine.dedup_ratio": ratio(
            counters.get("engine.batch.dedup_hits", 0.0),
            counters.get("engine.batch.requests", 0.0),
        ),
        "engine.cache_evictions": counters.get("engine.cache.evictions", 0.0)
        / n_ops,
        "engine.batch_overhead_ms": overhead_ms / n_ops,
        "engine.batch_overhead_share": ratio(overhead_ms, op_ms),
        "obs.trace_overhead_pct": 100.0
        * (
            statistics.median(traced["times_ms"])
            / statistics.median(dark["times_ms"])
            - 1.0
        ),
    }
    for algorithm in ("scds", "lomcds", "gomcds"):
        metrics[f"core.solve_ms.{algorithm}"] = call_ms(f"solve.{algorithm}")
    metrics.update(round_counts(wl))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--processes", type=int, required=True,
                        help="interpreters sharing the run's length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    start = perf_counter_ns()
    import repro  # noqa: F401 -- timed: the import share of set-up

    import_ms = (perf_counter_ns() - start) / 1e6
    import numpy as np
    from workloads import PIN_SEED, WORKLOADS

    from repro.obs import NOOP, Instrumentation, render_chrome

    expected = json.loads((HERE / "expected.json").read_text())
    pins = expected["costs"].get(args.workload)
    if args.seed == PIN_SEED and pins is None:
        print(f"expected.json has no pins for {args.workload}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, pins)
    wl.setup()
    setup = {
        "setup_s": time.monotonic() - args.spawned_at,
        "cal_ms": statistics.median(calibrate(SETUP_CAL_REPS)),
        "import_ms": import_ms,
        "build_ms": statistics.median(wl.calls["build"]),
    }
    # this interpreter measures its share of the run's length
    n_ops = args.ops
    if n_ops is None and args.seconds is None:
        n_ops = wl.default_ops
    dark = run_pass(
        wl, NOOP, first=0,
        n_ops=None if n_ops is None else math.ceil(n_ops / args.processes),
        seconds=None if args.seconds is None else args.seconds / args.processes,
    )
    passes = [dark]
    layers = None
    if args.trace:
        instr = Instrumentation.started()
        untraced_calls = wl.calls
        wl.calls = defaultdict(list)  # traced calls are timed by their spans
        traced = run_pass(
            wl, instr, first=dark["ops"], seconds=None,
            n_ops=max(
                TRACED_MIN_OPS, dark["ops"] * args.processes // TRACED_SHARE
            ),
        )
        wl.calls = untraced_calls
        passes.append(traced)
    failures = {}
    for done in passes:
        failures.update(done["failures"])
    failures.update(wl.post_check())
    if args.trace:
        layers = layer_metrics(wl, instr, dark, traced)
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"trace-{args.workload}.json"
        trace_path.write_text(render_chrome(instr) + "\n")
    result = {
        "setup": setup,
        "setup_failures": wl.setup_failures,
        "config": wl.config,
        "dark": {
            "ops": dark["ops"],
            "times_ms": dark["times_ms"],
            "cal_ms": dark["cal_ms"],
        },
        "traced_ops": sum(p["ops"] for p in passes[1:]),
        "attempted": sum(p["ops"] for p in passes),
        "failed": len(failures),
        "failures": [failures[i] for i in sorted(failures)][
            :MAX_REPORTED_FAILURES
        ],
        "layers": layers,
        "comm_cost": sum(inst.cost for inst in wl.instances),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "costs": {inst.key: inst.cost for inst in wl.instances},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "nproc": os.cpu_count(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
