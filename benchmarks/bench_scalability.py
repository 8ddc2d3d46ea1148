"""Scheduler runtime scaling: data size, array size, window count.

Pure performance benches (no table regeneration): how each algorithm's
wall time grows along the three problem axes.  GOMCDS is O(D·W·m²) —
vectorized across data when unconstrained — so the array-size axis is
its steepest; SCDS is one matmul + argmin and should stay near-flat.

The batch benches time the engine itself: one ``schedule_many`` batch
of the GOMCDS suite (vectorized solvers, shared solve cache) against a
sequential baseline composed from the scalar test references
(:mod:`repro.core.kernels`) — the two produce bit-identical centers
(checked), so the ratio is pure engine speedup.

Run as a script to gate that speedup in CI::

    python benchmarks/bench_scalability.py --size 8 --min-speedup 3
"""

import numpy as np
import pytest

from repro import ScheduleRequest, schedule, schedule_many
from repro.core import grouped_schedule
from repro.core.gomcds import _walk_paths
from repro.core.kernels import (
    placement_cost_tensor_python,
    shortest_center_path_python,
)
from repro.mem import OccupancyTracker
from repro.trace import build_reference_tensor, windows_by_step_count
from repro.workloads import paper_instance

SCHEDULER_NAMES = ("SCDS", "LOMCDS", "GOMCDS")


def _instance(n=16, mesh=(4, 4), bench=5, spw=None):
    inst = paper_instance(bench, n, mesh)
    if spw is None:
        return inst.tensor, inst.model
    windows = windows_by_step_count(inst.workload.trace, spw)
    return build_reference_tensor(inst.workload.trace, windows), inst.model


def _suite_requests(n=16, mesh=(4, 4), benchmarks=(1, 2, 3, 4, 5)):
    """One capacity-constrained GOMCDS request per paper benchmark."""
    requests = []
    for bench in benchmarks:
        inst = paper_instance(bench, n, mesh)
        requests.append(
            ScheduleRequest(
                inst.tensor, inst.model, capacity=inst.capacity,
                algorithm="gomcds", label=f"bench{bench}",
            )
        )
    return requests


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def bench_scaling_data_size(benchmark, name, n):
    """Runtime vs datum count (n^2 data) on benchmark 5, unconstrained."""
    tensor, model = _instance(n=n)
    benchmark(schedule, tensor, model, algorithm=name)


@pytest.mark.parametrize("mesh", [(2, 2), (4, 4), (8, 8)])
def bench_scaling_array_size(benchmark, mesh):
    """GOMCDS runtime vs processor count (m^2 DP transitions)."""
    tensor, model = _instance(n=16, mesh=mesh)
    benchmark(schedule, tensor, model, algorithm="gomcds")


@pytest.mark.parametrize("spw", [1, 4, 16])
def bench_scaling_window_count(benchmark, spw):
    """GOMCDS runtime vs window count (DP depth)."""
    tensor, model = _instance(n=16, spw=spw)
    benchmark(schedule, tensor, model, algorithm="gomcds")


def bench_grouping_scaling(benchmark):
    """Algorithm 3 on the finest windows (worst case for the greedy loop)."""
    tensor, model = _instance(n=16, spw=1)
    benchmark(grouped_schedule, tensor, model)


def _scalar_gomcds(request):
    """Constrained GOMCDS centers from the scalar references: the cost
    tensor, then the sequential path walk under the solver's tracker and
    priority order."""
    tensor, model = request.tensor, request.model
    centers, _, _ = _walk_paths(
        shortest_center_path_python,
        placement_cost_tensor_python(tensor, model),
        model.distances.astype(np.float64),
        model.volume_vector(tensor.n_data),
        tensor.data_priority_order(),
        tracker=OccupancyTracker(request.capacity, n_windows=tensor.n_windows),
    )
    return centers


def _same_centers(scalar, batched):
    return all(
        np.array_equal(centers, sched.centers)
        for centers, sched in zip(scalar, batched)
    )


def bench_batch_gomcds_suite(benchmark):
    """The batched GOMCDS suite (the engine's fast path)."""
    requests = _suite_requests(n=8)
    benchmark(schedule_many, requests)


def bench_sequential_scalar_suite(benchmark):
    """The same suite on the scalar references, one request at a time."""
    requests = _suite_requests(n=8)
    scalar = benchmark(lambda: [_scalar_gomcds(r) for r in requests])
    assert _same_centers(scalar, schedule_many(requests))


def main(argv=None):
    """CI gate: batched numpy suite must beat sequential scalar by
    ``--min-speedup``x (exit 1 when it does not)."""
    import argparse
    from statistics import median
    from time import perf_counter

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=8, help="matrix size n")
    parser.add_argument(
        "--mesh", type=int, nargs=2, default=[4, 4], metavar=("ROWS", "COLS")
    )
    parser.add_argument(
        "--benchmarks", type=int, nargs="+", default=[1, 2, 3, 4, 5]
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail unless batched/sequential speedup reaches this factor",
    )
    args = parser.parse_args(argv)

    requests = _suite_requests(
        n=args.size, mesh=tuple(args.mesh), benchmarks=tuple(args.benchmarks)
    )

    def timed(fn):
        fn()  # warm
        times = []
        for _ in range(args.repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return median(times)

    def sequential():
        return [_scalar_gomcds(r) for r in requests]

    def batched():
        return schedule_many(requests)

    if not _same_centers(sequential(), batched()):
        print("FAIL: batched centers differ from the scalar references")
        return 1
    seq_s = timed(sequential)
    batch_s = timed(batched)
    speedup = seq_s / batch_s if batch_s > 0 else float("inf")
    print(
        f"batched GOMCDS suite ({len(requests)} requests, size "
        f"{args.size}): sequential scalar {seq_s:.4f}s, batched "
        f"{batch_s:.4f}s, speedup {speedup:.1f}x "
        f"(gate: {args.min_speedup:g}x)"
    )
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below {args.min_speedup:g}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
