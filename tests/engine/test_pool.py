"""``schedule_many``: determinism, dedup, caching, request options."""

import numpy as np
import pytest

from repro import ScheduleRequest, schedule, schedule_many
from repro.core import CostModel
from repro.engine import SolveCache
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark
from tests.cost_helpers import count_cost_builds

TOPO = Mesh2D(4, 4)


def _suite(benchmarks=(1, 2), n=8, algorithms=("SCDS", "GOMCDS")):
    model = CostModel(TOPO)
    requests = []
    for bench in benchmarks:
        wl = make_benchmark(bench, n, TOPO, seed=1998)
        tensor = build_reference_tensor(wl.trace, wl.windows)
        capacity = CapacityPlan.paper_rule(wl.n_data, TOPO.n_procs)
        for name in algorithms:
            requests.append(
                ScheduleRequest(
                    tensor, model, capacity=capacity, algorithm=name,
                    label=f"bench{bench}:{name}",
                )
            )
    return requests


def test_results_match_sequential_facade():
    requests = _suite()
    batch = schedule_many(requests)
    for request, sched in zip(requests, batch):
        direct = schedule(
            request.tensor,
            request.model,
            algorithm=request.algorithm,
            capacity=request.capacity,
        )
        assert np.array_equal(sched.centers, direct.centers)
        assert sched.method == direct.method


@pytest.mark.parametrize("workers", [2, 8])
def test_deterministic_across_worker_counts(workers):
    # ``workers`` is accepted and ignored: every count solves inline
    requests = _suite()
    baseline = schedule_many(requests, workers=1)
    other = schedule_many(requests, workers=workers)
    assert len(other) == len(baseline)
    for a, b in zip(baseline, other):
        assert np.array_equal(a.centers, b.centers)
        assert a.method == b.method


def test_batch_builds_the_cost_tensor_once_per_instance(monkeypatch):
    requests = _suite(benchmarks=(1,), algorithms=("SCDS", "LOMCDS", "GOMCDS"))
    builds = count_cost_builds(monkeypatch)
    schedule_many(requests, workers=2)
    # the three solves share one (D, W, m) tensor through the memo
    assert len(builds) == 1
    assert builds[0] is requests[0].tensor


def test_order_matches_request_order():
    requests = _suite(algorithms=("GOMCDS", "SCDS", "LOMCDS"))
    batch = schedule_many(requests)
    assert [s.method for s in batch] == [
        r.algorithm for r in requests
    ]


def test_duplicate_requests_solved_once():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    cache = SolveCache()
    batch = schedule_many(requests * 3, cache=cache)
    assert len(batch) == 3
    assert batch[0] is batch[1] is batch[2]
    # one miss (the solve), zero entries touched twice
    assert cache.stats()["misses"] == 1


def test_shared_cache_spans_calls():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    cache = SolveCache()
    first = schedule_many(requests, cache=cache)
    second = schedule_many(requests, cache=cache)
    assert second[0] is first[0]
    assert cache.stats()["hits"] >= 1


def test_cached_results_are_frozen():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    batch = schedule_many(requests, cache=SolveCache())
    assert batch[0].centers.flags.writeable is False


def test_request_options_pass_through_as_given():
    """Options reach :func:`repro.schedule` unchanged, so one the
    algorithm does not support fails there, naming what it supports."""
    model = CostModel(TOPO)
    wl = make_benchmark(1, 8, TOPO, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    request = ScheduleRequest(
        tensor, model, algorithm="GOMCDS", options={"kernel": "numpy"}
    )
    with pytest.raises(TypeError, match="kernel; supported: certify"):
        schedule_many([request])


def test_certify_option_rides_through():
    model = CostModel(TOPO)
    wl = make_benchmark(1, 8, TOPO, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    request = ScheduleRequest(
        tensor, model, algorithm="GOMCDS", options={"certify": True}
    )
    (sched,) = schedule_many([request], cache=SolveCache())
    assert sched.meta["certificate"]["kind"] == "gomcds-potentials"


def test_rejects_non_request_items():
    with pytest.raises(TypeError, match="ScheduleRequest"):
        schedule_many(["not a request"])


def test_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        schedule_many(_suite(), workers=0)


def test_empty_batch_is_empty():
    assert schedule_many([]) == []
