"""Batch telemetry: one session, counter parity, bit-identity.  Every
solve runs in the caller's process, so ``workers`` (accepted and
ignored) must change neither what a batch records nor what it returns."""

import json

import numpy as np
import pytest

from repro import ScheduleRequest, schedule_many
from repro.core import CostModel
from repro.engine import SolveCache
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation, chrome_trace, flight_recorder
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark

TOPO = Mesh2D(4, 4)

#: Counter keys every batch records (docs/observability.md).
ENGINE_COUNTERS = (
    "engine.batch.requests",
    "engine.batch.dedup_hits",
    "engine.batch.solved",
)


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


def _recorded_run(requests, workers, cache=None):
    instr = Instrumentation.started()
    batch = schedule_many(
        requests, workers=workers, cache=cache, instrument=instr
    )
    return batch, instr


@pytest.mark.parametrize("workers", [2, 4])
def test_telemetry_keeps_results_bit_identical(workers):
    requests = _suite()
    dark = schedule_many(requests, workers=1)
    recorded, _ = _recorded_run(requests, workers)
    for a, b in zip(dark, recorded):
        assert np.array_equal(a.centers, b.centers)
        assert a.method == b.method


@pytest.mark.parametrize("workers", [2, 4])
def test_merged_chrome_trace_is_schema_valid(workers):
    requests = _suite()
    _, instr = _recorded_run(requests, workers)
    trace = json.loads(json.dumps(chrome_trace(instr)))
    for event in trace["traceEvents"]:
        assert {"name", "ph", "pid", "ts"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
            assert event["tid"] == 0
    lanes = [
        e for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert [e["args"]["name"] for e in lanes] == ["main"]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_unique_request_records_one_start_and_one_end(workers):
    requests = _suite()
    unique = sorted((r.algorithm, r.label) for r in requests)
    ring = flight_recorder()
    ring.clear()
    _recorded_run(requests + requests[:1], workers)  # the repeat is deduped
    events = ring.events()
    for kind in ("solve.start", "solve.end"):
        solves = [e for e in events if e["kind"] == kind]
        assert sorted((e["algorithm"], e["label"]) for e in solves) == unique
    ends = [e for e in events if e["kind"] == "solve.end"]
    assert all(e["elapsed_us"] > 0 for e in ends)


def test_counter_parity_between_inline_and_pooled():
    # "pooled" is a workers=2 call, which also solves inline
    requests = _suite()
    _, one = _recorded_run(requests, 1, cache=SolveCache())
    _, two = _recorded_run(requests, 2, cache=SolveCache())
    one_counters = {k: c.value for k, c in one.metrics.counters.items()}
    two_counters = {k: c.value for k, c in two.metrics.counters.items()}
    assert set(ENGINE_COUNTERS) <= set(one_counters)
    assert one_counters == two_counters


def test_merged_cache_counters_cover_the_whole_batch():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    cache = SolveCache()
    _, instr = _recorded_run(requests * 3, 2, cache=cache)
    counters = {k: c.value for k, c in instr.metrics.counters.items()}
    assert counters["engine.batch.requests"] == 3
    assert counters["engine.batch.dedup_hits"] == 2
    assert counters["engine.batch.solved"] == 1
    assert counters["engine.cache.misses"] == 1
    assert counters["engine.cache.puts"] == 1
    assert instr.metrics.histograms["engine.request_us"].count == 1


def test_pool_gauges_report_fanout_shape():
    requests = _suite()
    _, instr = _recorded_run(requests + requests[:1], 2)
    gauges = {
        k: g.value
        for k, g in instr.metrics.gauges.items()
        if k.startswith("engine.")
    }
    # the batch's shape is in its counters: no engine gauge is recorded
    assert gauges == {}
    counters = {k: c.value for k, c in instr.metrics.counters.items()}
    assert counters["engine.batch.requests"] == len(requests) + 1
    assert counters["engine.batch.dedup_hits"] == 1
    assert counters["engine.batch.solved"] == len(requests)


def test_dark_batch_records_nothing():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    instr = Instrumentation.started()
    schedule_many(requests, workers=1)  # no instrument passed
    assert instr.tracer.spans == []
    assert len(instr.metrics) == 0
