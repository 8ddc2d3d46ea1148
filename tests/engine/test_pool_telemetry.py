"""Cross-process batch telemetry: merged traces, counter parity,
bit-identity.  The workers=1 inline path and the pooled path must be
indistinguishable in what they record and in what they return."""

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

#: Counter keys both execution paths must record (docs/observability.md).
ENGINE_COUNTERS = (
    "engine.batch.requests",
    "engine.batch.dedup_hits",
    "engine.pool.requests",
    "engine.pool.dedup_hits",
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
    harvested, _ = _recorded_run(requests, workers)
    for a, b in zip(dark, harvested):
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


@pytest.mark.parametrize("workers", [2, 4])
def test_one_chrome_lane_per_worker(workers):
    requests = _suite()
    _, instr = _recorded_run(requests, workers)
    pids = {
        s.attrs["worker_pid"]
        for s in instr.tracer.spans
        if "worker_pid" in s.attrs
    }
    trace = chrome_trace(instr)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    worker_tids = {e["tid"] for e in spans} - {0}
    # one lane per distinct worker pid; the pool may give one worker
    # several tasks, so the count is bounded by workers, not equal to it
    assert len(worker_tids) == len(pids)
    assert 1 <= len(worker_tids) <= workers
    names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "main" in names
    for pid in pids:
        assert any(f"(pid {pid})" in name for name in names)


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_span_set_matches_inline(workers):
    requests = _suite()
    _, inline = _recorded_run(requests, 1)
    _, pooled = _recorded_run(requests, workers)
    assert sorted(s.name for s in inline.tracer.spans) == sorted(
        s.name for s in pooled.tracer.spans
    )
    # the pooled run attributes every worker-side span
    solver = [
        s
        for s in pooled.tracer.spans
        if s.name == "engine.request"
    ]
    assert solver and all("worker_pid" in s.attrs for s in solver)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_unique_request_records_one_start_and_one_end(workers):
    requests = _suite()
    unique = sorted((r.algorithm, r.label) for r in requests)
    ring = flight_recorder()
    watermark = ring.next_seq
    _recorded_run(requests + requests[:1], workers)  # the repeat is deduped
    events = ring.events_since(watermark)
    for kind in ("solve.start", "solve.end"):
        solves = [e for e in events if e["kind"] == kind]
        assert sorted((e["algorithm"], e["label"]) for e in solves) == unique
        # pooled events are the workers' own, harvested and attributed
        assert all(("worker_pid" in e) == (workers > 1) for e in solves)
    ends = [e for e in events if e["kind"] == "solve.end"]
    assert all(e["elapsed_us"] > 0 for e in ends)


def test_counter_parity_between_inline_and_pooled():
    requests = _suite()
    _, inline = _recorded_run(requests, 1, cache=SolveCache())
    _, pooled = _recorded_run(requests, 2, cache=SolveCache())
    inline_counters = {
        k: c.value for k, c in inline.metrics.counters.items()
    }
    pooled_counters = {
        k: c.value for k, c in pooled.metrics.counters.items()
    }
    assert set(inline_counters) == set(pooled_counters)
    for key in ENGINE_COUNTERS:
        assert inline_counters[key] == pooled_counters[key], key


def test_merged_cache_counters_cover_the_whole_batch():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    cache = SolveCache()
    _, instr = _recorded_run(requests * 3, 2, cache=cache)
    counters = {k: c.value for k, c in instr.metrics.counters.items()}
    assert counters["engine.batch.requests"] == 3
    assert counters["engine.batch.dedup_hits"] == 2
    assert counters["engine.pool.requests"] == 1
    assert counters["engine.pool.dedup_hits"] == 2
    assert counters["engine.cache.misses"] == 1
    assert counters["engine.cache.puts"] == 1
    assert instr.metrics.histograms["engine.request_us"].count == 1


def test_pool_gauges_report_fanout_shape():
    requests = _suite()
    _, instr = _recorded_run(requests, 2)
    gauges = {k: g.value for k, g in instr.metrics.gauges.items()}
    assert gauges["engine.pool.workers"] == 2
    assert gauges["engine.pool.queue_depth"] == len(requests)


def test_dark_batch_records_nothing():
    requests = _suite(benchmarks=(1,), algorithms=("GOMCDS",))
    instr = Instrumentation.started()
    schedule_many(requests, workers=1)  # no instrument passed
    assert instr.tracer.spans == []
    assert len(instr.metrics) == 0


def test_worker_deprecation_warnings_do_not_leak(recwarn):
    import warnings

    requests = _suite(benchmarks=(1,), algorithms=("SCDS", "GOMCDS"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        schedule_many(requests, workers=2)
