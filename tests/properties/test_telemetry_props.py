"""Telemetry is observational: instrumented and dark batch runs are
bit-identical on random instances.  The cache key excludes the
instrument by construction; this is the behavioural check."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ScheduleRequest, schedule_many
from repro.core import CostModel
from repro.engine import SolveCache, solve_key
from repro.grid import Mesh2D
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

TOPO = Mesh2D(2, 3)
ALGORITHMS = ("SCDS", "LOMCDS", "GOMCDS")


@st.composite
def batches(draw, max_data=4, max_windows=4, max_requests=3):
    model = CostModel(TOPO)
    requests = []
    for _ in range(draw(st.integers(1, max_requests))):
        counts = draw(
            arrays(
                dtype=np.int64,
                shape=(
                    draw(st.integers(1, max_data)),
                    draw(st.integers(1, max_windows)),
                    TOPO.n_procs,
                ),
                elements=st.integers(0, 3),
            )
        )
        trace, windows = trace_from_counts(counts, TOPO)
        tensor = build_reference_tensor(trace, windows)
        requests.append(
            ScheduleRequest(
                tensor, model, algorithm=draw(st.sampled_from(ALGORITHMS))
            )
        )
    return requests


@given(batches())
@settings(max_examples=30, deadline=None)
def test_instrumented_batch_is_bit_identical(requests):
    dark = schedule_many(requests)
    instr = Instrumentation.started()
    traced = schedule_many(requests, instrument=instr)
    for a, b in zip(dark, traced):
        assert np.array_equal(a.centers, b.centers)
        assert a.method == b.method
    # and the session actually recorded the batch
    assert any(s.name == "engine.batch" for s in instr.tracer.spans)


@given(batches())
@settings(max_examples=30, deadline=None)
def test_instrumented_cache_reuse_is_bit_identical(requests):
    dark = schedule_many(requests, cache=SolveCache())
    cache = SolveCache()
    schedule_many(requests, cache=cache, instrument=Instrumentation.started())
    replayed = schedule_many(
        requests, cache=cache, instrument=Instrumentation.started()
    )
    for a, b in zip(dark, replayed):
        assert np.array_equal(a.centers, b.centers)


@given(batches(max_requests=1))
@settings(max_examples=30, deadline=None)
def test_solve_key_excludes_the_instrument(requests):
    (request,) = requests
    with_instr = solve_key(
        request.tensor,
        request.model,
        request.capacity,
        request.algorithm,
        {"instrument": object()},
    )
    without = solve_key(
        request.tensor, request.model, request.capacity, request.algorithm
    )
    assert with_instr == without
