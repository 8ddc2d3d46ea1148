"""The batched capacity walks, one forced branch at a time.

Each case is small enough to follow by hand and pins both the outcome
and the walk counters, then checks the batched walk against its
per-datum scalar test reference on the same inputs.
"""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    CostModel,
    gomcds,
    lomcds,
    omcds,
    reschedule_around_faults,
    scds,
)
from repro.faults import FaultPlan, NodeFault, alive_window_mask
from repro.grid import Mesh1D
from repro.mem import CapacityError, CapacityPlan, OccupancyTracker
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import paper_instance, trace_from_counts
from tests.reference_pairs import (
    assert_derivations_match,
    assert_lomcds_walks_match,
    assert_path_walks_match,
    recorded_derivations,
)


GOMCDS = sys.modules["repro.core.gomcds"]
SCHEDULERS = {"scds": scds, "lomcds": lomcds, "gomcds": gomcds}


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def counters(instr):
    return {k: c.value for k, c in instr.metrics.counters.items()}


def walk_inputs(tensor, model):
    """The walks' shared inputs: costs, distances, volumes, order."""
    return (
        model.all_placement_costs(tensor),
        model.distances.astype(np.float64),
        model.volume_vector(tensor.n_data),
        tensor.data_priority_order(),
    )


def test_guess_hitting_a_cell_claimed_in_the_same_batch_is_resolved():
    # both data want pid 1 in both windows; one slot per processor, so the
    # lighter datum's first-batch guess collides with the heavier one's claim
    tensor, model = tensor_1d([
        [[0, 3, 0], [0, 3, 0]],
        [[0, 2, 0], [0, 2, 0]],
    ])
    capacity = CapacityPlan.uniform(3, 1)
    instr = Instrumentation.started()
    fast = gomcds(tensor, model, capacity, certify=True, instrument=instr)
    # pid 0 and pid 2 tie for the evicted datum: lowest index wins
    assert fast.centers.tolist() == [[1, 1], [0, 0]]
    assert counters(instr) == {
        "gomcds.walk_batches": 2.0,
        "gomcds.walk_resolved": 1.0,
    }
    centers, potentials, masks = assert_path_walks_match(
        *walk_inputs(tensor, model), capacity=capacity
    )
    assert np.array_equal(fast.centers, centers)
    certificate = fast.meta["certificate"]
    assert np.array_equal(certificate["potentials"], potentials)
    assert np.array_equal(certificate["masks"], masks)


def test_walk_counters_come_only_from_the_batched_walk():
    tensor, model = tensor_1d([[[0, 1, 0]], [[0, 1, 0]]])
    capacity = CapacityPlan.uniform(3, 1)
    instr = Instrumentation.started()
    gomcds(tensor, model, instrument=instr)  # unconstrained: no walk
    assert counters(instr) == {}
    # SCDS and OMCDS's window 0 run the one-window walk without counters
    omcds(tensor, model, capacity, instrument=instr)
    assert counters(instr) == {}
    instr = Instrumentation.started()
    sched = scds(tensor, model, capacity, instrument=instr)
    assert sched.centers.tolist() == [[1], [0]]
    assert counters(instr) == {"scheduler.capacity_fallbacks": 1.0}
    (walk,) = [s for s in instr.tracer.spans if s.name == "scds.capacity_walk"]
    assert walk.attrs["fallbacks"] == 1


def test_unmasked_walks_record_no_masks():
    # no base mask and no tracker: every cell is admissible, so neither
    # the batched walk nor its reference records masks, even when asked to
    tensor, model = tensor_1d([
        [[0, 3, 0], [2, 0, 0]],
        [[1, 0, 1], [0, 0, 2]],
    ])
    centers, _, masks = assert_path_walks_match(
        *walk_inputs(tensor, model), certify=True, record_masks=True
    )
    assert masks is None
    assert centers.tolist() == [[1, 0], [2, 2]]


def test_infeasible_datum_raises_the_oracles_error():
    # pid 1 is down in window 1, so that window has one slot for two data
    tensor, model = tensor_1d([
        [[3, 0], [3, 0]],
        [[1, 0], [1, 0]],
    ])
    plan = FaultPlan(node_faults=(NodeFault(pid=1, start=1, end=2),))
    capacity = CapacityPlan.uniform(2, 1)
    with pytest.raises(CapacityError) as err:
        reschedule_around_faults(tensor, model, plan, capacity, certify=True)
    walked = assert_path_walks_match(
        *walk_inputs(tensor, model),
        base=alive_window_mask(plan, tensor.n_windows, model.n_procs),
        capacity=capacity,
    )
    assert walked == (CapacityError, err.value.code, str(err.value))
    assert "no feasible center path" in str(err.value)


def test_lomcds_idle_hold_eviction_is_resolved_in_a_second_batch():
    # datum 0 (heavier) idles in window 0, takes pid 2 in window 1 and holds
    # it in window 2; datum 1 takes pid 2 in window 0, and its first-batch
    # guess holds it through window 1.  That cell is datum 0's, so the
    # second batch re-guesses datum 1: an eviction in window 1 walks the
    # list to pid 0, which window 2 holds
    tensor, model = tensor_1d([
        [[0, 0, 0], [0, 0, 5], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])
    capacity = CapacityPlan.uniform(3, 1)
    instr = Instrumentation.started(provenance=True)
    with recorded_derivations() as calls:
        sched = lomcds(tensor, model, capacity, instrument=instr)
    assert sched.centers.tolist() == [[0, 2, 2], [2, 0, 0]]
    assert counters(instr) == {
        "lomcds.walk_batches": 2.0,
        "lomcds.walk_resolved": 1.0,
        "lomcds.idle_holds": 2.0,
        "lomcds.idle_evictions": 1.0,
    }
    centers, holds, evicted, _, evictions = assert_lomcds_walks_match(
        model.all_placement_costs(tensor),
        tensor.counts.sum(axis=2) > 0,
        tensor.data_priority_order(),
        capacity,
    )
    assert np.array_equal(sched.centers, centers)
    assert (holds, evicted, evictions) == (2, 1, [(1, 1)])
    assert_derivations_match(calls)


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_walks_claim_once_per_batch_not_once_per_datum(name, bench, monkeypatch):
    # SCDS reports no walk counters, so its batches are its DP solves
    calls = Counter()

    def spy(target, attr):
        original = getattr(target, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(target, attr, counted)

    inst = paper_instance(bench, 16)
    for attr in ("claim_path", "claim_paths"):
        spy(OccupancyTracker, attr)
    spy(GOMCDS, "_all_paths_vectorized")
    instr = Instrumentation.started()
    SCHEDULERS[name](
        inst.tensor, inst.model, inst.capacity, instrument=instr
    )
    batches = (
        calls["_all_paths_vectorized"]
        if name == "scds"
        else counters(instr)[f"{name}.walk_batches"]
    )
    assert calls["claim_path"] == 0
    assert calls["claim_paths"] == batches
    assert batches < inst.tensor.n_data / 4


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_walk_memory_stays_below_half_the_cost_tensor(name, bench):
    inst = paper_instance(bench, 32)
    costs = inst.model.all_placement_costs(inst.tensor)  # memoized first
    tracemalloc.start()
    try:
        SCHEDULERS[name](inst.tensor, inst.model, inst.capacity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < costs.nbytes / 2
