"""The batched capacity walks, one forced branch at a time.

Each case is small enough to follow by hand and pins both the outcome
and the walk counters, then checks the numpy kernel against the python
kernel's per-datum scalar walk.
"""

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
from repro.core.gomcds import _path_walk
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh1D
from repro.mem import CapacityError, CapacityPlan
from repro.obs import NOOP, Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def counters(instr):
    return {k: c.value for k, c in instr.metrics.counters.items()}


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
    slow = gomcds(tensor, model, capacity, certify=True, kernel="python")
    # pid 0 and pid 2 tie for the evicted datum: lowest index wins
    assert fast.centers.tolist() == [[1, 1], [0, 0]]
    assert counters(instr) == {
        "gomcds.walk_batches": 2.0,
        "gomcds.walk_resolved": 1.0,
    }
    assert np.array_equal(fast.centers, slow.centers)
    for key in ("potentials", "masks", "totals"):
        assert np.array_equal(
            fast.meta["certificate"][key], slow.meta["certificate"][key]
        )


def test_walk_counters_come_only_from_the_batched_walk():
    tensor, model = tensor_1d([[[0, 1, 0]], [[0, 1, 0]]])
    capacity = CapacityPlan.uniform(3, 1)
    instr = Instrumentation.started()
    gomcds(tensor, model, capacity, kernel="python", instrument=instr)
    gomcds(tensor, model, instrument=instr)  # unconstrained: no walk
    assert counters(instr) == {}
    # SCDS and OMCDS's window 0 run the one-window walk without counters
    omcds(tensor, model, capacity, instrument=instr)
    assert counters(instr) == {}
    for kernel in ("numpy", "python"):
        instr = Instrumentation.started()
        sched = scds(tensor, model, capacity, kernel=kernel, instrument=instr)
        assert sched.centers.tolist() == [[1], [0]]
        assert counters(instr) == {"scheduler.capacity_fallbacks": 1.0}
        (walk,) = [s for s in instr.tracer.spans if s.name == "scds.capacity_walk"]
        assert walk.attrs["fallbacks"] == 1


def test_unmasked_walks_record_no_masks():
    # no base mask and no tracker: every cell is admissible, so neither
    # kernel's walk records masks, even when asked to
    tensor, model = tensor_1d([
        [[0, 3, 0], [2, 0, 0]],
        [[1, 0, 1], [0, 0, 2]],
    ])
    walked = {}
    for kernel in ("numpy", "python"):
        centers, potentials, masks = _path_walk(kernel, NOOP)(
            model.all_placement_costs(tensor).astype(np.float64),
            model.distances.astype(np.float64),
            model.volume_vector(tensor.n_data),
            tensor.data_priority_order(),
            certify=True,
            record_masks=True,
        )
        assert masks is None
        walked[kernel] = centers, potentials
    assert walked["numpy"][0].tolist() == [[1, 0], [2, 2]]
    for fast, slow in zip(walked["numpy"], walked["python"]):
        assert np.array_equal(fast, slow)


def test_infeasible_datum_raises_the_oracles_error():
    # pid 1 is down in window 1, so that window has one slot for two data
    tensor, model = tensor_1d([
        [[3, 0], [3, 0]],
        [[1, 0], [1, 0]],
    ])
    plan = FaultPlan(node_faults=(NodeFault(pid=1, start=1, end=2),))
    capacity = CapacityPlan.uniform(2, 1)
    errors = []
    for kernel in ("numpy", "python"):
        with pytest.raises(CapacityError) as err:
            reschedule_around_faults(
                tensor, model, plan, capacity, certify=True, kernel=kernel
            )
        errors.append((err.value.code, str(err.value)))
    assert errors[0] == errors[1]
    assert "no feasible center path" in errors[0][1]


def test_lomcds_idle_hold_eviction_runs_the_scalar_fallback():
    # datum 0 (heavier) idles in window 0, takes pid 2 in window 1 and holds
    # it in window 2; datum 1 takes pid 2 in window 0, loses it in window 1
    # (eviction: walk the list, pid 0) and holds pid 0 in window 2
    tensor, model = tensor_1d([
        [[0, 0, 0], [0, 0, 5], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])
    capacity = CapacityPlan.uniform(3, 1)
    runs = {}
    for kernel in ("numpy", "python"):
        instr = Instrumentation.started(provenance=True)
        sched = lomcds(tensor, model, capacity, kernel=kernel, instrument=instr)
        runs[kernel] = (sched, instr)
    (fast, fast_instr), (slow, slow_instr) = runs["numpy"], runs["python"]
    assert fast.centers.tolist() == [[0, 2, 2], [2, 0, 0]]
    assert counters(fast_instr) == {
        "lomcds.idle_holds": 2.0,
        "lomcds.idle_evictions": 1.0,
    }
    assert np.array_equal(fast.centers, slow.centers)
    assert counters(fast_instr) == counters(slow_instr)
    (fast_log,), (slow_log,) = (
        fast_instr.provenance.logs, slow_instr.provenance.logs
    )
    assert np.array_equal(fast_log.actions, slow_log.actions)
