"""Capacity-walk parity on *tight* constrained instances.

GOMCDS-family paths (SCDS's included, as the one-window case) are solved
speculatively in batches (``_batched_walk``) and LOMCDS walks one datum
(not one cell) at a time (``_capacity_walk``); their scalar test
references walk datum by datum and cell by cell.  Under capacities of
1.0-1.5x the balanced minimum, with hot processors every datum competes
for, each walk must agree with its reference bit for bit on the same
inputs: centers, certificate potentials, recorded masks, LOMCDS holds
and evictions, and the error raised when a datum cannot be placed.
OMCDS's window walk must equal its scalar reference too, on tensors
whose hot processor moves between windows, under 1.0-2.0x capacities or
none and hysteresis 1, 2 or infinite.  The
GOMCDS walk also runs with no capacity at all, under random admissible
masks and with pinned first-window costs (the reschedulers' inputs), and
each scheduler's decision log equals the scalar derivation's.
"""

import math
import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import (
    CostModel,
    gomcds,
    omcds,
    reschedule_around_faults,
    reschedule_from_window,
    scds,
    shortest_center_path,
)
from repro.core.kernels import merged_totals_python, shortest_center_path_python
from repro.faults import FaultPlan, NodeFault, alive_window_mask
from repro.grid import Mesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts
from tests.reference_pairs import (
    assert_derivations_match,
    assert_lomcds_walks_match,
    assert_online_walks_match,
    assert_path_walks_match,
    recorded_derivations,
)

TOPO = Mesh2D(2, 3)
DIST = CostModel(TOPO).distances.astype(np.float64)


@st.composite
def tight_instances(draw, max_data=12, max_windows=5):
    """A reference tensor whose data crowd onto one or two hot processors,
    some idle windows, and a paper-rule capacity of 1.0-1.5x the minimum."""
    n_data = draw(st.integers(2, max_data))
    n_windows = draw(st.integers(1, max_windows))
    shape = (n_data, n_windows, TOPO.n_procs)
    counts = draw(arrays(np.int64, shape, elements=st.integers(0, 2)))
    hot = draw(
        st.lists(st.integers(0, TOPO.n_procs - 1), min_size=1, max_size=2)
    )
    counts[:, :, hot] *= 4
    idle = draw(arrays(np.bool_, (n_data, n_windows)))
    counts[idle] = 0
    trace, windows = trace_from_counts(counts, TOPO)
    multiplier = draw(st.sampled_from((1.0, 1.25, 1.5)))
    capacity = CapacityPlan.paper_rule(n_data, TOPO.n_procs, multiplier)
    return build_reference_tensor(trace, windows), capacity


@st.composite
def fault_plans(draw, n_windows):
    """No fault, or one processor down for a window range."""
    if not draw(st.booleans()):
        return FaultPlan()
    start = draw(st.integers(0, n_windows - 1))
    end = draw(st.integers(start + 1, n_windows))
    pid = draw(st.integers(0, TOPO.n_procs - 1))
    return FaultPlan(node_faults=(NodeFault(pid=pid, start=start, end=end),))


def _inputs(tensor):
    """The walks' shared inputs: costs, volumes and priority order."""
    model = CostModel(TOPO)
    return (
        model.all_placement_costs(tensor),
        model.volume_vector(tensor.n_data),
        tensor.data_priority_order(),
    )


def _assert_logged_solve_matches(solve, walked):
    """Run ``solve`` with provenance on: its decision logs equal the
    scalar derivation's, and its centers are the walk's (or it raises the
    walk's error)."""
    instr = Instrumentation.started(provenance=True)
    with recorded_derivations() as calls:
        try:
            solved = solve(instr)
        except CapacityError as err:
            assert walked == (CapacityError, err.code, str(err))
            return None
    assert_derivations_match(calls)
    return solved


@given(tight_instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gomcds_kernels_agree_under_tight_capacity(instance, capped):
    tensor, capacity = instance
    capacity = capacity if capped else None
    costs, vols, order = _inputs(tensor)
    walked = assert_path_walks_match(
        costs, DIST, vols, order, capacity=capacity
    )
    solved = _assert_logged_solve_matches(
        lambda instr: schedule(
            tensor, CostModel(TOPO), algorithm="GOMCDS", capacity=capacity,
            certify=True, instrument=instr,
        ),
        walked,
    )
    if solved is not None:
        assert np.array_equal(solved.centers, walked[0])
        certificate = solved.meta["certificate"]
        assert np.array_equal(certificate["potentials"], walked[1])
        assert np.array_equal(certificate["masks"], walked[2])


@given(tight_instances())
@settings(max_examples=60, deadline=None)
def test_scds_kernels_agree_under_tight_capacity(instance):
    tensor, capacity = instance
    costs, vols, order = _inputs(tensor)
    totals = costs.sum(axis=1)
    assert np.array_equal(totals, merged_totals_python(costs))
    walked = assert_path_walks_match(
        totals[:, None, :], DIST, vols, order, capacity=capacity,
        certify=False,
    )
    solved = _assert_logged_solve_matches(
        lambda instr: schedule(
            tensor, CostModel(TOPO), algorithm="SCDS", capacity=capacity,
            instrument=instr,
        ),
        walked,
    )
    if solved is not None:
        assert np.array_equal(solved.centers[:, :1], walked[0])


#: name -> (n_data, n_windows) of the one-window walk's boundary inputs,
#: all solved under one slot per processor.
BOUNDARIES = {
    "zero data": (0, 3),
    "one window": (4, 1),
    "exactly full": (TOPO.n_procs, 3),
    "one datum over": (TOPO.n_procs + 1, 2),
}
FIRST_FIT = {"SCDS": scds, "OMCDS": omcds}


@pytest.mark.parametrize("case", BOUNDARIES)
@pytest.mark.parametrize("solver", FIRST_FIT)
def test_first_fit_boundaries_schedule_or_raise_a_coded_error(case, solver):
    n_data, n_windows = BOUNDARIES[case]
    counts = np.arange(n_data * n_windows * TOPO.n_procs, dtype=np.int64)
    counts = counts.reshape(n_data, n_windows, TOPO.n_procs) % 3
    counts[:, :, 0] += 4  # every datum wants pid 0
    trace, windows = trace_from_counts(counts, TOPO)
    tensor = build_reference_tensor(trace, windows)
    try:
        sched = FIRST_FIT[solver](
            tensor, CostModel(TOPO), CapacityPlan.uniform(TOPO.n_procs, 1)
        )
    except CapacityError as err:
        assert err.code and n_data > TOPO.n_procs
        return
    assert sched.centers.shape == (n_data, n_windows)
    for w in range(n_windows):
        load = np.bincount(sched.centers[:, w], minlength=TOPO.n_procs)
        assert load.max(initial=0) <= 1
    if n_data == TOPO.n_procs:
        assert sorted(sched.centers[:, 0]) == list(range(TOPO.n_procs))


@given(tight_instances())
@settings(max_examples=60, deadline=None)
def test_lomcds_kernels_agree_under_tight_capacity(instance):
    tensor, capacity = instance
    costs, _, order = _inputs(tensor)
    referenced = tensor.counts.sum(axis=2) > 0
    walked = assert_lomcds_walks_match(costs, referenced, order, capacity)
    solved = _assert_logged_solve_matches(
        lambda instr: schedule(
            tensor, CostModel(TOPO), algorithm="LOMCDS", capacity=capacity,
            instrument=instr,
        ),
        walked,
    )
    assert np.array_equal(solved.centers, walked[0])


@st.composite
def drifting_tensors(draw, max_data=16, max_windows=8):
    """A reference tensor whose hot processor moves between windows, so
    data want to follow it while it is full."""
    n_data = draw(st.integers(2, max_data))
    n_windows = draw(st.integers(2, max_windows))
    shape = (n_data, n_windows, TOPO.n_procs)
    counts = draw(arrays(np.int64, shape, elements=st.integers(0, 2)))
    hot = draw(arrays(np.int64, n_windows,
                      elements=st.integers(0, TOPO.n_procs - 1)))
    counts[:, np.arange(n_windows), hot] *= 4
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows)


@given(
    drifting_tensors(),
    st.floats(1.0, 2.0) | st.none(),
    st.sampled_from((1, 2.0, math.inf)),
)
@settings(max_examples=100, deadline=None)
def test_omcds_kernels_agree(tensor, multiplier, hysteresis):
    capacity = (
        None
        if multiplier is None
        else CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs, multiplier)
    )
    costs, vols, order = _inputs(tensor)
    walked = assert_online_walks_match(
        costs, DIST, vols, order, capacity, hysteresis
    )
    solved = omcds(tensor, CostModel(TOPO), capacity, hysteresis)
    assert np.array_equal(solved.centers, walked)


@given(st.data(), tight_instances())
@settings(max_examples=60, deadline=None)
def test_fault_rescheduler_kernels_agree(data, instance):
    """Random admissible masks, and the rescheduler on a fault plan's."""
    tensor, capacity = instance
    capacity = capacity if data.draw(st.booleans()) else None
    costs, vols, order = _inputs(tensor)
    base = data.draw(arrays(np.bool_, costs.shape[1:]))
    assert_path_walks_match(
        costs, DIST, vols, order, base=base, capacity=capacity
    )
    plan = data.draw(fault_plans(tensor.n_windows))
    alive = alive_window_mask(plan, tensor.n_windows, TOPO.n_procs)
    walked = assert_path_walks_match(
        costs, DIST, vols, order, base=alive, capacity=capacity
    )
    solved = _assert_logged_solve_matches(
        lambda instr: reschedule_around_faults(
            tensor, CostModel(TOPO), plan, capacity, certify=True,
            instrument=instr,
        ),
        walked,
    )
    if solved is not None:
        assert np.array_equal(solved.centers, walked[0])
        assert np.array_equal(
            solved.meta["certificate"]["potentials"], walked[1]
        )


@given(st.data(), tight_instances())
@settings(max_examples=60, deadline=None)
def test_recovery_rescheduler_kernels_agree(data, instance):
    """The suffix walk with first-window costs pinned to a residency."""
    tensor, capacity = instance
    capacity = capacity if data.draw(st.booleans()) else None
    model = CostModel(TOPO)
    plan = data.draw(fault_plans(tensor.n_windows))
    from_window = data.draw(st.integers(0, tensor.n_windows - 1))
    pin = data.draw(
        arrays(
            np.int64, (tensor.n_data,),
            elements=st.integers(0, TOPO.n_procs - 1),
        )
    )
    full_costs, vols, order = _inputs(tensor)
    costs = full_costs[:, from_window:].copy()
    costs[:, 0] += vols[:, None] * DIST[pin]
    alive = alive_window_mask(plan, tensor.n_windows, TOPO.n_procs)
    walked = assert_path_walks_match(
        costs, DIST, vols, order, base=alive[from_window:], capacity=capacity
    )
    base = gomcds(tensor, model, capacity)
    solved = _assert_logged_solve_matches(
        lambda instr: reschedule_from_window(
            base, tensor, model, plan, from_window, placement=pin,
            capacity=capacity, certify=True, instrument=instr,
        ),
        walked,
    )
    if solved is not None:
        assert np.array_equal(solved.centers[:, from_window:], walked[0])
        assert np.array_equal(
            solved.meta["certificate"]["potentials"], walked[1]
        )


@st.composite
def masked_batches(draw, n_procs=6):
    """Integer costs for a few data and a per-datum admissible mask."""
    n_data = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 4))
    costs = draw(
        arrays(np.float64, (n_data, n_windows, n_procs),
               elements=st.integers(0, 50).map(float))
    )
    masks = draw(arrays(np.bool_, (n_data, n_windows, n_procs)))
    vols = draw(
        arrays(np.float64, (n_data,), elements=st.sampled_from((1.0, 2.0, 0.5)))
    )
    return costs, masks, vols


@given(masked_batches())
@settings(max_examples=80, deadline=None)
def test_batched_dp_rows_match_per_datum_solves(batch):
    """Each row of the batched DP — per-datum masks, a ``data`` subset, a
    shared mask, rows split over several blocks — equals a per-datum
    scalar :func:`shortest_center_path_python` solve bit for bit: path,
    total (``inf`` when infeasible) and potentials."""
    _assert_batched_rows_match(*batch, grid=None)


@given(masked_batches())
@settings(max_examples=80, deadline=None)
def test_batched_l1_rows_match_per_datum_solves(batch):
    """The same with the mesh ``grid`` passed and integer volumes (the
    L1 step's exactness condition): every block takes the separable L1
    step."""
    costs, masks, vols = batch
    _assert_batched_rows_match(costs, masks, np.ceil(vols), grid=TOPO.shape)


def _assert_batched_rows_match(costs, masks, vols, grid):
    gomcds_module = sys.modules["repro.core.gomcds"]
    dist = CostModel(TOPO).distances.astype(np.float64)
    reverse = np.arange(len(costs))[::-1]
    for block, data, mask_arg in (
        (2, reverse, masks[reverse]),
        (1, reverse, masks[0]),
        (2, None, masks),
        (gomcds_module._BLOCK, reverse, masks[reverse]),
    ):
        with (
            patch.object(gomcds_module, "_BLOCK", block),
            patch.object(gomcds_module, "_BLOCK_CELLS", 0),
            patch.object(gomcds_module, "_L1_MIN_CELLS", 0),
        ):
            paths, totals, potentials = gomcds_module._all_paths_vectorized(
                costs, dist, vols, masks=mask_arg, data=data,
                return_potentials=True, grid=grid,
            )
        rows = np.arange(len(costs)) if data is None else data
        for i, d in enumerate(rows):
            allowed = mask_arg[i] if mask_arg.ndim == 3 else mask_arg
            try:
                path, total, pots = shortest_center_path_python(
                    costs[d], vols[d] * dist, allowed, return_potentials=True
                )
            except CapacityError:
                assert not np.isfinite(totals[i])
                continue
            assert np.array_equal(paths[i], path)
            assert totals[i] == total
            assert np.array_equal(potentials[i], pots)


@given(masked_batches(), st.data())
@settings(max_examples=80, deadline=None)
def test_path_feasible_in_a_sub_mask_stays_optimal(batch, data):
    """The speculative walk's lemma: a path optimal over a superset of
    cells that is feasible in the subset is the subset's optimal path,
    lowest-index tie-break included."""
    costs, masks, vols = batch
    move = vols[0] * CostModel(TOPO).distances.astype(np.float64)
    superset = masks[0] | data.draw(arrays(np.bool_, masks[0].shape))
    try:
        path, total = shortest_center_path(costs[0], move, superset)
    except CapacityError:
        return
    subset = superset & masks[0]
    subset[np.arange(len(path)), path] = True  # keep the path feasible
    sub_path, sub_total = shortest_center_path(costs[0], move, subset)
    assert np.array_equal(sub_path, path)
    assert sub_total == total
