"""Property-based tests for the extension modules.

Same generator style as test_scheduler_invariants, covering: the priced walk,
the online scheduler, replication, and the extended topologies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    CostModel,
    evaluate_replicated,
    evaluate_schedule,
    gomcds,
    omcds,
    priced_gomcds,
    replicated_scds,
    scds,
)
from repro.grid import Mesh1D, Mesh2D, Mesh3D, WeightedMesh2D
from repro.mem import CapacityPlan
from repro.sim import replay_schedule
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

MESHES = [Mesh1D(5), Mesh2D(2, 3), Mesh3D(2, 2, 2), WeightedMesh2D(2, 3, 3, 1)]


@st.composite
def tensors(draw, max_data=5, max_windows=4):
    topo = draw(st.sampled_from(MESHES))
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 4),
        )
    )
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    return tensor, trace, CostModel(topo)


@given(tensors())
@settings(max_examples=50, deadline=None)
def test_priced_walk_never_degrades_and_respects_capacity(case):
    tensor, _trace, model = case
    cap_value = -(-tensor.n_data // model.n_procs) + 1
    plan = CapacityPlan.uniform(model.n_procs, cap_value)
    greedy = evaluate_schedule(gomcds(tensor, model, plan), tensor, model).total
    schedule, bound = priced_gomcds(tensor, model, plan)
    priced = evaluate_schedule(schedule, tensor, model).total
    assert priced <= greedy
    assert bound <= priced or math.isclose(bound, priced)
    occ = schedule.occupancy(model.n_procs)
    assert (occ <= plan.capacities[None, :]).all()


@given(tensors())
@settings(max_examples=50, deadline=None)
def test_priced_schedule_replays_exactly(case):
    tensor, trace, model = case
    plan = CapacityPlan.uniform(model.n_procs, -(-tensor.n_data // model.n_procs))
    schedule, _ = priced_gomcds(tensor, model, plan)
    analytic = evaluate_schedule(schedule, tensor, model)
    assert replay_schedule(trace, schedule, model).matches(analytic)


@given(tensors(), st.sampled_from([1.0, 2.0, math.inf]))
@settings(max_examples=50, deadline=None)
def test_online_never_beats_offline(case, hysteresis):
    tensor, _trace, model = case
    offline = evaluate_schedule(gomcds(tensor, model), tensor, model).total
    online = evaluate_schedule(
        omcds(tensor, model, hysteresis=hysteresis), tensor, model
    ).total
    assert offline <= online + 1e-9


@given(tensors())
@settings(max_examples=50, deadline=None)
def test_online_replays_exactly(case):
    tensor, trace, model = case
    schedule = omcds(tensor, model)
    analytic = evaluate_schedule(schedule, tensor, model)
    assert replay_schedule(trace, schedule, model).matches(analytic)


@given(tensors())
@settings(max_examples=50, deadline=None)
def test_replication_k1_equals_scds_and_k_monotone(case):
    tensor, _trace, model = case
    static_cost = evaluate_schedule(scds(tensor, model), tensor, model).total
    costs = []
    for k in (1, 2, 3):
        placement = replicated_scds(tensor, model, k)
        assert all(1 <= len(r) <= k for r in placement.replicas)
        costs.append(evaluate_replicated(placement, tensor, model))
    assert costs[0] == pytest.approx(static_cost)
    assert costs[0] >= costs[1] >= costs[2]


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_replication_beats_any_single_center(case):
    """With k >= 1 replicas each datum costs at most its best single
    center (the greedy's first site is exactly that center)."""
    tensor, _trace, model = case
    placement = replicated_scds(tensor, model, k=2)
    merged = tensor.counts.sum(axis=1)
    dist = model.distances
    for d in range(tensor.n_data):
        sites = list(placement.replicas[d])
        nearest = dist[:, sites].min(axis=1)
        single_best = (merged[d] @ dist).min()
        assert (merged[d] @ nearest) * model.volume(d) <= single_best * model.volume(
            d
        ) + 1e-9


@given(tensors())
@settings(max_examples=50, deadline=None)
def test_weighted_and_3d_replay_agreement(case):
    """Evaluator == replay on every topology, including weighted meshes
    (where hop count != metric) and 3-D meshes."""
    tensor, trace, model = case
    for scheduler in (scds, gomcds):
        schedule = scheduler(tensor, model)
        analytic = evaluate_schedule(schedule, tensor, model)
        assert replay_schedule(trace, schedule, model).matches(analytic)


@given(tensors(), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_budgeted_interpolates_scds_and_gomcds(case, budget):
    from repro.core import gomcds_budgeted

    tensor, _trace, model = case
    static = evaluate_schedule(scds(tensor, model), tensor, model).total
    free = evaluate_schedule(gomcds(tensor, model), tensor, model).total
    budgeted = evaluate_schedule(
        gomcds_budgeted(tensor, model, budget), tensor, model
    ).total
    assert free - 1e-9 <= budgeted <= static + 1e-9
    # the budget truly binds per datum
    schedule = gomcds_budgeted(tensor, model, budget)
    moves = (schedule.centers[:, 1:] != schedule.centers[:, :-1]).sum(axis=1)
    assert moves.max(initial=0) <= budget


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_optimal_static_never_beaten_by_any_static(case):
    """The assignment oracle lower-bounds greedy SCDS under capacity and
    equals it unconstrained."""
    from repro.core import optimal_static_placement

    tensor, _trace, model = case
    free_opt = evaluate_schedule(
        optimal_static_placement(tensor, model), tensor, model
    ).total
    free_greedy = evaluate_schedule(scds(tensor, model), tensor, model).total
    assert free_opt == pytest.approx(free_greedy)
    plan = CapacityPlan.uniform(model.n_procs, -(-tensor.n_data // model.n_procs))
    bound_opt = evaluate_schedule(
        optimal_static_placement(tensor, model, plan), tensor, model
    ).total
    bound_greedy = evaluate_schedule(scds(tensor, model, plan), tensor, model).total
    assert bound_opt <= bound_greedy + 1e-9
    occ = optimal_static_placement(tensor, model, plan).occupancy(model.n_procs)
    assert (occ <= plan.capacities[None, :]).all()
