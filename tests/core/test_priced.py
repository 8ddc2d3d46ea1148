"""Priced-walk tests, held to account by an exact path-flow MILP oracle."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    CostModel,
    Schedule,
    evaluate_schedule,
    gomcds,
    priced_gomcds,
)
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import lu_workload, paper_instance, trace_from_counts

GOMCDS = sys.modules["repro.core.gomcds"]


def instance(counts, topo, volumes=None):
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo, volumes)


def cost_of(schedule, tensor, model):
    return evaluate_schedule(schedule, tensor, model).total


def recorded_walks(monkeypatch):
    """The centers of every capacity walk the priced walk runs, in order."""
    walks = []
    walk = GOMCDS._batched_walk

    def recording_walk(*args, **kwargs):
        result = walk(*args, **kwargs)
        walks.append(result[0].copy())
        return result

    monkeypatch.setattr(GOMCDS, "_batched_walk", recording_walk)
    return walks


def milp_optimum(tensor, model, capacity):
    """The exact capacity-constrained optimum, as a path-flow MILP.

    Binary centers ``x[d, w, p]``, one per ``(datum, window)``; flows
    ``y[d, w, p, q]`` from window ``w``'s center to window ``w + 1``'s,
    priced at ``vols[d] * dist[p, q]``, leave and enter exactly the
    chosen centers; and ``Σ_d x[d, w, p] <= cap[p]``.
    """
    optimize = pytest.importorskip("scipy.optimize")
    costs = model.all_placement_costs(tensor)
    n_data, n_windows, n_procs = costs.shape
    vols = model.volume_vector(n_data)
    x = np.arange(costs.size).reshape(costs.shape)
    y = costs.size + np.arange(
        n_data * (n_windows - 1) * n_procs * n_procs
    ).reshape(n_data, n_windows - 1, n_procs, n_procs)
    n_vars = costs.size + y.size

    def rows(index_sets, minus=None):
        block = np.zeros((len(index_sets), n_vars))
        r = np.arange(len(index_sets))
        block[r[:, None], index_sets] = 1.0
        if minus is not None:
            block[r, minus] = -1.0
        return block

    one_center = rows(x.reshape(-1, n_procs))
    leave = rows(y.reshape(-1, n_procs), minus=x[:, :-1].ravel())
    enter = rows(y.swapaxes(2, 3).reshape(-1, n_procs), minus=x[:, 1:].ravel())
    equal = np.vstack([one_center, leave, enter])
    rhs = np.concatenate([np.ones(len(one_center)), np.zeros(2 * len(leave))])
    slots = rows(x.transpose(1, 2, 0).reshape(-1, n_data))
    move = vols[:, None, None, None] * model.distances[None, None]
    objective = np.concatenate(
        [costs.ravel(), np.broadcast_to(move, y.shape).ravel()]
    )
    result = optimize.milp(
        objective,
        constraints=[
            optimize.LinearConstraint(equal, rhs, rhs),
            optimize.LinearConstraint(
                slots, -np.inf, np.tile(capacity.capacities, n_windows)
            ),
        ],
        integrality=np.r_[np.ones(costs.size), np.zeros(y.size)],
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    return result.fun


def at_most(a, b):
    return a <= b or math.isclose(a, b, abs_tol=1e-6)


@st.composite
def capacitated(draw):
    """A 2x2 or 3x3 mesh, D <= 8, W <= 4 and a capacity that fits."""
    topo = draw(st.sampled_from([Mesh2D(2, 2), Mesh2D(3, 3)]))
    n_data = draw(st.integers(1, 8))
    n_windows = draw(st.integers(1, 4))
    counts = draw(
        arrays(np.int64, (n_data, n_windows, topo.n_procs), elements=st.integers(0, 4))
    )
    caps = draw(arrays(np.int64, topo.n_procs, elements=st.integers(0, 3)))
    assume(caps.sum() >= n_data)
    tensor, model = instance(counts, topo)
    return tensor, model, CapacityPlan(caps)


@given(capacitated())
@settings(max_examples=40, deadline=None)
def test_bound_milp_priced_gomcds_chain(case):
    tensor, model, capacity = case
    schedule, bound = priced_gomcds(tensor, model, capacity)
    optimum = milp_optimum(tensor, model, capacity)
    priced = cost_of(schedule, tensor, model)
    greedy = cost_of(gomcds(tensor, model, capacity), tensor, model)
    assert at_most(bound, optimum)
    assert at_most(optimum, priced)
    assert priced <= greedy


@given(capacitated())
@settings(max_examples=20, deadline=None)
def test_slack_capacity_collapses_the_chain(case):
    tensor, model, _ = case
    slack = CapacityPlan.uniform(model.n_procs, tensor.n_data)
    floor = cost_of(gomcds(tensor, model), tensor, model)
    schedule, bound = priced_gomcds(tensor, model, slack)
    assert math.isclose(bound, floor, abs_tol=1e-6)
    assert math.isclose(milp_optimum(tensor, model, slack), floor, abs_tol=1e-6)
    assert cost_of(schedule, tensor, model) == floor
    assert cost_of(gomcds(tensor, model, slack), tensor, model) == floor


def random_instance(seed, n_data, n_windows, side=3):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(n_data, n_windows, side * side))
    return instance(counts, Mesh2D(side, side))


def test_never_degrades():
    tensor, model = random_instance(51, 20, 4)
    capacity = CapacityPlan.uniform(9, 3)
    schedule, bound = priced_gomcds(tensor, model, capacity)
    priced = cost_of(schedule, tensor, model)
    assert bound <= priced <= cost_of(gomcds(tensor, model, capacity), tensor, model)


def test_capacity_preserved():
    tensor, model = random_instance(57, 18, 3)
    capacity = CapacityPlan.uniform(9, 2)
    schedule, _ = priced_gomcds(tensor, model, capacity)
    assert (schedule.occupancy(9) <= 2).all()


def test_pricing_undoes_a_greedy_displacement():
    # datum 0 is heavier, so the walk seats it on processor 0 first and
    # strands datum 1, which needs processor 0 far more; pricing the
    # contested slot trades the two (the middle processor has no memory)
    tensor, model = instance([[[4, 0, 2]], [[5, 0, 0]]], Mesh1D(3))
    capacity = CapacityPlan(np.array([1, 0, 1]))
    assert gomcds(tensor, model, capacity).centers[:, 0].tolist() == [0, 2]
    schedule, bound = priced_gomcds(tensor, model, capacity)
    assert schedule.centers[:, 0].tolist() == [2, 0]
    assert cost_of(schedule, tensor, model) == 8.0
    assert math.isclose(bound, 8.0)


def test_unconstrained_optimum_is_a_fixed_point():
    tensor, model = random_instance(53, 10, 4)
    slack = CapacityPlan.unbounded(9, tensor.n_data)
    schedule, bound = priced_gomcds(tensor, model, slack)
    assert np.array_equal(schedule.centers, gomcds(tensor, model).centers)
    assert bound == cost_of(schedule, tensor, model)


def test_slack_capacity_takes_one_walk(monkeypatch):
    # fractional volumes round the bound and the walk's cost differently,
    # so the gap test alone may not stop the loop; the zero step must
    rng = np.random.default_rng(21)
    counts = rng.integers(0, 4, size=(12, 4, 9))
    tensor, model = instance(counts, Mesh2D(3, 3), rng.uniform(0.1, 3.0, 12))
    walks = recorded_walks(monkeypatch)
    priced_gomcds(tensor, model, CapacityPlan.unbounded(9, 12))
    assert len(walks) == 1


def test_step_zero_is_constrained_gomcds(monkeypatch, mesh44):
    # lu16 is big enough that gomcds takes the L1 step; the priced walk's
    # dense step must still reproduce its centers bit for bit
    tensor = lu_workload(16, mesh44).reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(tensor.n_data, 16, 1.0)
    monkeypatch.setattr(GOMCDS, "_PRICE_STEPS", 1)
    schedule, _ = priced_gomcds(tensor, model, capacity)
    assert np.array_equal(
        schedule.centers, gomcds(tensor, model, capacity).centers
    )


def test_keeps_the_cheapest_walk(monkeypatch):
    inst = paper_instance(5, 8, capacity_multiplier=1.0)
    walks = recorded_walks(monkeypatch)
    schedule, _ = priced_gomcds(inst.tensor, inst.model, inst.capacity)
    costs = [
        cost_of(Schedule(centers=c, windows=inst.tensor.windows), inst.tensor, inst.model)
        for c in walks
    ]
    assert costs[-1] > min(costs)  # the last walk is not the one to keep
    assert cost_of(schedule, inst.tensor, inst.model) == min(costs)


def test_deterministic():
    tensor, model = random_instance(59, 12, 3)
    capacity = CapacityPlan.uniform(9, 2)
    a, bound_a = priced_gomcds(tensor, model, capacity)
    b, bound_b = priced_gomcds(tensor, model, capacity)
    assert np.array_equal(a.centers, b.centers) and bound_a == bound_b


def test_method_label(lu8_tensor, model44, paper_capacity):
    schedule, _ = priced_gomcds(lu8_tensor, model44, paper_capacity)
    assert schedule.method == "GOMCDS+priced"


class TestBoundaryInputs:
    def check(self, tensor, model, capacity):
        schedule, bound = priced_gomcds(tensor, model, capacity)
        cost = cost_of(schedule, tensor, model)
        assert schedule.centers.shape == (tensor.n_data, tensor.n_windows)
        assert (schedule.occupancy(model.n_procs) <= capacity.capacities).all()
        assert at_most(bound, cost)
        return cost, bound

    def test_no_data(self):
        tensor, model = instance(np.zeros((0, 3, 4)), Mesh2D(2, 2))
        for caps in (1, 0):  # zero capacity also zeroes the subgradient
            assert self.check(tensor, model, CapacityPlan.uniform(4, caps)) == (0.0, 0.0)

    def test_one_window(self):
        tensor, model = random_instance(61, 6, 1, side=2)
        self.check(tensor, model, CapacityPlan.uniform(4, 2))

    def test_exactly_full_capacity(self):
        tensor, model = random_instance(67, 8, 3, side=2)
        capacity = CapacityPlan.uniform(4, 2)  # cap * m == D
        cost, _ = self.check(tensor, model, capacity)
        assert cost <= cost_of(gomcds(tensor, model, capacity), tensor, model)

    def test_fractional_volumes(self):
        rng = np.random.default_rng(71)
        counts = rng.integers(0, 4, size=(7, 3, 4))
        tensor, model = instance(counts, Mesh2D(2, 2), rng.uniform(0.1, 3.0, 7))
        capacity = CapacityPlan.uniform(4, 2)
        _, bound = self.check(tensor, model, capacity)
        assert at_most(bound, milp_optimum(tensor, model, capacity))

    def test_rejects_overfull_capacity(self):
        tensor, model = random_instance(73, 9, 3, side=2)
        with pytest.raises(CapacityError) as err:
            priced_gomcds(tensor, model, CapacityPlan.uniform(4, 2))
        assert err.value.code == "SCH002"
