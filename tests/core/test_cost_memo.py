"""The cost-tensor memo: one read-only build per ``(model, tensor)`` pair,
bit-identical to the scalar reference."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.cost as cost
from repro import evaluate_schedule, replay_schedule, schedule
from repro.analysis.experiments import run_table1
from repro.core import CostModel, reschedule_around_faults
from repro.core.kernels import placement_cost_tensor_python
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.trace import ReferenceTensor, WindowSet
from repro.verify import certify_schedule
from repro.workloads import paper_instance
from tests.cost_helpers import count_cost_builds

TOPOLOGIES = (
    Mesh2D(2, 3),
    Torus2D(3, 3),
    Mesh3D(2, 2, 2),
    WeightedMesh2D(2, 3, row_weight=2, col_weight=3),
)


def _tensor(counts) -> ReferenceTensor:
    n_windows = counts.shape[1]
    windows = WindowSet(starts=np.arange(n_windows), n_steps=n_windows)
    return ReferenceTensor(counts=counts, windows=windows)


@st.composite
def instances(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    n_data = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 4))
    counts = draw(
        arrays(
            np.int64, (n_data, n_windows, topology.n_procs),
            elements=st.integers(0, 5),
        )
    )
    volumes = draw(
        st.one_of(
            st.none(),
            arrays(np.float64, n_data, elements=st.integers(1, 9).map(float)),
            arrays(
                np.float64, n_data,
                elements=st.floats(0.05, 20.0, allow_nan=False),
            ),
        )
    )
    return _tensor(counts), CostModel(topology, volumes)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_memoized_costs_match_the_scalar_reference(instance):
    tensor, model = instance
    built = model.all_placement_costs(tensor)
    again = model.all_placement_costs(tensor)
    assert again is built
    assert built.tobytes() == placement_cost_tensor_python(tensor, model).tobytes()


def test_other_volumes_on_the_same_tensor_get_their_own_costs(monkeypatch):
    tensor = _tensor(np.arange(2 * 3 * 6, dtype=np.int64).reshape(2, 3, 6))
    unit = CostModel(Mesh2D(2, 3))
    heavy = CostModel(Mesh2D(2, 3), volumes=np.array([3.0, 0.5]))
    builds = count_cost_builds(monkeypatch)
    light_costs = unit.all_placement_costs(tensor)
    heavy_costs = heavy.all_placement_costs(tensor)
    assert np.array_equal(heavy_costs[0], 3.0 * light_costs[0])
    assert np.array_equal(heavy_costs[1], 0.5 * light_costs[1])
    assert np.array_equal(unit.all_placement_costs(tensor), light_costs)
    assert len(builds) == 3


def test_costs_counts_and_volumes_are_read_only():
    tensor = _tensor(np.ones((2, 2, 6), dtype=np.int64))
    model = CostModel(Mesh2D(2, 3), volumes=np.array([1.0, 2.0]))
    costs = model.all_placement_costs(tensor)
    with pytest.raises(ValueError, match="read-only"):
        costs[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        tensor.counts[0, 0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        model.volumes[0] = 7.0


def test_memo_matches_by_identity_and_forgets_collected_inputs(monkeypatch):
    model = CostModel(Mesh2D(2, 3))
    counts = np.ones((1, 2, 6), dtype=np.int64)
    model.all_placement_costs(_tensor(counts.copy()))
    gc.collect()
    assert cost._memo is None  # the tensor is gone, so is its entry
    builds = count_cost_builds(monkeypatch)
    tensor = _tensor(counts.copy())
    model.all_placement_costs(tensor)
    model.all_placement_costs(tensor)
    model.all_placement_costs(_tensor(counts.copy()))  # equal, not the same
    assert len(builds) == 2


@pytest.mark.parametrize("faulted", [False, True])
def test_pipeline_op_builds_one_cost_tensor(monkeypatch, faulted):
    inst = paper_instance(1, 8)
    model, capacity, trace = inst.model, inst.capacity, inst.workload.trace
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),)) if faulted else None
    builds = count_cost_builds(monkeypatch)
    tensor = inst.workload.reference_tensor()
    if plan is None:
        solved = schedule(tensor, model, capacity=capacity, certify=True)
    else:
        solved = reschedule_around_faults(
            tensor, model, plan, capacity, certify=True
        )
    evaluate_schedule(solved, tensor, model)
    replay_schedule(trace, solved, model, capacity=capacity, faults=plan)
    report = certify_schedule(
        solved, trace, model, tensor=tensor, capacity=capacity, faults=plan
    )
    assert report.certified_data == solved.n_data
    assert len(builds) == 1 and builds[0] is tensor


def test_table1_row_builds_one_cost_tensor(monkeypatch):
    builds = count_cost_builds(monkeypatch)
    run_table1(sizes=(8,), benchmarks=(1,))
    assert len(builds) == 1
