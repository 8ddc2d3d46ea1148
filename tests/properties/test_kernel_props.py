"""Layer parity: each vectorized solver layer is bit-identical to its
scalar test reference on the same inputs, on random instances and the
paper benchmarks, and each scheduler returns what its layers computed."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import CostModel
from repro.core.kernels import (
    hold_position_python,
    local_argmin_python,
    merged_totals_python,
    placement_cost_tensor_python,
    shortest_center_path_python,
)
from repro.core.gomcds import _l1_grid, shortest_center_path
from repro.core.lomcds import _hold_position
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark, trace_from_counts
from tests.reference_pairs import (
    assert_lomcds_walks_match,
    assert_path_walks_match,
)

TOPO = Mesh2D(2, 3)
ALGORITHMS = ("SCDS", "LOMCDS", "GOMCDS")


@st.composite
def instances(draw, max_data=4, max_windows=5):
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, TOPO.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows)


def assert_layers_match(name, tensor, model, capacity=None):
    """Run ``name``'s forked layers beside their scalar references on the
    instance's inputs, then check the scheduler returns the layers'
    centers (and, for GOMCDS, certificate)."""
    costs = model.all_placement_costs(tensor)
    assert np.array_equal(costs, placement_cost_tensor_python(tensor, model))
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(tensor.n_data)
    order = tensor.data_priority_order()
    if name == "SCDS":
        totals = costs.sum(axis=1)
        assert np.array_equal(totals, merged_totals_python(costs))
        if capacity is None:
            centers = totals.argmin(axis=1)[:, None]
        else:
            centers, _, _ = assert_path_walks_match(
                totals[:, None, :], dist, vols, order, capacity=capacity
            )
        expected = np.repeat(centers, tensor.n_windows, axis=1)
    elif name == "LOMCDS":
        referenced = tensor.counts.sum(axis=2) > 0
        if capacity is None:
            expected = costs.argmin(axis=2)
            assert np.array_equal(expected, local_argmin_python(costs))
            held = expected.copy()
            _hold_position(expected, referenced)
            hold_position_python(held, referenced)
            assert np.array_equal(expected, held)
        else:
            expected, *_ = assert_lomcds_walks_match(
                costs, referenced, order, capacity
            )
    else:
        grid = _l1_grid(tensor, model, vols, tensor.n_windows)
        expected, potentials, _ = assert_path_walks_match(
            costs, dist, vols, order, capacity=capacity, grid=grid
        )
        certified = schedule(tensor, model, capacity=capacity, certify=True)
        assert np.array_equal(
            certified.meta["certificate"]["potentials"], potentials
        )
    solved = schedule(tensor, model, algorithm=name, capacity=capacity)
    assert np.array_equal(solved.centers, expected)


@given(instances())
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_kernels_bit_identical_unconstrained(name, tensor):
    assert_layers_match(name, tensor, CostModel(TOPO))


@given(instances())
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_kernels_bit_identical_constrained(name, tensor):
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    assert_layers_match(name, tensor, CostModel(TOPO), capacity)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_placement_cost_tensor_matches_numpy(tensor):
    model = CostModel(TOPO)
    scalar = placement_cost_tensor_python(tensor, model)
    vector = model.all_placement_costs(tensor)
    assert np.array_equal(scalar, vector)
    assert np.array_equal(
        merged_totals_python(scalar), vector.sum(axis=1)
    )


@given(instances())
@settings(max_examples=40, deadline=None)
def test_certificates_bit_identical(tensor):
    """The certified walk's potentials equal the scalar DP's, and the
    certificate's totals are their last-window minima."""
    model = CostModel(TOPO)
    _, potentials, _ = assert_path_walks_match(
        model.all_placement_costs(tensor),
        model.distances.astype(np.float64),
        model.volume_vector(tensor.n_data),
        tensor.data_priority_order(),
    )
    certificate = schedule(tensor, model, certify=True).meta["certificate"]
    assert np.array_equal(certificate["potentials"], potentials)
    assert np.array_equal(
        certificate["totals"], potentials[:, -1, :].min(axis=1)
    )


def _brute_force_total(window_costs, move, allowed):
    """Cheapest center path by exhaustive search over all ``m**W`` paths."""
    n_windows, n_procs = window_costs.shape
    best = float("inf")
    for path in itertools.product(range(n_procs), repeat=n_windows):
        if allowed is not None and not all(
            allowed[w, p] for w, p in enumerate(path)
        ):
            continue
        cost = sum(float(window_costs[w, p]) for w, p in enumerate(path))
        cost += sum(float(move[a, b]) for a, b in zip(path, path[1:]))
        best = min(best, cost)
    return best


@st.composite
def path_instances(draw, n_procs=6):
    n_windows = draw(st.integers(1, 4))
    window_costs = draw(
        arrays(
            dtype=np.float64,
            shape=(n_windows, n_procs),
            elements=st.integers(0, 50).map(float),
        )
    )
    allowed = None
    if draw(st.booleans()):
        allowed = draw(arrays(dtype=np.bool_, shape=(n_windows, n_procs)))
        allowed[:, 0] = True  # column 0 keeps every window feasible
    return window_costs, allowed


@given(path_instances())
@settings(max_examples=60, deadline=None)
def test_shortest_path_matches_vectorized(instance):
    """Both kernels agree bit for bit and find the true shortest path,
    with and without a memory mask (integer costs keep sums exact)."""
    window_costs, allowed = instance
    move = CostModel(TOPO).distances.astype(float)
    path_py, total_py = shortest_center_path_python(window_costs, move, allowed)
    path_np, total_np = shortest_center_path(window_costs, move, allowed)
    assert np.array_equal(path_py, path_np)
    assert total_py == total_np
    assert total_np == _brute_force_total(window_costs, move, allowed)


@given(
    arrays(dtype=np.int64, shape=(3, 5), elements=st.integers(0, 5)),
    arrays(dtype=np.bool_, shape=(3, 5)),
)
@settings(max_examples=60, deadline=None)
def test_hold_position_matches(centers, referenced):
    a = centers.copy()
    b = centers.copy()
    hold_position_python(a, referenced)
    _hold_position(b, referenced)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_paper_benchmarks_bit_identical(bench, name):
    """Acceptance gate: every layer agrees with its reference on
    benchmarks 1-5 under the paper's capacity rule."""
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    capacity = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    assert_layers_match(name, tensor, CostModel(topo), capacity)
