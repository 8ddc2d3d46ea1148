"""Property-based tests of the substrates: metrics, routing, traces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Mesh1D, Mesh2D, Torus2D, XYRouter, cached_distance_matrix
from repro.theory import closest_center_pair, lemma1_holds, theorem2_instance
from repro.trace import TraceBuilder, reverse_trace, windows_by_step_count
from repro.core import CostModel
from tests.cost_helpers import cost_row

meshes_2d = st.builds(
    Mesh2D, st.integers(1, 5), st.integers(1, 5)
)
toruses = st.builds(Torus2D, st.integers(1, 5), st.integers(1, 5))


@given(st.one_of(meshes_2d, toruses))
@settings(max_examples=50, deadline=None)
def test_distance_matrix_is_a_metric(topo):
    dist = cached_distance_matrix(topo)
    n = topo.n_procs
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0).all()
    # triangle inequality via min-plus closure
    closure = np.min(dist[:, :, None] + dist[None, :, :], axis=1)
    assert np.array_equal(closure, dist)


@given(meshes_2d, st.data())
@settings(max_examples=50, deadline=None)
def test_route_length_equals_distance(topo, data):
    router = XYRouter(topo)
    src = data.draw(st.integers(0, topo.n_procs - 1))
    dst = data.draw(st.integers(0, topo.n_procs - 1))
    path = router.route(src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) - 1 == topo.distance(src, dst)
    dist = cached_distance_matrix(topo)
    for a, b in zip(path[:-1], path[1:]):
        assert dist[a, b] == 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(1, 3)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_builder_preserves_reference_totals(events):
    builder = TraceBuilder(n_procs=4, n_data=6)
    total = 0
    for proc, datum, count in events:
        builder.add(proc, datum, count)
        total += count
    trace = builder.build()
    assert trace.total_references == total


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=30
    ),
    st.integers(1, 5),
)
@settings(max_examples=50, deadline=None)
def test_reverse_preserves_tensor_mass(events, steps_per_window):
    builder = TraceBuilder(n_procs=4, n_data=6)
    for i, (proc, datum) in enumerate(events):
        builder.add(proc, datum)
        if i % 3 == 2:
            builder.end_step()
    trace = builder.build()
    rev = reverse_trace(trace)
    assert rev.total_references == trace.total_references
    assert np.array_equal(np.sort(rev.data), np.sort(trace.data))


@given(st.integers(1, 40), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_windows_partition_steps(n_steps, steps_per_window):
    ws = windows_by_step_count(n_steps, steps_per_window)
    assert ws.sizes().sum() == n_steps
    assert (ws.sizes() > 0).all()
    of = ws.window_of_steps()
    assert of[0] == 0 and of[-1] == ws.n_windows - 1
    assert np.array_equal(ws.assign(np.arange(n_steps)), of)


counts_1d = st.lists(st.integers(0, 5), min_size=7, max_size=7).filter(
    lambda c: sum(c) > 0
)


@given(counts_1d, counts_1d)
@settings(max_examples=80, deadline=None)
def test_lemma1_property(counts0, counts1):
    """Paper's Lemma 1 holds on every generated 1-D two-window instance."""
    topo = Mesh1D(7)
    model = CostModel(topo)
    costs0 = cost_row(model, counts0)
    costs1 = cost_row(model, counts1)
    p1, p2 = closest_center_pair(costs0, costs1, topo)
    assert lemma1_holds(costs0, p1, p2)


counts_2d = st.lists(st.integers(0, 4), min_size=12, max_size=12).filter(
    lambda c: sum(c) > 0
)


@given(counts_2d, counts_2d)
@settings(max_examples=80, deadline=None)
def test_theorem2_property(counts0, counts1):
    """Paper's Theorem 2 holds on every generated 2-D two-window instance."""
    topo = Mesh2D(3, 4)
    model = CostModel(topo)
    costs0 = cost_row(model, counts0)
    costs1 = cost_row(model, counts1)
    assert theorem2_instance(costs0, costs1, topo)


@given(counts_2d, counts_2d)
@settings(max_examples=80, deadline=None)
def test_theorem3_property(counts0, counts1):
    """Paper's Theorem 3: pairwise grouping never reduces unit-volume cost."""
    from repro.theory import theorem3_holds

    topo = Mesh2D(3, 4)
    model = CostModel(topo)
    costs0 = cost_row(model, counts0)
    costs1 = cost_row(model, counts1)
    assert theorem3_holds(costs0, costs1, topo)
