"""The abstract interpreter: exactness on clean schedules, coded findings
on broken ones."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, evaluate_schedule, gomcds
from repro.diagnostics import (
    VER001,
    VER002,
    VER003,
    VER004,
    Diagnostic,
    Severity,
)
from repro.faults import FaultPlan, LinkFault, NodeFault
from repro.grid import (
    Mesh1D,
    Mesh2D,
    Mesh3D,
    Torus2D,
    WeightedMesh2D,
    XYRouter,
)
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.sim import replay_schedule
from repro.verify import interpret_schedule
from repro.workloads import benchmark


@pytest.fixture
def bench1(mesh44):
    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity)
    return wl, tensor, model, capacity, schedule


def test_prediction_matches_analytic_cost(bench1):
    wl, tensor, model, capacity, schedule = bench1
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert not diags
    breakdown = evaluate_schedule(schedule, tensor, model)
    assert prediction.reference_cost == pytest.approx(breakdown.reference_cost)
    assert prediction.movement_cost == pytest.approx(breakdown.movement_cost)
    assert prediction.total == pytest.approx(breakdown.total)


def test_prediction_link_volumes_match_replay(bench1):
    wl, tensor, model, capacity, schedule = bench1
    prediction, _ = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    instr = Instrumentation.started(spatial=True)
    replay_schedule(
        wl.trace, schedule, model, capacity=capacity, instrument=instr
    )
    spatial = instr.spatial.traces[-1]
    assert prediction.link_totals() == pytest.approx(spatial.link_totals())


def test_occupancy_overflow_is_ver001(bench1):
    wl, tensor, model, _, schedule = bench1
    # cram every datum onto processor 0 in window 0
    centers = schedule.centers.copy()
    centers[:, 0] = 0
    bad = dataclasses.replace(schedule, centers=centers, meta={})
    tight = CapacityPlan.uniform(model.topology.n_procs, 4)
    prediction, diags = interpret_schedule(
        bad, tensor, model, trace=wl.trace, capacity=tight
    )
    overflow = [d for d in diags if d.code == VER001]
    assert overflow and all(d.severity == Severity.ERROR for d in overflow)
    assert any(d.window == 0 and d.processor == 0 for d in overflow)


def test_out_of_range_center_is_ver002(bench1):
    wl, tensor, model, capacity, schedule = bench1
    centers = schedule.centers.copy()
    centers[0, 0] = model.topology.n_procs + 3
    bad = dataclasses.replace(schedule, centers=centers, meta={})
    prediction, diags = interpret_schedule(
        bad, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert prediction is None
    assert [d.code for d in diags] == [VER002]


def test_dead_center_is_ver002(bench1):
    wl, tensor, model, _, schedule = bench1
    plan = FaultPlan(node_faults=(NodeFault(pid=int(schedule.centers[0, 1]), start=1),))
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, faults=plan
    )
    assert any(
        d.code == VER002 and d.severity == Severity.ERROR for d in diags
    )


def test_hotspot_budget_is_ver003(bench1):
    wl, tensor, model, capacity, schedule = bench1
    _, clean = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert not [d for d in clean if d.code == VER003]
    _, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity,
        link_budget=0.5,
    )
    hot = [d for d in diags if d.code == VER003]
    assert hot and all(d.severity == Severity.WARNING for d in hot)


def test_strictly_wasteful_move_is_ver004(mesh44):
    from repro.trace import build_reference_tensor
    from repro.workloads import trace_from_counts

    counts = np.zeros((1, 3, 16), dtype=np.int64)
    counts[0, 0, 0] = 2
    counts[0, 2, 0] = 2
    trace, windows = trace_from_counts(counts, mesh44)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(mesh44)
    # stay at 0, detour to the far corner in the reference-free window,
    # and come back: strictly wasteful
    from repro.core import Schedule

    centers = np.array([[0, 15, 0]])
    sched = Schedule(centers=centers, windows=windows, method="handmade")
    _, diags = interpret_schedule(sched, tensor, model, trace=trace)
    assert any(d.code == VER004 for d in diags)
    # the direct schedule is quiet
    straight = Schedule(
        centers=np.array([[0, 0, 0]]), windows=windows, method="handmade"
    )
    _, diags = interpret_schedule(straight, tensor, model, trace=trace)
    assert not [d for d in diags if d.code == VER004]


def test_faulted_prediction_matches_replay(bench1, mesh44):
    from repro.core import reschedule_around_faults

    wl, tensor, model, capacity, _ = bench1
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    schedule = reschedule_around_faults(tensor, model, plan, capacity)
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, faults=plan
    )
    assert not [d for d in diags if d.severity == Severity.ERROR]
    report = replay_schedule(
        wl.trace, schedule, model, faults=plan
    )
    assert prediction.total == pytest.approx(report.total_cost)
    assert prediction.n_delivered == report.n_delivered
    assert prediction.n_evacuated == report.n_evacuated


def _dead_movements_oracle(schedule, counts, dist):
    """VER004 move by move: ``counts[d, w:w_next].sum()`` per relocation."""
    from repro.verify.abstract import _emit

    diagnostics = []
    by_datum = {}
    for d, w, src, dst in schedule.movements():
        by_datum.setdefault(d, []).append((w, src, dst))
    for d, moves in by_datum.items():
        for j, (w, src, dst) in enumerate(moves):
            w_next = (
                moves[j + 1][0] if j + 1 < len(moves) else schedule.n_windows
            )
            if counts[d, w:w_next, :].sum() > 0:
                continue
            if w_next == schedule.n_windows:
                wasted = dist[src, dst] > 0
                hint = "drop the final relocation; nothing reads the datum"
            else:
                nxt = int(schedule.centers[d, w_next])
                wasted = dist[src, dst] + dist[dst, nxt] > dist[src, nxt]
                hint = f"route {src} -> {nxt} directly"
            if wasted:
                _emit(
                    diagnostics,
                    Diagnostic(
                        code=VER004,
                        severity=Severity.WARNING,
                        message=(
                            f"dead data movement: the relocation "
                            f"{src} -> {dst} serves no reference before "
                            "the datum moves again and strictly wastes "
                            "volume"
                        ),
                        datum=int(d),
                        window=int(w),
                        processor=int(dst),
                        hint=hint,
                    ),
                )
    return diagnostics


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_dead_movements_match_the_per_move_oracle(data):
    """Sparse references and restless centers: many dead moves, some of
    them past the diagnostic cap."""
    from repro.core import Schedule
    from repro.trace import build_reference_tensor
    from repro.workloads import trace_from_counts

    topo = data.draw(st.sampled_from(LINK_TOPOLOGIES))
    n_data = data.draw(st.integers(1, 12))
    n_windows = data.draw(st.integers(1, 6))
    m = topo.n_procs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    counts = rng.integers(0, 3, (n_data, n_windows, m))
    counts *= rng.random((n_data, n_windows, 1)) < 0.3  # mostly unreferenced
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    schedule = Schedule(
        centers=rng.integers(0, m, (n_data, tensor.n_windows)),
        windows=windows, method="drawn",
    )
    model = CostModel(topo)
    _, diags = interpret_schedule(schedule, tensor, model, trace=trace)
    assert [d for d in diags if d.code == VER004] == _dead_movements_oracle(
        schedule, tensor.counts, model.distances
    )


#: structural faults whose fetch windows take the numpy path without drops
NUMPY_WINDOW_PLANS = [
    (NodeFault(pid=5, start=2),),
    (NodeFault(pid=1, start=1, end=3), NodeFault(pid=4, start=1, end=3)),
]


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("nodes", NUMPY_WINDOW_PLANS, ids=["node", "partition"])
def test_drop_free_windows_equal_the_per_event_loop(bench, nodes, mesh44):
    """A drop rate too small to ever drop takes the per-event loop and
    must predict exactly what the numpy windows predict without drops."""
    wl = benchmark(bench, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity)
    links = (LinkFault(src=6, dst=7, start=1),)
    predictions = []
    for drop_rate in (0.0, 1e-300):
        plan = FaultPlan(node_faults=nodes, link_faults=links,
                         drop_rate=drop_rate)
        prediction, _ = interpret_schedule(
            schedule, tensor, model, trace=wl.trace, faults=plan
        )
        predictions.append(prediction)
    fast, loop = predictions
    if len(nodes) > 1:  # pid 0 is cut off: no-route fetches
        assert fast.n_unreachable > 0
    assert fast.to_dict() == loop.to_dict()
    assert fast.n_retries == loop.n_retries
    assert fast.window_links == loop.window_links
    assert np.array_equal(fast.per_window_cost, loop.per_window_cost)
    assert np.array_equal(fast.occupancy, loop.occupancy)


# -- numpy link accounting --------------------------------------------------

LINK_TOPOLOGIES = [
    Mesh1D(5),
    Mesh2D(3, 3),
    Torus2D(3, 4),
    Mesh3D(2, 2, 2),
    WeightedMesh2D(2, 3, row_weight=3, col_weight=1),
]


def _per_transfer_links(schedule, tensor, model):
    """The per-transfer oracle: route and add every fetch and move."""
    centers, counts = schedule.centers, tensor.counts
    vols = model.volume_vector(schedule.n_data)
    router = XYRouter(model.topology)
    window_links = [{} for _ in range(schedule.n_windows)]

    def add(w, links, volume):
        for link in links:
            window_links[w][link] = window_links[w].get(link, 0.0) + volume

    for d, w, p in zip(*np.nonzero(counts)):
        if int(centers[d, w]) != int(p):
            add(w, router.links(int(centers[d, w]), int(p)),
                float(counts[d, w, p]) * vols[d])
    for d, w, src, dst in schedule.movements():
        add(w, router.links(src, dst), float(vols[d]))
    return window_links


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_numpy_window_links_equal_the_per_transfer_oracle(data):
    from repro.core import Schedule
    from repro.trace import build_reference_tensor
    from repro.workloads import trace_from_counts

    topo = data.draw(st.sampled_from(LINK_TOPOLOGIES))
    n_data = data.draw(st.integers(1, 4))
    n_windows = data.draw(st.integers(1, 4))
    m = topo.n_procs
    counts = np.array(
        data.draw(
            st.lists(st.integers(0, 3), min_size=n_data * n_windows * m,
                     max_size=n_data * n_windows * m)
        ),
        dtype=np.int64,
    ).reshape(n_data, n_windows, m)
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    centers = np.array(
        data.draw(
            st.lists(st.integers(0, m - 1), min_size=n_data * n_windows,
                     max_size=n_data * n_windows)
        )
    ).reshape(n_data, n_windows)
    schedule = Schedule(centers=centers, windows=windows, method="drawn")
    # integer volumes take the numpy path, fractional ones the fallback
    volumes = data.draw(
        st.none()
        | st.lists(st.integers(1, 5), min_size=n_data, max_size=n_data)
        | st.lists(st.sampled_from([0.1, 0.25, 1.5, 3.0]),
                   min_size=n_data, max_size=n_data)
    )
    model = CostModel(topo, None if volumes is None else np.array(volumes))

    prediction, _ = interpret_schedule(schedule, tensor, model, trace=trace)
    assert prediction.window_links == _per_transfer_links(
        schedule, tensor, model
    )
    # movement costs, priced move by move in the schedule's order
    dist, vols = model.distances, model.volume_vector(n_data)
    per_window = (
        (dist[centers] * tensor.counts).sum(axis=2) * vols[:, None]
    ).sum(axis=0)
    movement = 0.0
    for d, w, src, dst in schedule.movements():
        movement += float(dist[src, dst]) * float(vols[d])
        per_window[w] += float(dist[src, dst]) * float(vols[d])
    assert prediction.movement_cost == movement
    assert prediction.per_window_cost.tolist() == per_window.tolist()


@pytest.mark.parametrize("volume", [1.0, 1.5])
def test_hotspot_ties_at_the_cap_break_by_link(mesh44, volume):
    """30 links tie above the budget; VER003 keeps the 25 smallest links.

    A fractional volume takes the per-transfer path, whose link order
    follows the transfers, so only the sort key puts the links in order.
    """
    from repro.core import Schedule
    from repro.grid import link_key, mesh_links
    from repro.trace import build_reference_tensor
    from repro.verify.abstract import MAX_DIAGNOSTICS_PER_CHECK
    from repro.workloads import trace_from_counts

    # one datum per link, listed largest link first so that neither the
    # datum order nor the transfer order matches the link order
    links = sorted(mesh_links(mesh44))[:30][::-1]
    counts = np.zeros((len(links), 1, mesh44.n_procs), dtype=np.int64)
    for d, (_, dst) in enumerate(links):
        counts[d, 0, dst] = 1
    trace, windows = trace_from_counts(counts, mesh44)
    tensor = build_reference_tensor(trace, windows)
    centers = np.array([[src] for src, _ in links])
    schedule = Schedule(centers=centers, windows=windows, method="handmade")
    model = CostModel(mesh44, np.full(len(links), volume))
    _, diags = interpret_schedule(
        schedule, tensor, model, trace=trace, link_budget=0.5
    )
    hot = [d for d in diags if d.code == VER003]
    assert len(hot) == MAX_DIAGNOSTICS_PER_CHECK
    expected = sorted(links)[:MAX_DIAGNOSTICS_PER_CHECK]
    assert [d.message.split()[1] for d in hot] == [
        link_key(link, mesh44.shape) for link in expected
    ]


def test_obs001_ties_break_by_link(mesh44):
    from repro.grid import link_key, mesh_links
    from repro.obs import SpatialRecorder, analyze_spatial

    recorder = SpatialRecorder(mesh44, 1, label="ties")
    hot = sorted(mesh_links(mesh44))[::-1][:6]  # recorded largest first
    for link in hot:
        recorder.record(0, [link], 1.0)
    report = analyze_spatial(recorder.finish(), hotspot_factor=1.0)
    saturated = [d for d in report.diagnostics if d.code == "OBS001"]
    assert [d.message.split()[2].rstrip(":") for d in saturated] == [
        link_key(link, mesh44.shape) for link in sorted(hot)
    ]


def test_interpret_rejects_another_instances_tensor(mesh44):
    tensor = benchmark(1, 8, mesh44).reference_tensor()
    model = CostModel(mesh44)
    schedule = gomcds(tensor, model, None)
    other = benchmark(5, 8, mesh44).reference_tensor()
    with pytest.raises(ValueError, match="disagree on windows"):
        interpret_schedule(schedule, other, model)
    with pytest.raises(ValueError, match="cost model's array"):
        interpret_schedule(schedule, tensor, CostModel(Mesh2D(2, 4)))
