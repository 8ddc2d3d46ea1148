"""The static-vs-dynamic gate: agreement on every benchmark, coded
divergence when the static prediction is wrong."""

import dataclasses

import pytest

from repro.core import CostModel, gomcds, reschedule_around_faults
from repro.diagnostics import VER008, VER009, VER010, Severity
from repro.faults import FaultPlan, LinkFault, NodeFault
from repro.mem import CapacityPlan
from repro.verify import interpret_schedule, run_differential
from repro.workloads import benchmark
from tests.cost_helpers import count_cost_builds


def _setup(bench, mesh, faults=None):
    wl = benchmark(bench, 8, mesh)
    tensor = wl.reference_tensor()
    model = CostModel(mesh)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh.n_procs, 2.0)
    if faults is not None:
        schedule = reschedule_around_faults(tensor, model, faults, capacity)
    else:
        schedule = gomcds(tensor, model, capacity)
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace,
        capacity=None if faults is not None else capacity, faults=faults,
    )
    assert not [d for d in diags if d.severity == Severity.ERROR]
    return wl, tensor, model, capacity, schedule, prediction


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
def test_every_benchmark_agrees(bench, mesh44):
    wl, tensor, model, capacity, schedule, prediction = _setup(bench, mesh44)
    diags, facts = run_differential(
        schedule, wl.trace, tensor, model, prediction, capacity=capacity
    )
    assert diags == []
    assert facts["replay"]["n_delivered"] == prediction.n_delivered


def test_faulted_scenario_agrees(mesh44):
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    wl, tensor, model, capacity, schedule, prediction = _setup(
        1, mesh44, faults=plan
    )
    diags, facts = run_differential(
        schedule, wl.trace, tensor, model, prediction, faults=plan
    )
    assert diags == []
    assert facts["static"]["faulted"] is True


#: one plan per faulted-interpretation branch: a permanent node fault
#: (evacuation, dead endpoints), severed links (detour routes), a node
#: that heals, two transient faults that cut pid 0 off while it stays
#: alive (no-route fetches and skipped moves), and transient drops (the
#: per-event retry path)
FAULT_PLANS = {
    "node": FaultPlan(node_faults=(NodeFault(pid=5, start=2),)),
    "link": FaultPlan(
        link_faults=(
            LinkFault(src=5, dst=6, start=1),
            LinkFault(src=9, dst=5, end=3),
        )
    ),
    "transient": FaultPlan(node_faults=(NodeFault(pid=10, start=1, end=3),)),
    "partition": FaultPlan(
        node_faults=(
            NodeFault(pid=1, start=1, end=3),
            NodeFault(pid=4, start=1, end=3),
        )
    ),
    "drops": FaultPlan(drop_rate=0.2, seed=3),
}


@pytest.mark.parametrize("rescheduled", [True, False],
                         ids=["rescheduled", "fault-unaware"])
@pytest.mark.parametrize("plan", list(FAULT_PLANS))
@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
def test_faulted_static_and_replay_agree(bench, plan, rescheduled, mesh44):
    """The faulted interpreter and the degraded replay are independent
    derivations; every counter, cost and link volume must agree, for the
    schedule rescheduled around the plan and for the healthy one run
    into it (dead centers, skipped moves, unreachable fetches)."""
    faults = FAULT_PLANS[plan]
    wl = benchmark(bench, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    if rescheduled:
        schedule = reschedule_around_faults(tensor, model, faults, capacity)
    else:
        schedule = gomcds(tensor, model, capacity)
    prediction, _ = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, faults=faults
    )
    diags, facts = run_differential(
        schedule, wl.trace, tensor, model, prediction, faults=faults
    )
    assert not {d.code for d in diags} & {VER008, VER009, VER010}
    assert facts["replay"]["n_delivered"] == prediction.n_delivered


def test_wrong_cost_prediction_is_ver008(mesh44):
    wl, tensor, model, capacity, schedule, prediction = _setup(1, mesh44)
    lying = dataclasses.replace(
        prediction, reference_cost=prediction.reference_cost + 1.0
    )
    diags, _ = run_differential(
        schedule, wl.trace, tensor, model, lying, capacity=capacity
    )
    assert any(d.code == VER008 for d in diags)


def test_wrong_link_volume_is_ver009(mesh44):
    wl, tensor, model, capacity, schedule, prediction = _setup(1, mesh44)
    window_links = [dict(links) for links in prediction.window_links]
    for links in window_links:
        if links:
            first = next(iter(links))
            links[first] += 2.0
            break
    lying = dataclasses.replace(prediction, window_links=window_links)
    diags, _ = run_differential(
        schedule, wl.trace, tensor, model, lying, capacity=capacity
    )
    assert any(d.code == VER009 for d in diags)


def test_wrong_accounting_is_ver010(mesh44):
    wl, tensor, model, capacity, schedule, prediction = _setup(1, mesh44)
    lying = dataclasses.replace(
        prediction, n_delivered=prediction.n_delivered - 1
    )
    diags, _ = run_differential(
        schedule, wl.trace, tensor, model, lying, capacity=capacity
    )
    assert any(d.code == VER010 for d in diags)


@pytest.mark.parametrize("faulted", [False, True])
def test_certify_builds_one_cost_tensor(mesh44, monkeypatch, faulted):
    from repro.verify import certify_schedule

    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    faults = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    builds = count_cost_builds(monkeypatch)
    if faulted:
        schedule = reschedule_around_faults(
            tensor, model, faults, capacity, certify=True
        )
    else:
        schedule = gomcds(tensor, model, capacity, certify=True)
    report = certify_schedule(
        schedule, wl.trace, model, tensor=tensor, capacity=capacity,
        faults=faults if faulted else None,
    )
    assert not report.diverged
    assert report.certified_data == schedule.n_data
    # the solve, the certificate check and the analytic evaluator share
    # the model's one tensor
    assert len(builds) == 1 and builds[0] is tensor
