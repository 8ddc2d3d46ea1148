"""Decision provenance: logs, attribution bit-identity, stores, export."""

import json
import pickle

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel, evaluate_schedule
from repro.core.reschedule import reschedule_around_faults, reschedule_from_window
from repro.engine import ScheduleRequest, schedule_many
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import (
    ACTION_NAMES,
    NOOP,
    DecisionLog,
    Instrumentation,
    ProvenanceStore,
    render_summary,
    to_jsonl,
)
from repro.verify import interpret_schedule
from repro.workloads import benchmark as make_benchmark
from tests.reference_pairs import (
    assert_derivations_match,
    recorded_derivations,
)

TOPO = Mesh2D(2, 4)
ALGORITHMS = ("SCDS", "LOMCDS", "GOMCDS")


def instance(bench=1, size=8, seed=1998):
    workload = make_benchmark(bench, size, TOPO, seed=seed)
    return workload.reference_tensor(), CostModel(workload.topology)


def solve_logged(tensor, model, algorithm, capacity=None, derive="numpy"):
    """Solve with provenance on; the log is the solver's own (``derive``
    ``"numpy"``) or its scalar reference derivation (``"python"``) on the
    same recorded inputs."""
    instr = Instrumentation.started(provenance=True)
    with recorded_derivations() as calls:
        sched = schedule(
            tensor,
            model,
            algorithm=algorithm,
            capacity=capacity,
            instrument=instr,
        )
    assert len(instr.provenance) == 1
    if derive == "python":
        return sched, assert_derivations_match(calls)[0]
    return sched, instr.provenance.logs[0]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("derive", ("numpy", "python"))
@pytest.mark.parametrize("constrained", (False, True))
def test_attribution_reconstructs_breakdown_bit_identically(
    algorithm, derive, constrained
):
    tensor, model = instance()
    capacity = (
        CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
        if constrained
        else None
    )
    sched, log = solve_logged(tensor, model, algorithm, capacity, derive)
    truth = evaluate_schedule(sched, tensor, model)
    claimed = log.attribution()
    # exact float equality: same arrays, same reduction order, same bits
    assert claimed.reference_cost == truth.reference_cost
    assert claimed.movement_cost == truth.movement_cost
    assert claimed.total == truth.total
    assert np.array_equal(log.centers, sched.centers)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_provenance_is_observational(algorithm):
    tensor, model = instance(bench=2)
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    dark = schedule(tensor, model, algorithm=algorithm, capacity=capacity)
    lit, _ = solve_logged(tensor, model, algorithm, capacity)
    assert np.array_equal(dark.centers, lit.centers)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernel_logs_bit_identical(algorithm):
    """The solver's log equals the scalar derivation on its inputs."""
    tensor, model = instance(bench=3)
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    # the "python" log is only returned once it matched field by field
    _, log = solve_logged(tensor, model, algorithm, capacity, "python")
    assert log.method == algorithm


def test_live_ranges_match_abstract_interpreter():
    tensor, model = instance()
    sched, log = solve_logged(tensor, model, "GOMCDS")
    prediction, diags = interpret_schedule(sched, tensor, model)
    assert not diags
    assert log.live_ranges() == prediction.live_ranges


def test_reschedulers_record_attribution_exactly():
    tensor, model = instance()
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))

    instr = Instrumentation.started(provenance=True)
    around = reschedule_around_faults(
        tensor, model, plan, capacity, instrument=instr
    )
    base = schedule(tensor, model, capacity=capacity)
    suffix = reschedule_from_window(
        base, tensor, model, plan, from_window=2,
        capacity=capacity, instrument=instr,
    )
    assert [log.method for log in instr.provenance.logs] == [
        "GOMCDS+faults", "GOMCDS+recovery",
    ]
    for sched, log in zip((around, suffix), instr.provenance.logs):
        claimed = log.attribution()
        truth = evaluate_schedule(sched, tensor, model)
        assert claimed.total == truth.total
        assert claimed.reference_cost == truth.reference_cost
        assert claimed.movement_cost == truth.movement_cost


def test_actions_and_views_are_consistent():
    tensor, model = instance(bench=2)
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    _, log = solve_logged(tensor, model, "LOMCDS", capacity)
    counts = log.action_counts()
    assert set(counts) == set(ACTION_NAMES)
    assert sum(counts.values()) == log.n_data * log.n_windows
    # window 0 is always a placement (possibly forced into a detour)
    assert counts["place"] + counts["detour"] >= log.n_data
    cell = log.decision(0, 0)
    assert cell["type"] == "decision"
    assert cell["action"] in ACTION_NAMES
    assert cell["move_cost"] == 0.0  # nothing moves into window 0
    segments = log.timeline(0)
    assert segments[0]["first_window"] == 0
    assert segments[-1]["last_window"] == log.n_windows - 1
    records = list(log.to_records(data=[0], windows=[0, 1]))
    assert records[0]["type"] == "provenance"
    assert len(records) == 1 + 2


def test_decision_log_pickles():
    tensor, model = instance()
    _, log = solve_logged(tensor, model, "GOMCDS")
    clone = pickle.loads(pickle.dumps(log))
    assert isinstance(clone, DecisionLog)
    assert np.array_equal(clone.centers, log.centers)
    assert clone.attribution() == log.attribution()


def test_stores_gate_recording():
    assert isinstance(NOOP.provenance, ProvenanceStore)
    assert NOOP.provenance.recording is False
    off = Instrumentation.started()  # recording session, provenance off
    assert off.provenance.recording is False
    tensor, model = instance()
    schedule(tensor, model, instrument=NOOP)
    assert len(NOOP.provenance) == 0
    schedule(tensor, model, instrument=off)
    assert len(off.provenance) == 0
    store = ProvenanceStore(recording=True)
    assert store.recording and len(store) == 0


def test_exporters_surface_provenance():
    tensor, model = instance()
    instr = Instrumentation.started(provenance=True)
    schedule(tensor, model, algorithm="GOMCDS", instrument=instr)
    text = render_summary(instr)
    assert "Decision provenance:" in text
    assert "GOMCDS" in text
    records = [json.loads(line) for line in to_jsonl(instr).splitlines()]
    headers = [r for r in records if r["type"] == "provenance"]
    assert len(headers) == 1
    assert headers[0]["attributed_total"] == pytest.approx(
        headers[0]["attributed_reference_cost"]
        + headers[0]["attributed_movement_cost"]
    )


def test_schedule_many_inline_labels_logs():
    tensor, model = instance()
    instr = Instrumentation.started(provenance=True)
    requests = [
        ScheduleRequest(tensor, model, algorithm="gomcds", label="first"),
        ScheduleRequest(tensor, model, algorithm="scds", label="second"),
    ]
    results = schedule_many(requests, instrument=instr)
    assert len(results) == 2
    labels = {log.label for log in instr.provenance.logs}
    assert labels == {"first", "second"}


def test_schedule_many_pool_harvests_decisions():
    tensor, model = instance()
    instr = Instrumentation.started(provenance=True)
    requests = [
        ScheduleRequest(tensor, model, algorithm="gomcds", label="pooled-a"),
        ScheduleRequest(tensor, model, algorithm="lomcds", label="pooled-b"),
    ]
    results = schedule_many(requests, workers=2, instrument=instr)
    assert len(results) == 2
    labels = {log.label for log in instr.provenance.logs}
    assert labels == {"pooled-a", "pooled-b"}
    for log, request in zip(
        sorted(instr.provenance.logs, key=lambda lg: lg.label), requests
    ):
        truth = evaluate_schedule(
            results[requests.index(request)], tensor, model
        )
        assert log.attribution().total == truth.total
