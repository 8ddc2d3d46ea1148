"""Per-rule unit tests: every code fires on its seeded violation."""

import numpy as np
import pytest

from repro.core import Schedule
from repro.diagnostics import Severity
from repro.faults import FaultPlan, LinkFault, NodeFault
from repro.lint import (
    LintContext,
    occupancy_overflows,
    run_lint,
    workload_context,
)
from repro.mem import CapacityPlan
from repro.trace import WindowSet, windows_by_step_count
from repro.workloads import paper_instance, trace_from_counts
from tests.cost_helpers import count_cost_builds


def hotspot_bundle(mesh23, static_pid=None):
    """2 data / 3 windows on a 2x3 mesh, hottest at processors 0 and 4."""
    counts = np.zeros((2, 3, 6), dtype=np.int64)
    counts[0, :, 0] = 4
    counts[1, :, 4] = 4
    trace, windows = trace_from_counts(counts, mesh23)
    if static_pid is None:
        centers = np.array([[0, 0, 0], [4, 4, 4]])
    else:
        centers = np.full((2, 3), static_pid, dtype=np.int64)
    schedule = Schedule(centers=centers, windows=windows)
    return LintContext(schedule=schedule, trace=trace, topology=mesh23)


def test_occupancy_overflows_ignores_foreign_centers():
    centers = np.array([[0, 99], [0, 1]])
    caps = np.array([1, 1])
    assert occupancy_overflows(centers, caps) == [(0, 0, 2)]


def test_sch002_total_infeasibility(mesh23):
    schedule = Schedule(
        centers=np.zeros((8, 3), dtype=np.int64),
        windows=windows_by_step_count(3, 1),
    )
    context = LintContext(
        schedule=schedule,
        topology=mesh23,
        capacity=CapacityPlan.uniform(6, 1),
    )
    report = run_lint(context, select=["SCH002"])
    messages = [d.message for d in report.diagnostics]
    assert any("cannot fit into total capacity 6" in m for m in messages)
    assert any("memory of processor 0 over capacity: 8 > 1" in m for m in messages)
    assert all(d.severity == Severity.ERROR for d in report.diagnostics)


def test_sch003_movement_budget_violation(mesh23):
    centers = np.array([[0, 1, 2], [3, 3, 3]])
    schedule = Schedule(
        centers=centers,
        windows=windows_by_step_count(3, 1),
        meta={"max_moves": 1},
    )
    report = run_lint(LintContext(schedule=schedule), select=["SCH003"])
    (diag,) = report.diagnostics
    assert "movement budget of 1" in diag.message


def test_sch003_catches_a_lying_movement_list(mesh23):
    class LyingSchedule(Schedule):
        def movements(self):
            return super().movements() + [(1, 1, 3, 5)]

        def n_movements(self):
            return super().n_movements() + 1

    schedule = LyingSchedule(
        centers=np.array([[0, 1, 1], [3, 3, 3]]),
        windows=windows_by_step_count(3, 1),
    )
    report = run_lint(LintContext(schedule=schedule), select=["SCH003"])
    messages = [d.message for d in report.diagnostics]
    assert any("does not perform" in m for m in messages)
    assert any("n_movements() reports 2" in m for m in messages)


def test_sch004_trace_mismatches(mesh44):
    context = workload_context(paper_instance(1, 8, mesh44.shape))
    context.schedule = context.schedule.restricted_to(
        np.arange(context.schedule.n_data - 1)
    )
    report = run_lint(context, select=["SCH004"])
    assert any("but the trace addresses" in d.message for d in report.diagnostics)


def test_sch004_capacity_topology_mismatch(mesh23):
    context = hotspot_bundle(mesh23)
    context.capacity = CapacityPlan.uniform(4, 2)
    report = run_lint(context, select=["SCH004"])
    assert any(
        "capacity plan covers 4 processors but the array has 6" in d.message
        for d in report.diagnostics
    )


def test_trc001_corrupted_event_arrays(mesh23):
    context = hotspot_bundle(mesh23)
    procs = context.trace.procs.copy()
    procs[0] = 99
    object.__setattr__(context.trace, "procs", procs)
    report = run_lint(context, select=["TRC001"])
    assert any(
        "names processor 99, outside [0, 6)" in d.message
        for d in report.diagnostics
    )


def test_trc002_window_trace_span_mismatch(mesh23):
    context = hotspot_bundle(mesh23)
    context.windows = WindowSet(starts=np.array([0, 5]), n_steps=10)
    report = run_lint(context, select=["TRC002"])
    assert any(
        "spans 10 steps but the trace has 3" in d.message
        for d in report.diagnostics
    )


def test_trc002_corrupted_starts(mesh23):
    windows = windows_by_step_count(6, 2)
    object.__setattr__(windows, "starts", np.array([1, 4, 4]))
    report = run_lint(LintContext(windows=windows), select=["TRC002"])
    messages = [d.message for d in report.diagnostics]
    assert any("must start at step 0" in m for m in messages)
    assert any("strictly increasing" in m for m in messages)


def test_trc003_empty_window_is_info(mesh23):
    counts = np.zeros((2, 3, 6), dtype=np.int64)
    counts[0, 0, 0] = 2
    counts[1, 2, 4] = 2  # window 1 holds no references
    trace, windows = trace_from_counts(counts, mesh23)
    report = run_lint(LintContext(trace=trace, windows=windows), select=["TRC003"])
    (diag,) = report.diagnostics
    assert diag.severity == Severity.INFO
    assert diag.window == 1
    assert report.exit_code == 0


def test_flt001_and_flt002_share_validate_for_logic(mesh44):
    plan = FaultPlan(node_faults=(NodeFault(pid=99, start=0),))
    report = run_lint(LintContext(faults=plan, topology=mesh44), select=["FLT"])
    (diag,) = report.by_code("FLT001")
    assert "only 16 processors" in diag.message

    late = FaultPlan(node_faults=(NodeFault(pid=2, start=7),))
    context = LintContext(
        faults=late,
        topology=mesh44,
        windows=windows_by_step_count(6, 2),
    )
    report = run_lint(context, select=["FLT002"])
    (diag,) = report.diagnostics
    assert "only 3 windows" in diag.message


def test_flt003_non_adjacent_link(mesh44):
    plan = FaultPlan(link_faults=(LinkFault(src=0, dst=5),))
    report = run_lint(LintContext(faults=plan, topology=mesh44), select=["FLT003"])
    (diag,) = report.diagnostics
    assert "non-adjacent" in diag.message
    assert diag.processor == 0
    # an existing wire is fine
    ok = FaultPlan(link_faults=(LinkFault(src=0, dst=1),))
    assert run_lint(
        LintContext(faults=ok, topology=mesh44), select=["FLT003"]
    ).diagnostics == []


def test_flt005_insufficient_surviving_capacity(mesh44):
    schedule = Schedule(
        centers=np.arange(16, dtype=np.int64)[:, None],
        windows=windows_by_step_count(1, 1),
    )
    plan = FaultPlan(node_faults=tuple(NodeFault(pid=p) for p in range(8)))
    context = LintContext(
        schedule=schedule,
        topology=mesh44,
        capacity=CapacityPlan.uniform(16, 1),
        faults=plan,
    )
    report = run_lint(context, select=["FLT005"])
    (diag,) = report.diagnostics
    assert "16 data items cannot fit into the 8 slots" in diag.message


def test_flt006_schedule_on_dead_node(mesh44):
    schedule = Schedule(
        centers=np.array([[5, 5], [2, 3]]),
        windows=windows_by_step_count(4, 2),
    )
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
    report = run_lint(
        LintContext(schedule=schedule, topology=mesh44, faults=plan),
        select=["FLT006"],
    )
    (diag,) = report.diagnostics
    assert diag.datum == 0 and diag.window == 1 and diag.processor == 5
    assert "reschedule_around_faults" in diag.hint


def test_cst001_flags_a_corrupted_evaluator(mesh44, monkeypatch):
    context = workload_context(paper_instance(1, 8, mesh44.shape))
    clean = run_lint(context, select=["CST001"])
    assert clean.diagnostics == []

    import repro.core.evaluate as evaluate

    true_costs = evaluate.per_datum_costs

    def corrupted(schedule, tensor, model):
        ref, move = true_costs(schedule, tensor, model)
        return ref + 1.0, move

    monkeypatch.setattr(evaluate, "per_datum_costs", corrupted)
    report = run_lint(context, select=["CST001"])
    assert report.exit_code == 2
    assert all(d.code == "CST001" for d in report.diagnostics)
    assert "cost-graph path sums to" in report.diagnostics[0].message


def test_cst002_meta_cost_mismatch(mesh44):
    context = workload_context(paper_instance(1, 8, mesh44.shape))
    context.schedule = Schedule(
        centers=context.schedule.centers,
        windows=context.schedule.windows,
        meta={"cost": 1.0},
    )
    report = run_lint(context, select=["CST002"])
    (diag,) = report.diagnostics
    assert diag.severity == Severity.WARNING
    assert "meta records cost 1" in diag.message
    assert report.exit_code == 1


def test_thy001_flags_stranded_center(mesh23):
    # Both data are pinned far from their only referencing processor.
    context = hotspot_bundle(mesh23, static_pid=5)
    report = run_lint(context, select=["THY001"])
    assert report.diagnostics
    assert {d.code for d in report.diagnostics} == {"THY001"}
    assert report.exit_code == 1
    assert any(d.datum == 0 for d in report.diagnostics)


def test_thy001_respects_capacity_headroom(mesh23):
    # The improving processors are full, so the "improvement" is not
    # realizable and must not be reported.
    context = hotspot_bundle(mesh23, static_pid=5)
    caps = np.ones(6, dtype=np.int64)
    caps[5] = 2
    context.capacity = CapacityPlan(caps)
    occupied = Schedule(
        centers=np.array([[0, 0, 0], [4, 4, 4]]),
        windows=context.schedule.windows,
    )
    # occupancy of the *linted* schedule fills 5 only; 0 and 4 stay free,
    # so with generous caps the warning persists...
    report = run_lint(context, select=["THY001"])
    assert report.diagnostics
    # ...but zero headroom anywhere else silences it.
    context.capacity = CapacityPlan(np.array([0, 0, 0, 0, 0, 2]))
    report = run_lint(context, select=["THY001"])
    assert report.diagnostics == []
    del occupied


def test_thy002_clean_on_manhattan_model(mesh23):
    context = hotspot_bundle(mesh23)
    report = run_lint(context, select=["THY002"])
    assert report.diagnostics == []


def test_gomcds_workloads_are_thy001_clean(mesh44):
    # The paper's greedy scheduler never leaves a one-step improvement.
    for bench in (1, 2, 3):
        report = run_lint(
            workload_context(paper_instance(bench, 8, mesh44.shape)),
            select=["THY"],
        )
        assert report.diagnostics == [], bench

def test_flt007_checkpoint_interval_bounds(mesh44):
    from repro.faults import RecoveryPolicy

    report = run_lint(
        LintContext(recovery=RecoveryPolicy(checkpoint_interval=0)),
        select=["FLT007"],
    )
    (diag,) = report.diagnostics
    assert diag.severity is Severity.ERROR
    assert "checkpoint interval" in diag.message

    # interval past the horizon needs windows to be judged against
    context = LintContext(
        recovery=RecoveryPolicy(checkpoint_interval=9),
        windows=windows_by_step_count(6, 2),  # 3 windows
    )
    report = run_lint(context, select=["FLT007"])
    (diag,) = report.diagnostics
    assert "3" in diag.message

    ok = LintContext(
        recovery=RecoveryPolicy(checkpoint_interval=3),
        windows=windows_by_step_count(6, 2),
    )
    assert run_lint(ok, select=["FLT007"]).diagnostics == []


def test_flt008_replicate_needs_replicas(mesh44):
    from repro.core import CostModel, replicated_scds
    from repro.faults import RecoveryPolicy
    from repro.workloads import drifting_hotspot_workload

    policy = RecoveryPolicy(mode="replicate")
    report = run_lint(LintContext(recovery=policy), select=["FLT008"])
    (diag,) = report.diagnostics
    assert "replica" in diag.message

    wl = drifting_hotspot_workload(mesh44, 3, 8, seed=5)
    tensor = wl.reference_tensor()
    replicas = replicated_scds(tensor, CostModel(mesh44), k=2)
    ok = LintContext(recovery=policy, replicas=replicas)
    assert run_lint(ok, select=["FLT008"]).diagnostics == []

    # degrade mode never needs replicas
    plain = LintContext(recovery=RecoveryPolicy(mode="degrade"))
    assert run_lint(plain, select=["FLT008"]).diagnostics == []


def test_one_lint_run_builds_one_cost_tensor(monkeypatch):
    from repro.lint import run_lint

    context = workload_context(paper_instance(1, 8))
    builds = count_cost_builds(monkeypatch)
    report = run_lint(context)
    # CST001, CST002, THY001 and THY002 all read the model's cost tensor
    assert {"CST001", "THY001", "THY002"} <= set(report.rules_run)
    assert len(builds) == 1 and builds[0] is context.tensor
