"""Fault-aware rescheduling: dead cells are never chosen as centers."""

import numpy as np
import pytest

from repro.core import (
    alive_window_mask,
    evaluate_schedule,
    gomcds,
    reschedule_around_faults,
    reschedule_from_window,
)
from repro.faults import FaultPlan, NodeFault
from repro.mem import CapacityError
from repro.sim import replay_schedule


def test_empty_plan_reproduces_gomcds(lu8_tensor, model44, paper_capacity):
    plain = gomcds(lu8_tensor, model44, paper_capacity)
    faulted = reschedule_around_faults(
        lu8_tensor, model44, FaultPlan(), paper_capacity
    )
    assert np.array_equal(faulted.centers, plain.centers)


def test_centers_avoid_dead_cells(lu8_tensor, model44, paper_capacity):
    plan = FaultPlan(
        node_faults=(NodeFault(pid=5, start=0), NodeFault(pid=9, start=2, end=4))
    )
    schedule = reschedule_around_faults(
        lu8_tensor, model44, plan, paper_capacity
    )
    alive = alive_window_mask(plan, lu8_tensor.n_windows, model44.n_procs)
    for w in range(lu8_tensor.n_windows):
        chosen = set(int(c) for c in schedule.centers[:, w])
        dead = set(np.nonzero(~alive[w])[0].tolist())
        assert not chosen & dead, f"window {w} placed data on dead nodes"


def test_alive_window_mask_shape_and_healing():
    plan = FaultPlan(node_faults=(NodeFault(pid=2, start=1, end=3),))
    alive = alive_window_mask(plan, n_windows=4, n_procs=6)
    assert alive.shape == (4, 6)
    assert alive[0, 2] and not alive[1, 2] and not alive[2, 2] and alive[3, 2]
    assert alive[:, [0, 1, 3, 4, 5]].all()


def test_whole_array_death_raises(lu8_tensor, model44):
    plan = FaultPlan(
        node_faults=tuple(NodeFault(pid=p, start=0) for p in range(16))
    )
    with pytest.raises(CapacityError, match="no surviving processor"):
        reschedule_around_faults(lu8_tensor, model44, plan)


def test_whole_array_death_in_middle_window_is_a_coded_diagnostic(
    lu8_tensor, model44, paper_capacity
):
    # Every processor dies in window 2 only: the reschedule must surface a
    # clear FLT004 diagnostic naming that window, not an index error from
    # the masked shortest-path machinery.
    plan = FaultPlan(
        node_faults=tuple(NodeFault(pid=p, start=2, end=3) for p in range(16))
    )
    with pytest.raises(CapacityError, match=r"\[FLT004\].*window 2") as info:
        reschedule_around_faults(lu8_tensor, model44, plan, paper_capacity)
    assert info.value.code == "FLT004"
    assert info.value.window == 2


def test_whole_array_death_is_caught_statically(lu8_tensor, model44):
    # The same contradiction is flagged by the lint rule without running
    # the scheduler at all.
    from repro.lint import LintContext, run_lint

    plan = FaultPlan(
        node_faults=tuple(NodeFault(pid=p, start=2, end=3) for p in range(16))
    )
    context = LintContext(
        faults=plan, topology=model44.topology, model=model44
    )
    report = run_lint(context, select=["FLT004"])
    assert "FLT004" in report.codes()
    assert any(d.window == 2 for d in report.diagnostics)
    assert report.exit_code == 2


def test_capacity_respected_on_survivors(lu8_tensor, model44, paper_capacity):
    plan = FaultPlan(
        node_faults=(NodeFault(pid=0, start=0), NodeFault(pid=1, start=0))
    )
    schedule = reschedule_around_faults(
        lu8_tensor, model44, plan, paper_capacity
    )
    caps = paper_capacity.capacities
    for w in range(lu8_tensor.n_windows):
        occupancy = np.bincount(
            schedule.centers[:, w], minlength=model44.n_procs
        )
        assert (occupancy <= caps).all()


def test_rescheduling_beats_naive_replay(
    lu8, lu8_tensor, model44, paper_capacity
):
    plan = FaultPlan(
        node_faults=(NodeFault(pid=5, start=0), NodeFault(pid=10, start=1))
    )
    naive = replay_schedule(
        lu8.trace,
        gomcds(lu8_tensor, model44, paper_capacity),
        model44,
        capacity=paper_capacity,
        faults=plan,
    )
    informed = replay_schedule(
        lu8.trace,
        reschedule_around_faults(lu8_tensor, model44, plan, paper_capacity),
        model44,
        capacity=paper_capacity,
        faults=plan,
    )
    assert informed.accounts_for_all_fetches()
    assert informed.completion_rate >= naive.completion_rate
    assert informed.degraded_cost <= naive.degraded_cost


def test_rescheduled_analytic_cost_is_sane(lu8_tensor, model44, paper_capacity):
    # avoiding dead nodes can only cost more than the unconstrained optimum
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
    plain = evaluate_schedule(
        gomcds(lu8_tensor, model44, paper_capacity), lu8_tensor, model44
    )
    faulted = evaluate_schedule(
        reschedule_around_faults(lu8_tensor, model44, plan, paper_capacity),
        lu8_tensor,
        model44,
    )
    assert faulted.total >= plain.total
    assert faulted.total < np.inf


def test_method_tag_and_meta(lu8_tensor, model44):
    plan = FaultPlan(node_faults=(NodeFault(pid=3, start=0),))
    schedule = reschedule_around_faults(lu8_tensor, model44, plan)
    assert schedule.method == "GOMCDS+faults"
    assert schedule.meta["n_node_faults"] == 1


# -- incremental rescheduling (online recovery's planning step) ---------------


class TestRescheduleFromWindow:
    @pytest.fixture
    def mid_fault(self, lu8_tensor, model44):
        schedule = gomcds(lu8_tensor, model44)
        w = lu8_tensor.n_windows // 2
        victim = int(schedule.centers[0, w])
        plan = FaultPlan(node_faults=(NodeFault(victim, start=w),))
        return schedule, plan, w, victim

    def test_prefix_is_preserved_verbatim(self, mid_fault, lu8_tensor, model44):
        schedule, plan, w, _ = mid_fault
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=w
        )
        assert np.array_equal(new.centers[:, :w], schedule.centers[:, :w])
        assert new.method == "GOMCDS+recovery"
        assert new.meta["from_window"] == w
        assert new.meta["base_method"] == schedule.method

    def test_suffix_avoids_dead_cells(self, mid_fault, lu8_tensor, model44):
        schedule, plan, w, _ = mid_fault
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=w
        )
        alive = alive_window_mask(plan, lu8_tensor.n_windows, model44.n_procs)
        for ww in range(w, lu8_tensor.n_windows):
            chosen = set(int(c) for c in new.centers[:, ww])
            dead = set(np.nonzero(~alive[ww])[0].tolist())
            assert not chosen & dead

    def test_mid_schedule_fault_replay_improves(
        self, mid_fault, lu8, lu8_tensor, model44
    ):
        # re-planning the suffix must not degrade the replay vs keeping
        # the stale schedule under the same mid-schedule fault
        schedule, plan, w, _ = mid_fault
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=w
        )
        stale = replay_schedule(lu8.trace, schedule, model44, faults=plan)
        fresh = replay_schedule(lu8.trace, new, model44, faults=plan)
        assert fresh.accounts_for_all_fetches()
        assert fresh.degraded_cost <= stale.degraded_cost

    def test_pinned_placement_changes_the_first_suffix_window(
        self, lu8_tensor, model44
    ):
        # pinning every datum onto pid 0 makes moving anywhere else cost
        # hops from pid 0, so the re-plan must charge (and may choose)
        # differently from the unpinned prefix continuation
        schedule = gomcds(lu8_tensor, model44)
        plan = FaultPlan(node_faults=(NodeFault(15, start=1),))
        pinned = np.zeros(lu8_tensor.n_data, dtype=np.int64)
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=1,
            placement=pinned,
        )
        default = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=1
        )
        assert new.n_windows == default.n_windows
        assert not np.array_equal(new.centers, default.centers)

    def test_from_window_zero_with_initial_placement(
        self, lu8_tensor, model44
    ):
        schedule = gomcds(lu8_tensor, model44)
        plan = FaultPlan(node_faults=(NodeFault(3, start=0),))
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=0
        )
        assert 3 not in set(new.centers.ravel().tolist())

    def test_out_of_range_from_window_rejected(self, mid_fault, lu8_tensor, model44):
        schedule, plan, _, _ = mid_fault
        with pytest.raises(ValueError, match="from_window"):
            reschedule_from_window(
                schedule, lu8_tensor, model44, plan,
                from_window=lu8_tensor.n_windows,
            )
        with pytest.raises(ValueError, match="from_window"):
            reschedule_from_window(
                schedule, lu8_tensor, model44, plan, from_window=-1
            )

    def test_bad_placement_shape_rejected(self, mid_fault, lu8_tensor, model44):
        schedule, plan, w, _ = mid_fault
        with pytest.raises(ValueError, match="placement"):
            reschedule_from_window(
                schedule, lu8_tensor, model44, plan, from_window=w,
                placement=np.zeros(3, dtype=np.int64),
            )
        # the right shape but a pid outside the array: the certificate
        # checker calls the same placement malformed (VER005)
        for pid in (-1, model44.n_procs):
            placement = schedule.centers[:, w - 1].copy()
            placement[0] = pid
            with pytest.raises(
                ValueError, match=rf"placement of datum 0 is pid {pid}\b"
            ):
                reschedule_from_window(
                    schedule, lu8_tensor, model44, plan, from_window=w,
                    placement=placement,
                )

    def test_dead_suffix_window_raises_flt004(self, lu8_tensor, model44):
        schedule = gomcds(lu8_tensor, model44)
        plan = FaultPlan(
            node_faults=tuple(NodeFault(pid=p, start=3, end=4) for p in range(16))
        )
        with pytest.raises(CapacityError, match=r"\[FLT004\].*window 3") as info:
            reschedule_from_window(
                schedule, lu8_tensor, model44, plan, from_window=2
            )
        assert info.value.window == 3

    def test_capacity_respected_on_suffix(
        self, lu8_tensor, model44, paper_capacity
    ):
        schedule = gomcds(lu8_tensor, model44, paper_capacity)
        plan = FaultPlan(node_faults=(NodeFault(5, start=1),))
        new = reschedule_from_window(
            schedule, lu8_tensor, model44, plan, from_window=1,
            capacity=paper_capacity,
        )
        caps = paper_capacity.capacities
        for w in range(1, lu8_tensor.n_windows):
            occupancy = np.bincount(
                new.centers[:, w], minlength=model44.n_procs
            )
            assert (occupancy <= caps).all()
