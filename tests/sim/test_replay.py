"""Replay-simulator tests: hop-level replay must equal the analytic model."""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    CostModel,
    Schedule,
    evaluate_schedule,
    gomcds,
    grouped_schedule,
    lomcds,
    scds,
)
from repro.distrib import baseline_schedule
from repro.grid import XYRouter
from repro.mem import CapacityError, CapacityPlan
from repro.sim import replay_schedule
from repro.workloads import benchmark


class TestAgreementWithAnalyticModel:
    @pytest.mark.parametrize("scheduler", [scds, lomcds, gomcds, grouped_schedule])
    def test_exact_agreement(self, lu8, lu8_tensor, mesh44, scheduler):
        model = CostModel(mesh44)
        schedule = scheduler(lu8_tensor, model)
        analytic = evaluate_schedule(schedule, lu8_tensor, model)
        report = replay_schedule(lu8.trace, schedule, model)
        assert report.matches(analytic)
        assert report.total_cost == pytest.approx(analytic.total)

    def test_agreement_with_baseline(self, lu8, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        schedule = baseline_schedule(lu8, "row_wise")
        analytic = evaluate_schedule(schedule, lu8_tensor, model)
        report = replay_schedule(lu8.trace, schedule, model)
        assert report.matches(analytic)

    def test_agreement_with_volumes(self, drift, mesh44):
        rng = np.random.default_rng(0)
        tensor = drift.reference_tensor()
        model = CostModel(mesh44, volumes=rng.uniform(0.5, 3.0, tensor.n_data))
        schedule = gomcds(tensor, model)
        analytic = evaluate_schedule(schedule, tensor, model)
        report = replay_schedule(drift.trace, schedule, model)
        assert report.matches(analytic)

    def test_per_window_costs_sum_to_total(self, drift, mesh44):
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        schedule = lomcds(tensor, model)
        report = replay_schedule(drift.trace, schedule, model)
        assert report.per_window_cost.sum() == pytest.approx(report.total_cost)


class TestLinkTracking:
    def test_link_traffic_equals_cost(self, drift, mesh44):
        # every hop carries its transfer's volume, so summed link traffic
        # must equal the hop x volume objective exactly
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        schedule = gomcds(tensor, model)
        report = replay_schedule(drift.trace, schedule, model, track_links=True)
        assert report.total_link_traffic == pytest.approx(report.total_cost)

    def test_links_are_mesh_edges(self, drift, mesh44):
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        report = replay_schedule(
            drift.trace, lomcds(tensor, model), model, track_links=True
        )
        for a, b in report.link_traffic:
            assert mesh44.distance(a, b) == 1

    def test_max_link_load_positive(self, drift, mesh44):
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        report = replay_schedule(
            drift.trace, baseline_schedule(drift, "random"), model, track_links=True
        )
        assert report.max_link_load > 0
        assert report.max_link_load <= report.total_link_traffic

    def test_each_path_is_built_once_per_router(self, mesh44, monkeypatch):
        # routers on equal topologies share one links memo, so a
        # link-tracked replay builds every pair's x-y path at most once
        # however often the schedule sends traffic between the same two
        # processors; earlier tests filled the memo, so start from empty
        from repro.grid.routing import _route_table

        _route_table.cache_clear()
        built = Counter()
        build = XYRouter.route

        def counting_route(router, src, dst):
            built[src, dst] += 1
            return build(router, src, dst)

        monkeypatch.setattr(XYRouter, "route", counting_route)
        model = CostModel(mesh44)
        wl = benchmark(1, 8, mesh44)
        schedule = gomcds(wl.reference_tensor(), model)
        report = replay_schedule(wl.trace, schedule, model, track_links=True)
        assert report.total_link_traffic == pytest.approx(report.total_cost)
        assert built, "the link-tracked replay routed nothing"
        assert max(built.values()) == 1


class TestCounters:
    def test_local_fetches_counted(self, drift, mesh44):
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        report = replay_schedule(drift.trace, gomcds(tensor, model), model)
        assert 0 < report.n_local_fetches <= report.n_fetches

    def test_moves_counted(self, drift, mesh44):
        model = CostModel(mesh44)
        tensor = drift.reference_tensor()
        schedule = lomcds(tensor, model)
        report = replay_schedule(drift.trace, schedule, model)
        assert report.n_moves == schedule.n_movements()

    def test_static_schedule_never_moves(self, lu8, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        report = replay_schedule(lu8.trace, scds(lu8_tensor, model), model)
        assert report.n_moves == 0
        assert report.movement_cost == 0.0


class TestCapacityEnforcement:
    def test_valid_schedule_passes(self, lu8, lu8_tensor, mesh44, paper_capacity):
        model = CostModel(mesh44)
        schedule = gomcds(lu8_tensor, model, capacity=paper_capacity)
        replay_schedule(lu8.trace, schedule, model, capacity=paper_capacity)

    def test_overcommitted_schedule_caught(self, lu8, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        # place everything on processor 0: blatantly over capacity
        schedule = Schedule.static(
            np.zeros(lu8_tensor.n_data, dtype=np.int64), lu8_tensor.windows
        )
        with pytest.raises(CapacityError):
            replay_schedule(
                lu8.trace, schedule, model, capacity=CapacityPlan.uniform(16, 8)
            )


class TestValidation:
    def test_window_span_checked(self, lu8, mesh44):
        from repro.trace import windows_by_step_count

        model = CostModel(mesh44)
        wrong = windows_by_step_count(lu8.trace.n_steps + 5, 2)
        schedule = Schedule.static(np.zeros(lu8.n_data, dtype=np.int64), wrong)
        with pytest.raises(ValueError):
            replay_schedule(lu8.trace, schedule, model)

    def test_n_data_checked(self, lu8, mesh44):
        model = CostModel(mesh44)
        schedule = Schedule.static(np.zeros(3, dtype=np.int64), lu8.windows)
        with pytest.raises(ValueError):
            replay_schedule(lu8.trace, schedule, model)
