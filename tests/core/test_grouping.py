"""Algorithm 3 (window grouping) tests."""

import numpy as np
import pytest

from repro.core import (
    CostModel,
    evaluate_schedule,
    gomcds,
    greedy_grouping,
    grouped_schedule,
    lomcds,
    optimal_grouping,
    partition_cost,
)
from repro.grid import Mesh1D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def line_costs(counts):
    """(window_costs, move) for one datum on a 1-D array."""
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    return model.all_placement_costs(tensor)[0], model.distances.astype(float)


class TestPartitionCost:
    def test_singletons_equal_lomcds_cost(self):
        costs, move = line_costs([[[3, 0, 0, 0, 0], [0, 0, 0, 0, 2]]])
        centers, total = partition_cost(costs, move, [(0, 0), (1, 1)], "local")
        assert centers.tolist() == [0, 4]
        assert total == 0 + 0 + 4  # two optimal windows + one 4-hop move

    def test_merged_group_uses_summed_costs(self):
        costs, move = line_costs([[[3, 0, 0, 0, 0], [0, 0, 0, 0, 2]]])
        centers, total = partition_cost(costs, move, [(0, 1)], "local")
        # merged: cost(c) = 3c + 2(4 - c); min at c=0 -> 8
        assert centers.tolist() == [0]
        assert total == 8.0

    def test_global_center_method(self):
        costs, move = line_costs(
            [[[3, 0, 0, 0, 0], [0, 0, 0, 0, 1], [3, 0, 0, 0, 0]]]
        )
        _c_local, local = partition_cost(
            costs, move, [(0, 0), (1, 1), (2, 2)], "local"
        )
        _c_glob, glob = partition_cost(
            costs, move, [(0, 0), (1, 1), (2, 2)], "global"
        )
        assert glob <= local

    def test_unknown_method(self):
        costs, move = line_costs([[[1, 0]]])
        with pytest.raises(ValueError):
            partition_cost(costs, move, [(0, 0)], "bogus")


class TestGreedyGrouping:
    def test_covers_all_windows_contiguously(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 4, size=(1, 7, 5))
        costs, move = line_costs(counts)
        partition = greedy_grouping(costs, move)
        flat = [w for first, last in partition for w in range(first, last + 1)]
        assert flat == list(range(7))

    def test_groups_stationary_windows(self):
        # identical windows: grouping them is free, so one group results
        counts = [[[2, 0, 0, 0, 1]] * 4]
        costs, move = line_costs(counts)
        assert greedy_grouping(costs, move) == [(0, 3)]

    def test_keeps_far_apart_loci_separate(self):
        counts = [
            [
                [9, 0, 0, 0, 0],
                [9, 0, 0, 0, 0],
                [0, 0, 0, 0, 9],
                [0, 0, 0, 0, 9],
            ]
        ]
        costs, move = line_costs(counts)
        partition = greedy_grouping(costs, move)
        assert partition == [(0, 1), (2, 3)]

    def test_never_worse_than_singletons(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(0, 4, size=(1, 6, 5))
            costs, move = line_costs(counts)
            partition = greedy_grouping(costs, move)
            _c, grouped = partition_cost(costs, move, partition, "local")
            singles = [(w, w) for w in range(6)]
            _c, ungrouped = partition_cost(costs, move, singles, "local")
            assert grouped <= ungrouped


class TestOptimalGrouping:
    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            counts = rng.integers(0, 4, size=(1, 6, 5))
            costs, move = line_costs(counts)
            _c, greedy = partition_cost(
                costs, move, greedy_grouping(costs, move), "local"
            )
            _c, optimal = partition_cost(
                costs, move, optimal_grouping(costs, move), "local"
            )
            assert optimal <= greedy

    def test_valid_partition(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 4, size=(1, 8, 4))
        costs, move = line_costs(counts)
        partition = optimal_grouping(costs, move)
        flat = [w for first, last in partition for w in range(first, last + 1)]
        assert flat == list(range(8))


class TestGroupedSchedule:
    def test_improves_or_matches_lomcds(self, drift, mesh44):
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        plain = evaluate_schedule(lomcds(tensor, model), tensor, model).total
        grouped = evaluate_schedule(
            grouped_schedule(tensor, model, center_method="local"), tensor, model
        ).total
        assert grouped <= plain

    def test_gomcds_lower_bounds_local_grouping(self, drift, mesh44):
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        bound = evaluate_schedule(gomcds(tensor, model), tensor, model).total
        for strategy in ("greedy", "optimal"):
            got = evaluate_schedule(
                grouped_schedule(tensor, model, strategy=strategy), tensor, model
            ).total
            assert bound <= got

    def test_capacity_respected(self, mesh44):
        rng = np.random.default_rng(3)
        from repro.grid import Mesh2D

        topo = Mesh2D(4, 4)
        counts = rng.integers(0, 3, size=(40, 5, 16))
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        cap = CapacityPlan.uniform(16, 3)
        for assign in ("local", "global"):
            sched = grouped_schedule(
                tensor, CostModel(topo), capacity=cap, assign_method=assign
            )
            assert (sched.occupancy(16) <= 3).all()

    def test_global_assignment_not_worse_than_local(self, drift, mesh44):
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        local = evaluate_schedule(
            grouped_schedule(tensor, model, assign_method="local"), tensor, model
        ).total
        glob = evaluate_schedule(
            grouped_schedule(tensor, model, assign_method="global"), tensor, model
        ).total
        assert glob <= local

    def test_centers_constant_within_groups(self, drift, mesh44):
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        sched = grouped_schedule(tensor, model)
        partitions = sched.meta["partitions"]
        for d, partition in partitions.items():
            for first, last in partition:
                group = sched.centers[d, first : last + 1]
                assert len(set(group.tolist())) == 1

    def test_unknown_strategy(self, drift, mesh44):
        tensor = drift.reference_tensor()
        with pytest.raises(ValueError):
            grouped_schedule(tensor, CostModel(mesh44), strategy="bogus")


class TestTightMemoryFallback:
    def test_grouped_datum_with_no_common_slot_degrades_gracefully(self):
        """Hypothesis-found corner: a group may have no processor free in
        every member window even though each window has slots; the datum
        must fall back to per-window placement instead of failing."""
        import numpy as np

        from repro.grid import Mesh1D
        from repro.mem import CapacityPlan
        from repro.trace import build_reference_tensor
        from repro.workloads import trace_from_counts

        topo = Mesh1D(6)
        counts = np.zeros((5, 4, 6), dtype=np.int64)
        counts[0, 0, 1] = 2
        counts[0, 0, 2] = 2
        counts[0, 1, 0] = 1
        counts[0, 1, 3] = 3
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        model = CostModel(topo)
        plan = CapacityPlan.uniform(6, 1)
        for assign in ("local", "global"):
            sched = grouped_schedule(
                tensor, model, capacity=plan, assign_method=assign
            )
            occ = sched.occupancy(6)
            assert (occ <= 1).all()

    def test_fallback_releases_partial_claims(self):
        """A failed grouped assignment claims nothing before the datum
        falls back: the schedule holds exactly one slot per (datum,
        window) — no leaked claims."""
        import numpy as np

        from repro.grid import Mesh1D
        from repro.mem import CapacityPlan
        from repro.trace import build_reference_tensor
        from repro.workloads import trace_from_counts

        rng = np.random.default_rng(77)
        topo = Mesh1D(6)
        counts = rng.integers(0, 4, size=(6, 4, 6))
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        model = CostModel(topo)
        plan = CapacityPlan.uniform(6, 1)
        sched = grouped_schedule(tensor, model, capacity=plan)
        occ = sched.occupancy(6)
        assert occ.sum() == 6 * 4  # one slot per datum per window
        assert (occ <= 1).all()
