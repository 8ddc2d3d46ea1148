"""Tests of the extension ablations (E: partition, F: online, G: replication)."""

import math

from repro.analysis import (
    ablation_online_lookahead,
    ablation_partition_schemes,
    ablation_refinement,
    ablation_replication,
    ablation_window_segmentation,
)


class TestPartitionAblation:
    def test_all_schemes_present(self):
        rows = ablation_partition_schemes(bench=1, n=8)
        assert [r["scheme"] for r in rows] == [
            "row_wise",
            "column_wise",
            "block",
            "block_cyclic",
        ]

    def test_gomcds_beats_its_own_baseline_everywhere(self):
        for row in ablation_partition_schemes(bench=1, n=8):
            assert row["GOMCDS"] <= row["sf"]


class TestOnlineAblation:
    def test_offline_row_is_lower_bound(self):
        rows = ablation_online_lookahead(bench=5, n=8)
        offline = [r for r in rows if r["hysteresis"] == "offline"][0]
        for row in rows:
            assert row["OMCDS"] >= offline["OMCDS"] - 1e-9

    def test_infinite_hysteresis_never_moves(self):
        rows = ablation_online_lookahead(bench=5, n=8)
        frozen = [r for r in rows if r["hysteresis"] == math.inf][0]
        assert frozen["moves"] == 0

    def test_competitive_ratio_reported(self):
        rows = ablation_online_lookahead(bench=5, n=8, hysteresis=(2.0,))
        assert rows[0]["vs GOMCDS"] >= 1.0


class TestReplicationAblation:
    def test_k1_matches_scds_semantics(self):
        rows = ablation_replication(bench=5, n=8, copies=(1,))
        # one copy, no movement: this is exactly SCDS's placement cost
        assert rows[0]["total copies"] == 64

    def test_copies_bounded_by_slots(self):
        rows = ablation_replication(bench=5, n=8, copies=(4,))
        # capacity = 2x minimum -> at most 128 slots on the 4x4 array
        assert rows[0]["total copies"] <= 128

    def test_second_copy_helps_this_workload(self):
        rows = ablation_replication(bench=5, n=8, copies=(1, 2))
        assert rows[1]["replicated cost"] < rows[0]["replicated cost"]


class TestRefinementAblation:
    def test_never_degrades_any_row(self):
        for row in ablation_refinement(bench=5, n=8, multipliers=(1.0, 2.0)):
            assert row["priced"] <= row["greedy GOMCDS"]
            assert row["unconstrained floor"] <= row["bound"] + 1e-9
            assert row["bound"] <= row["priced"] + 1e-9

    def test_tight_memory_leaves_more_to_recover(self):
        rows = ablation_refinement(bench=5, n=8, multipliers=(1.0, 2.0))
        gap_tight = rows[0]["greedy GOMCDS"] - rows[0]["priced"]
        gap_loose = rows[1]["greedy GOMCDS"] - rows[1]["priced"]
        assert gap_tight >= gap_loose

    def test_priced_walk_recovers_the_gap(self):
        tight, loose = ablation_refinement(bench=5, n=8, multipliers=(1.0, 2.0))
        assert tight["recovered %"] >= 50.0
        # at the paper's 2x rule the walk meets its bound: certified optimal
        assert loose["priced"] == loose["bound"]


class TestSegmentationAblation:
    def test_all_strategies_evaluated(self):
        rows = ablation_window_segmentation(bench=5, n=8)
        assert {r["strategy"] for r in rows} == {
            "natural (loop)",
            "fixed (4 steps)",
            "similarity",
            "dp-optimal",
        }
        assert all(r["GOMCDS"] > 0 for r in rows)
        assert all(r["n_windows"] >= 1 for r in rows)


class TestStaticOptimalityAblation:
    def test_gap_nonnegative_and_shrinks_with_memory(self):
        from repro.analysis import ablation_static_optimality

        rows = ablation_static_optimality(bench=1, n=8, multipliers=(1.0, 2.0))
        for row in rows:
            assert row["greedy SCDS"] >= row["optimal static"] - 1e-9
        assert rows[0]["gap %"] >= rows[1]["gap %"]


class TestSeedSensitivity:
    def test_ranking_holds_for_every_seed(self):
        from repro.analysis import seed_sensitivity

        rows = seed_sensitivity(bench=5, n=8, seeds=(1998, 7, 42))
        by_name = {r["scheduler"]: r for r in rows}
        # the paper's ranking must hold even in the worst seed
        assert by_name["GOMCDS"]["min %"] > by_name["LOMCDS"]["max %"] - 5
        assert by_name["LOMCDS"]["min %"] > by_name["SCDS"]["max %"] - 5
        assert by_name["GOMCDS"]["mean %"] > by_name["SCDS"]["mean %"]

    def test_noise_barely_moves_the_numbers(self):
        from repro.analysis import seed_sensitivity

        rows = seed_sensitivity(bench=5, n=8, seeds=(1998, 7, 42))
        assert all(r["std %"] < 3.0 for r in rows)
