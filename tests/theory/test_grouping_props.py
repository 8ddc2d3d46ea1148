"""Theorem 3 checks: pairwise grouping cannot help at unit volume."""

import numpy as np

from repro.core import CostModel
from repro.grid import Mesh1D
from repro.theory import (
    grouped_cost,
    separate_cost,
    theorem3_gap,
    theorem3_gap_heavy_move,
    theorem3_holds,
)
from tests.cost_helpers import cost_row


def rows(counts0, counts1, topo):
    model = CostModel(topo)
    return (
        cost_row(model, counts0),
        cost_row(model, counts1),
    )


class TestTheorem3:
    def test_disjoint_loci_tie(self):
        topo = Mesh1D(5)
        costs0, costs1 = rows([1, 0, 0, 0, 0], [0, 0, 0, 0, 1], topo)
        # separate: 0 + 0 + 4 move; grouped: min |c| + |c-4| = 4: exact tie
        assert separate_cost(costs0, costs1, topo) == 4.0
        assert grouped_cost(costs0, costs1) == 4.0
        assert theorem3_gap(costs0, costs1, topo) == 0.0

    def test_heavy_first_window(self):
        topo = Mesh1D(5)
        costs0, costs1 = rows([5, 0, 0, 0, 0], [0, 0, 0, 0, 1], topo)
        assert theorem3_holds(costs0, costs1, topo)

    def test_random_1d(self):
        rng = np.random.default_rng(31)
        topo = Mesh1D(8)
        for _ in range(150):
            counts0 = rng.integers(0, 5, size=8)
            counts1 = rng.integers(0, 5, size=8)
            if counts0.sum() == 0 or counts1.sum() == 0:
                continue
            costs0, costs1 = rows(counts0, counts1, topo)
            assert theorem3_holds(costs0, costs1, topo)

    def test_random_2d(self, mesh44):
        rng = np.random.default_rng(37)
        for _ in range(150):
            counts0 = rng.integers(0, 4, size=16)
            counts1 = rng.integers(0, 4, size=16)
            if counts0.sum() == 0 or counts1.sum() == 0:
                continue
            costs0, costs1 = rows(counts0, counts1, mesh44)
            assert theorem3_holds(costs0, costs1, mesh44)

    def test_gap_scales_with_uniform_volume(self):
        topo = Mesh1D(6)
        costs0, costs1 = rows([3, 0, 0, 1, 0, 0], [0, 0, 0, 0, 2, 1], topo)
        g1 = theorem3_gap(costs0, costs1, topo, volume=1.0)
        g5 = theorem3_gap(costs0, costs1, topo, volume=5.0)
        assert g5 == 5.0 * g1


class TestHeavyMoveRegime:
    def test_grouping_wins_when_moves_ship_bulk(self):
        """With relocation paying a large volume, grouping strictly helps —
        the regime motivating Algorithm 3's multi-window grouping."""
        topo = Mesh1D(5)
        costs0, costs1 = rows([1, 0, 0, 0, 0], [0, 0, 0, 0, 1], topo)
        gap = theorem3_gap_heavy_move(costs0, costs1, topo, move_volume=10.0)
        assert gap < 0  # grouped (4) < separate (0 + 0 + 40)

    def test_unit_move_volume_recovers_theorem(self):
        topo = Mesh1D(5)
        costs0, costs1 = rows([2, 1, 0, 0, 0], [0, 0, 0, 1, 2], topo)
        assert theorem3_gap_heavy_move(costs0, costs1, topo, move_volume=1.0) >= 0
