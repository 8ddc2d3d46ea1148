"""Lemma 1 / Theorem 2 checks on crafted and random instances."""

import numpy as np
import pytest

from repro.core import CostModel
from repro.grid import Mesh1D
from repro.theory import (
    closest_center_pair,
    is_strictly_increasing,
    lemma1_holds,
    lemma1_instance,
    local_optimal_centers,
    theorem2_holds,
    theorem2_instance,
)
from tests.cost_helpers import cost_row


def cost_row_1d(counts):
    """Unit-volume placement costs on a line from a reference-count row."""
    n = len(counts)
    model = CostModel(Mesh1D(n))
    return cost_row(model, counts)


class TestHelpers:
    def test_local_optimal_centers_with_ties(self):
        row = np.array([3.0, 1.0, 1.0, 5.0])
        assert local_optimal_centers(row).tolist() == [1, 2]

    def test_closest_pair_picks_nearest(self):
        topo = Mesh1D(6)
        costs0 = cost_row_1d([0, 5, 0, 0, 0, 0])  # optimum {1}
        costs1 = cost_row_1d([0, 0, 0, 0, 5, 0])  # optimum {4}
        assert closest_center_pair(costs0, costs1, topo) == (1, 4)

    def test_closest_pair_uses_plateau_edge(self):
        topo = Mesh1D(6)
        # refs at 0 and 2 -> optimum plateau {0, 1, 2}
        costs0 = cost_row_1d([1, 0, 1, 0, 0, 0])
        costs1 = cost_row_1d([0, 0, 0, 0, 0, 5])
        p1, p2 = closest_center_pair(costs0, costs1, topo)
        assert (p1, p2) == (2, 5)  # nearest edge of the plateau

    def test_is_strictly_increasing(self):
        assert is_strictly_increasing(np.array([1, 2, 5]))
        assert not is_strictly_increasing(np.array([1, 1, 2]))
        assert is_strictly_increasing(np.array([7]))


class TestLemma1:
    def test_crafted_instance(self):
        costs0 = cost_row_1d([4, 1, 0, 0, 0, 0])
        costs1 = cost_row_1d([0, 0, 0, 0, 0, 3])
        topo = Mesh1D(6)
        p1, p2 = closest_center_pair(costs0, costs1, topo)
        assert lemma1_holds(costs0, p1, p2)

    def test_trivial_when_centers_coincide(self):
        costs0 = cost_row_1d([0, 3, 0])
        assert lemma1_holds(costs0, 1, 1)

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        topo = Mesh1D(9)
        for _ in range(100):
            counts0 = rng.integers(0, 5, size=9)
            counts1 = rng.integers(0, 5, size=9)
            if counts0.sum() == 0 or counts1.sum() == 0:
                continue
            costs0 = cost_row_1d(counts0)
            costs1 = cost_row_1d(counts1)
            assert lemma1_instance(costs0, costs1, topo)

    def test_violated_away_from_closest_pair(self):
        # the strictness is specifically about the *closest* pair: walking
        # from the far edge of a plateau the profile is initially flat
        costs0 = cost_row_1d([1, 0, 1, 0, 0, 0])  # plateau {0,1,2}
        assert not lemma1_holds(costs0, 0, 5)


class TestTheorem2:
    def test_crafted_instance(self, mesh44):
        model = CostModel(mesh44)
        counts0 = np.zeros(16)
        counts0[mesh44.pid(0, 0)] = 4
        counts1 = np.zeros(16)
        counts1[mesh44.pid(3, 3)] = 4
        costs0 = cost_row(model, counts0)
        costs1 = cost_row(model, counts1)
        assert theorem2_instance(costs0, costs1, mesh44)

    def test_random_instances(self, mesh44):
        rng = np.random.default_rng(29)
        model = CostModel(mesh44)
        for _ in range(100):
            counts0 = rng.integers(0, 4, size=16)
            counts1 = rng.integers(0, 4, size=16)
            if counts0.sum() == 0 or counts1.sum() == 0:
                continue
            costs0 = cost_row(model, counts0)
            costs1 = cost_row(model, counts1)
            assert theorem2_instance(costs0, costs1, mesh44)

    def test_rejects_non_mesh(self):
        with pytest.raises(TypeError):
            theorem2_holds(np.zeros(8), 0, 1, Mesh1D(8))

    def test_detects_violation_on_noncost_profile(self, mesh44):
        # an arbitrary (non-convex) profile should fail the check, proving
        # the checker is not vacuous
        fake = np.zeros(16)
        fake[mesh44.pid(1, 1)] = -5  # a dip off the straight path
        assert not theorem2_holds(
            fake, mesh44.pid(0, 0), mesh44.pid(3, 3), mesh44
        )
