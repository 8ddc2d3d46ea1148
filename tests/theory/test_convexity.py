"""Separable-convexity checks of the cost model (basis of Lemma 1 / Thm 2)."""

import numpy as np
import pytest

from repro.core import CostModel
from repro.grid import Mesh1D, Torus2D
from repro.theory import (
    is_convex_sequence,
    is_separable_convex,
    separable_components,
)
from tests.cost_helpers import cost_row


class TestConvexSequence:
    def test_convex_accepted(self):
        assert is_convex_sequence(np.array([3, 1, 0, 1, 3]))
        assert is_convex_sequence(np.array([0, 0, 0]))
        assert is_convex_sequence(np.array([5.0]))

    def test_concave_rejected(self):
        assert not is_convex_sequence(np.array([0, 3, 0]))


class TestCostRowsAreSeparableConvex:
    def test_1d_random(self):
        rng = np.random.default_rng(91)
        topo = Mesh1D(9)
        model = CostModel(topo)
        for _ in range(50):
            counts = rng.integers(0, 6, size=9)
            row = cost_row(model, counts)
            assert is_separable_convex(row, topo)

    def test_2d_random(self, mesh44):
        rng = np.random.default_rng(93)
        model = CostModel(mesh44)
        for _ in range(50):
            counts = rng.integers(0, 6, size=16)
            row = cost_row(model, counts)
            assert is_separable_convex(row, mesh44)

    def test_decomposition_exact(self, mesh44):
        model = CostModel(mesh44)
        counts = np.zeros(16)
        counts[mesh44.pid(1, 2)] = 3
        counts[mesh44.pid(3, 0)] = 1
        row = cost_row(model, counts)
        f, g, residual = separable_components(row, mesh44)
        assert residual == 0.0
        grid = row.reshape(4, 4)
        assert np.allclose(grid, f[:, None] + g[None, :])

    def test_torus_rows_are_not_separable_convex(self):
        """The wrap-around metric breaks convexity — which is why the
        paper's monotonicity theorems are stated for meshes, not tori."""
        topo = Torus2D(5, 5)
        model = CostModel(topo)
        counts = np.zeros(25)
        counts[0] = 1
        row = cost_row(model, counts)
        # the first grid row of the torus metric is 0,1,2,2,1: not convex
        assert not is_convex_sequence(row.reshape(5, 5)[0])

    def test_non_mesh_rejected(self):
        with pytest.raises(TypeError):
            is_separable_convex(np.zeros(4), object())
