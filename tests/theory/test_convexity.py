"""Separable-convexity checks of the cost model (basis of Lemma 1 / Thm 2)."""

import numpy as np
import pytest

from repro.core import CostModel
from repro.grid import Mesh1D, Mesh2D, Torus2D
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


@pytest.mark.parametrize(
    "topology",
    [Mesh1D(1), Mesh1D(2), Mesh1D(9), Mesh2D(4, 4), Mesh2D(1, 5),
     Mesh2D(3, 2)],
    ids=repr,
)
def test_a_stack_of_rows_is_judged_row_by_row(topology):
    """A ``(n, m)`` stack gives the per-row answers of the plain
    decomposition, ``F`` anchored at ``F(0) = 0``; one row gives a bool."""
    rng = np.random.default_rng(5)
    model = CostModel(topology)
    m = topology.n_procs
    rows = [cost_row(model, rng.integers(0, 6, size=m)) for _ in range(20)]
    rows += [rng.integers(0, 9, size=m).astype(float) for _ in range(20)]
    rows += [row + rng.choice([0.0, 1e-12, 0.5], size=m) for row in rows[:20]]
    rows = np.array(rows)

    def convex(values):
        return len(values) < 3 or bool(np.all(np.diff(values, 2) >= -1e-9))

    def alone(row):
        if isinstance(topology, Mesh1D):
            return convex(row)
        grid = row.reshape(topology.shape)
        f, g = grid[:, 0] - grid[0, 0], grid[0, :]
        residual = np.abs(grid - (f[:, None] + g[None, :])).max()
        return residual <= 1e-9 and convex(f) and convex(g)

    expected = [alone(row) for row in rows]
    assert is_separable_convex(rows, topology).tolist() == expected
    assert [is_separable_convex(row, topology) for row in rows] == expected
    assert all(type(is_separable_convex(row, topology)) is bool
               for row in rows[:3])
    if isinstance(topology, Mesh2D):
        f, g, residual = separable_components(rows, topology)
        for i, row in enumerate(rows):
            one = separable_components(row, topology)
            assert type(one[2]) is float and one[2] == residual[i]
            assert (one[0] == f[i]).all() and (one[1] == g[i]).all()
    if m >= 3:  # shorter rows are always convex
        assert any(expected) and not all(expected)
