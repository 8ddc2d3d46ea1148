"""Fixed inputs for the batched GOMCDS DP, row by row against the scalar oracle.

The property tests draw fresh examples on every run; these cases pin the
layout's edges on every run instead: a one-row solve straight off the
read-only memoized cost tensor, ``data`` subsets that fill a block
exactly or spill one row into the next, a single window, a fully masked
window, per-datum masks on a reversed subset, and fractional volumes.
Each solved row must equal a per-datum
:func:`~repro.core.kernels.shortest_center_path_python` solve bit for
bit: path, total (``inf`` when no path exists) and potentials.
"""

import sys

import numpy as np
import pytest

from repro.core import CostModel
from repro.core.kernels import shortest_center_path_python
from repro.grid import Mesh2D
from repro.mem import CapacityError
from repro.workloads import paper_instance

GOMCDS = sys.modules["repro.core.gomcds"]
TOPO = Mesh2D(4, 4)
DIST = TOPO.distance_matrix().astype(np.float64)


def assert_rows_match_the_oracle(costs, vols, *, masks=None, data=None, grid=None):
    """Solve with and without potentials; check every row against the oracle."""
    paths, totals, potentials = GOMCDS._all_paths_vectorized(
        costs, DIST, vols, masks=masks, data=data, return_potentials=True,
        grid=grid,
    )
    bare = GOMCDS._all_paths_vectorized(
        costs, DIST, vols, masks=masks, data=data, grid=grid
    )
    assert np.array_equal(bare[0], paths)
    assert np.array_equal(bare[1], totals)
    assert bare[2] is None
    rows = np.arange(len(costs)) if data is None else data
    assert paths.shape == (len(rows), costs.shape[1])
    for i, d in enumerate(rows):
        allowed = None if masks is None else (masks[i] if masks.ndim == 3 else masks)
        try:
            path, total, pots = shortest_center_path_python(
                costs[d], vols[d] * DIST, allowed, return_potentials=True
            )
        except CapacityError:
            assert not np.isfinite(totals[i])
            continue
        assert np.array_equal(paths[i], path)
        assert totals[i] == total
        assert np.array_equal(potentials[i], pots)
    return paths, totals


def integer_costs(n_data, n_windows, seed):
    """Read-only integer costs in 0-9 (tie-heavy), like the memoized tensor."""
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 10, (n_data, n_windows, TOPO.n_procs)).astype(np.float64)
    costs.flags.writeable = False
    return costs


def test_one_row_solve_reads_the_read_only_memoized_tensor():
    inst = paper_instance(1, 8)
    costs = inst.model.all_placement_costs(inst.tensor)
    assert not costs.flags.writeable
    vols = inst.model.volume_vector(inst.tensor.n_data)
    for grid in (None, TOPO.shape):
        for d in (0, 17, inst.tensor.n_data - 1):
            assert_rows_match_the_oracle(
                costs, vols, data=np.array([d]), grid=grid
            )


@pytest.mark.parametrize("grid", [None, TOPO.shape])
@pytest.mark.parametrize("spill", [0, 1])
def test_subsets_at_and_one_past_a_block_boundary(grid, spill):
    block = max(GOMCDS._BLOCK, GOMCDS._BLOCK_CELLS // TOPO.n_procs)
    costs = integer_costs(2 * block + 3, 3, seed=spill)
    vols = np.arange(len(costs)) % 3 + 1.0
    data = np.arange(len(costs))[::-2][: block + spill]
    assert len(data) == block + spill
    assert_rows_match_the_oracle(costs, vols, data=data, grid=grid)
    # the first rows in index order, without a data subset
    head = costs[: block + spill]
    assert_rows_match_the_oracle(head, vols[: block + spill], grid=grid)


@pytest.mark.parametrize("grid", [None, TOPO.shape])
def test_one_window(grid):
    costs = integer_costs(40, 1, seed=2)
    mask = np.ones((1, TOPO.n_procs), dtype=bool)
    mask[0, :5] = False
    paths, totals = assert_rows_match_the_oracle(
        costs, np.ones(40), masks=mask, grid=grid
    )
    assert np.array_equal(paths[:, 0], costs[:, 0, 5:].argmin(axis=1) + 5)
    assert np.array_equal(totals, costs[:, 0, 5:].min(axis=1))


@pytest.mark.parametrize("grid", [None, TOPO.shape])
def test_a_fully_masked_window_leaves_no_path(grid):
    costs = integer_costs(70, 4, seed=3)
    vols = np.full(70, 2.0)
    shared = np.ones((4, TOPO.n_procs), dtype=bool)
    shared[2] = False
    _, totals = assert_rows_match_the_oracle(costs, vols, masks=shared, grid=grid)
    assert np.isinf(totals).all()
    # per datum: only the odd rows lose a whole window
    per_datum = np.ones((70, 4, TOPO.n_procs), dtype=bool)
    per_datum[1::2, 1] = False
    _, totals = assert_rows_match_the_oracle(
        costs, vols, masks=per_datum, grid=grid
    )
    assert np.isinf(totals[1::2]).all()
    assert np.isfinite(totals[::2]).all()


@pytest.mark.parametrize("grid", [None, TOPO.shape])
def test_per_datum_masks_on_a_reversed_subset(grid):
    costs = integer_costs(90, 5, seed=4)
    vols = np.arange(90) % 4 + 1.0
    data = np.arange(90)[::-1][5:80]
    rng = np.random.default_rng(5)
    masks = rng.random((len(data), 5, TOPO.n_procs)) < 0.7
    masks[np.arange(len(data)), :, data % TOPO.n_procs] = True  # keep a path
    _, totals = assert_rows_match_the_oracle(
        costs, vols, masks=masks, data=data, grid=grid
    )
    assert np.isfinite(totals).all()


def test_fractional_volumes_take_the_dense_step():
    inst = paper_instance(2, 8)
    vols = np.resize([0.5, 1.5, 2.25, 1.0], inst.tensor.n_data)
    model = CostModel(TOPO, volumes=vols)
    costs = model.all_placement_costs(inst.tensor)
    grid = GOMCDS._l1_grid(inst.tensor, model, vols, inst.tensor.n_windows)
    assert grid is None
    assert_rows_match_the_oracle(costs, vols, grid=grid)
    mask = np.ones(costs.shape[1:], dtype=bool)
    mask[:, ::3] = False
    reverse = np.arange(len(costs))[::-1]
    assert_rows_match_the_oracle(costs, vols, masks=mask, data=reverse, grid=grid)
