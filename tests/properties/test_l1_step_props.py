"""The separable L1 step of the batched GOMCDS DP.

On a 1-D or 2-D mesh the min-plus step ``min_j f[j] + vol * Dist[j, k]``
is a distance transform (``_l1_relax``), and the traceback rebuilds the
back-pointers from the kept DP tables.  Both oracles must agree with it
bit for bit: the dense ``(k, m, m)`` step and the scalar
:func:`shortest_center_path_python`.  Costs here are tie-heavy (every
value in {0, 1, 2}), so the lowest-index tie-break is exercised on
nearly every cell.  The dispatch tests pin which solves take the step.
"""

import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CostModel, gomcds
from repro.core.kernels import shortest_center_path_python
from repro.grid import Mesh1D, Mesh2D, Torus2D
from repro.mem import CapacityError
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark, trace_from_counts

GOMCDS = sys.modules["repro.core.gomcds"]
GRIDS = ((1,), (5,), (2, 3), (3, 2), (1, 4), (4, 1), (3, 3))


def _topology(grid):
    return Mesh1D(*grid) if len(grid) == 1 else Mesh2D(*grid)


@st.composite
def tie_heavy_batches(draw):
    """Costs in {0, 1, 2} on a small grid, integer volumes, and a shared
    or per-datum mask whose windows may be fully masked."""
    grid = draw(st.sampled_from(GRIDS))
    n_procs = int(np.prod(grid))
    n_data = draw(st.integers(1, 5))
    n_windows = draw(st.integers(1, 4))
    costs = draw(
        arrays(np.float64, (n_data, n_windows, n_procs),
               elements=st.sampled_from((0.0, 1.0, 2.0)))
    )
    vols = draw(
        arrays(np.float64, (n_data,), elements=st.sampled_from((1.0, 2.0, 3.0)))
    )
    mask_shape = draw(st.sampled_from(("none", "shared", "per-datum")))
    masks = None
    if mask_shape != "none":
        shape = (n_windows, n_procs)
        if mask_shape == "per-datum":
            shape = (n_data, *shape)
        masks = draw(arrays(np.bool_, shape, elements=st.booleans()))
        if draw(st.booleans()):  # one window fully masked: all-inf rows
            w = draw(st.integers(0, n_windows - 1))
            masks[..., w, :] = False
    return grid, costs, vols, masks


def _solve(costs, dist, vols, masks, grid, block, potentials=True):
    with (
        patch.object(GOMCDS, "_BLOCK", block),
        patch.object(GOMCDS, "_BLOCK_CELLS", 0),
        patch.object(GOMCDS, "_L1_MIN_CELLS", 0),
    ):
        return GOMCDS._all_paths_vectorized(
            costs, dist, vols, masks=masks, return_potentials=potentials,
            grid=grid,
        )


@given(
    f=arrays(np.float64, (12, 4), elements=st.sampled_from((0.0, 1.0, 2.0, np.inf))),
    vols=arrays(np.float64, (4,), elements=st.sampled_from((0.0, 1.0, 2.0))),
    grid=st.sampled_from(((12,), (3, 4), (4, 3), (2, 6), (1, 12))),
)
@settings(max_examples=80, deadline=None)
def test_relax_equals_the_dense_min_plus_step(f, vols, grid):
    """``f`` is ``(m, k)``, the data on the last axis as in a block's DP
    table; the oracle broadcasts ``(from, to, k)`` and reduces ``from``."""
    dist = _topology(grid).distance_matrix().astype(np.float64)
    dense = (f[:, None, :] + dist[:, :, None] * vols).min(axis=0)
    assert np.array_equal(GOMCDS._l1_relax(f, vols, grid), dense)


@given(tie_heavy_batches(), st.sampled_from((1, 2, 128)), st.booleans())
@settings(max_examples=120, deadline=None)
def test_l1_rows_match_the_dense_step_and_the_scalar_oracle(
    batch, block, want_potentials
):
    """Paths, totals and potentials: the L1 step equals the dense step
    bit for bit, also when the block keeps its own DP tables because no
    potentials were asked for, and every feasible row equals a scalar
    solve."""
    grid, costs, vols, masks = batch
    dist = _topology(grid).distance_matrix().astype(np.float64)
    paths, totals, l1_potentials = _solve(
        costs, dist, vols, masks, grid, block, want_potentials
    )
    dense = _solve(costs, dist, vols, masks, None, block)
    assert np.array_equal(paths, dense[0])
    assert np.array_equal(totals, dense[1])
    if want_potentials:
        assert np.array_equal(l1_potentials, dense[2])
    else:
        assert l1_potentials is None
    potentials = dense[2]
    for d in range(len(costs)):
        allowed = None if masks is None else (masks[d] if masks.ndim == 3 else masks)
        try:
            path, total, pots = shortest_center_path_python(
                costs[d], vols[d] * dist, allowed, return_potentials=True
            )
        except CapacityError:
            assert not np.isfinite(totals[d])
            continue
        assert np.array_equal(paths[d], path)
        assert totals[d] == total
        assert np.array_equal(potentials[d], pots)


def _paper(topology, size=4, bench=1):
    wl = make_benchmark(bench, size, topology, seed=1998)
    return build_reference_tensor(wl.trace, wl.windows)


def _takes_l1_step(tensor, model):
    with (
        patch.object(GOMCDS, "_L1_MIN_CELLS", 0),
        patch.object(GOMCDS, "_l1_relax", wraps=GOMCDS._l1_relax) as relax,
    ):
        gomcds(tensor, model)
    return relax.called


def test_grid_meshes_take_the_l1_step():
    for topology in (Mesh2D(4, 4), Mesh2D(2, 4), Mesh1D(8)):
        tensor = _paper(topology)
        model = CostModel(topology)
        vols = model.volume_vector(tensor.n_data)
        grid = GOMCDS._l1_grid(tensor, model, vols, tensor.n_windows)
        assert grid == topology.shape
        assert _takes_l1_step(tensor, model)


def test_torus_takes_the_dense_step():
    topology = Torus2D(4, 4)
    tensor = _paper(topology)
    model = CostModel(topology)
    vols = model.volume_vector(tensor.n_data)
    assert GOMCDS._l1_grid(tensor, model, vols, tensor.n_windows) is None
    assert not _takes_l1_step(tensor, model)


@pytest.mark.parametrize("volume", (1.5, 2.0**50))
def test_fractional_or_huge_volumes_take_the_dense_step(volume):
    """Volume 1.5 is not an integer; volume 2**50 on a 4x4 mesh (6 hops)
    puts the path-sum bound at 2**53 or more."""
    topology = Mesh2D(4, 4)
    tensor = _paper(topology)
    vols = np.ones(tensor.n_data)
    vols[-1] = volume
    model = CostModel(topology, volumes=vols)
    assert GOMCDS._l1_grid(tensor, model, vols, tensor.n_windows) is None
    assert not _takes_l1_step(tensor, model)


def test_path_sum_bound_stays_below_two_to_the_53():
    """The bound counts each reference, each window and one spare hop at
    the datum's volume, and must stay strictly below 2**53.  Here one
    datum makes 4 references over 3 windows on a 2-node line (1 hop):
    the bound is 8 hops times its volume."""
    topology = Mesh1D(2)
    counts = np.array([[[1, 1], [1, 0], [0, 1]]], dtype=np.int64)
    tensor = build_reference_tensor(*trace_from_counts(counts, topology))
    model = CostModel(topology)
    for volume, grid in ((2.0**50 - 1, (2,)), (2.0**50, None)):
        vols = np.array([volume])
        assert GOMCDS._l1_grid(tensor, model, vols, tensor.n_windows) == grid
