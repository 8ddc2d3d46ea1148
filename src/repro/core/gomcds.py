"""Algorithm 2: Global-Optimal Multiple-Center Data Scheduling (GOMCDS).

For each datum the paper builds a *cost-graph*: a layered DAG with one
node per (execution window, processor), a pseudo source ``s`` and sink
``d``.  The weight of an edge into node ``(w, k)`` is the reference cost
of hosting the datum at ``k`` during window ``w`` plus the cost of moving
it there from the previous window's processor.  The shortest ``s -> d``
path is the globally optimal center sequence, movement included.

Because the graph is layered and complete between layers, the shortest
path reduces to a forward dynamic program over windows:

    ``f_w[k] = min_j (f_{w-1}[j] + vol * Dist[j, k]) + C[w, k]``

which we evaluate with a single ``(D, m, m)`` broadcast per window for
*all* data at once.  Under a memory constraint the data still claim
their paths one at a time in priority order, but the paths are solved
speculatively in batches and re-solved only where a claim invalidated
them (:func:`_batched_walk`).  Two independent references hold this DP
to account: the scalar kernel
(:func:`repro.core.kernels.shortest_center_path_python`) and the
certificate checker (:mod:`repro.verify.certificate`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import NOOP, Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .kernels import (
    placement_cost_tensor,
    resolve_kernel,
    shortest_center_path_python,
)
from .schedule import Schedule

__all__ = ["gomcds", "shortest_center_path"]

_INF = np.inf
_NO_PATH = "no feasible center path under the memory constraint"
_BLOCK = 128  # rows per batched-DP block (see _all_paths_vectorized)


def shortest_center_path(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Optimal center-per-window path for one datum.

    A one-row solve of the batched DP (:func:`_all_paths_vectorized`).

    Parameters
    ----------
    window_costs:
        ``(n_windows, n_procs)`` reference cost of each candidate center.
    move_costs:
        ``(n_procs, n_procs)`` relocation cost between centers.
    allowed:
        Optional boolean mask of admissible ``(window, processor)`` cells
        (memory availability); disallowed cells are priced at infinity.
    return_potentials:
        Also return the forward DP value table ``f`` — the shortest-path
        node potentials that :mod:`repro.verify.certificate` checks for
        dual feasibility and tightness.

    Returns
    -------
    ``(path, cost)`` where ``path`` is the ``(n_windows,)`` pid sequence
    and ``cost`` the total reference + movement cost.  With
    ``return_potentials`` a third ``(n_windows, n_procs)`` array of DP
    potentials (``inf`` at inadmissible cells) is appended.

    Raises
    ------
    CapacityError
        If some window has no admissible processor at all.
    """
    paths, totals, potentials = _all_paths_vectorized(
        np.asarray(window_costs, dtype=np.float64)[None],
        move_costs,
        np.ones(1),
        masks=allowed,
        return_potentials=return_potentials,
    )
    if not np.isfinite(totals[0]):
        raise CapacityError(_NO_PATH)
    if return_potentials:
        return paths[0], float(totals[0]), potentials[0]
    return paths[0], float(totals[0])


def _all_paths_vectorized(
    costs: np.ndarray,
    dist: np.ndarray,
    vols: np.ndarray,
    *,
    masks: np.ndarray | None = None,
    data: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Shortest center paths for many data at once.

    ``costs`` is ``(D, W, m)``; movement between windows for datum ``d``
    is ``vols[d] * dist``.  ``data`` picks the rows to solve (default:
    all of them, in index order); their costs are gathered one window at
    a time, so the ``(D, W, m)`` tensor is never copied.  ``masks`` is an
    optional admissible-cell mask, shared ``(W, m)`` or one
    ``(len(data), W, m)`` slice per solved datum; inadmissible cells are
    priced at infinity.

    Rows are swept in blocks of ``_BLOCK``, which keeps each block's
    ``(k, m, m)`` temporaries cache-sized and small enough that they do
    not raise the process's peak memory.

    Returns ``(paths, totals, potentials)``: the ``(k, W)`` center paths,
    their ``(k,)`` costs (``inf`` where no admissible path exists) and
    the ``(k, W, m)`` DP potential tables (``None`` unless
    ``return_potentials``).
    """
    n_data, n_windows, n_procs = costs.shape
    n_rows = n_data if data is None else len(data)
    paths = np.empty((n_rows, n_windows), dtype=np.int64)
    totals = np.empty(n_rows)
    potentials = (
        np.empty((n_rows, n_windows, n_procs)) if return_potentials else None
    )
    per_datum = masks is not None and masks.ndim == 3
    for start in range(0, n_rows, _BLOCK):
        block = slice(start, start + _BLOCK)
        _sweep_block(
            costs, dist, vols,
            rows=block if data is None else data[block],
            masks=masks[block] if per_datum else masks,
            paths=paths[block],
            totals=totals[block],
            potentials=None if potentials is None else potentials[block],
        )
    return paths, totals, potentials


def _sweep_block(costs, dist, vols, *, rows, masks, paths, totals, potentials):
    """The DP for one block of ``rows``, written into the output views.

    The sweep runs in a ``(datum, to, from)`` layout so each min-plus
    step reduces over the contiguous last axis.  Every cell is the same
    one add and one min as the scalar kernel
    (:func:`~repro.core.kernels.shortest_center_path_python`), with the
    same lowest-index tie-break, so each row is bit-identical to a
    per-datum solve under the same mask.
    """
    n_windows, n_procs = costs.shape[1:]
    move = vols[rows][:, None, None] * dist.T[None]  # (k, to, from)
    transition = np.empty_like(move)
    back = np.empty(
        (len(move), n_windows, n_procs), dtype=np.min_scalar_type(n_procs - 1)
    )

    def window_costs(w):
        c = costs[rows, w]
        if masks is None:
            return c
        return np.where(masks[:, w] if masks.ndim == 3 else masks[w], c, _INF)

    f = window_costs(0)
    if potentials is not None:
        potentials[:, 0] = f
    for w in range(1, n_windows):
        np.add(f[:, None, :], move, out=transition)
        best = transition.argmin(axis=2)
        back[:, w] = best
        f = np.take_along_axis(transition, best[..., None], axis=2)[..., 0]
        f += window_costs(w)
        if potentials is not None:
            potentials[:, w] = f
    idx = np.arange(len(move))
    paths[:, -1] = f.argmin(axis=1)
    totals[:] = f[idx, paths[:, -1]]
    for w in range(n_windows - 1, 0, -1):
        paths[:, w - 1] = back[idx, w, paths[:, w]]


def _walk_paths(
    solve_path,
    costs: np.ndarray,
    dist: np.ndarray,
    vols: np.ndarray,
    order,
    *,
    base: np.ndarray | None = None,
    tracker: OccupancyTracker | None = None,
    certify: bool = False,
    record_masks: bool = False,
):
    """Route each datum through its cost-graph, masking claimed cells.

    The sequential masked path walk: the python kernel of GOMCDS and the
    fault reschedulers, and the movement-budgeted variant (whose solver
    has no batched form).  Data are taken in ``order``; datum ``d`` may
    use the cells of ``base & tracker.available_mask()`` (either operand
    may be absent), ``solve_path`` picks its path over ``costs[d]`` with
    relocation costs ``vols[d] * dist``, and the tracker claims that path
    before the next datum is routed.

    Returns ``(centers, potentials, masks)``: the ``(D, W)`` paths, the
    ``(D, W, m)`` DP potentials when ``certify`` and the admissible mask
    each datum was solved under when ``record_masks`` (else ``None``).
    """
    n_data, n_windows, n_procs = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    potentials = np.empty((n_data, n_windows, n_procs)) if certify else None
    masks = (
        np.empty((n_data, n_windows, n_procs), dtype=bool)
        if record_masks
        else None
    )
    for d in order:
        allowed = base
        if tracker is not None:
            available = tracker.available_mask()
            allowed = available if base is None else base & available
        if masks is not None:
            masks[d] = allowed
        if certify:
            path, _, potentials[d] = solve_path(
                costs[d], vols[d] * dist, allowed=allowed,
                return_potentials=True,
            )
        else:
            path, _ = solve_path(costs[d], vols[d] * dist, allowed=allowed)
        if tracker is not None:
            tracker.claim_path(path)
        centers[d] = path
    return centers, potentials, masks


def _batched_walk(
    costs: np.ndarray,
    dist: np.ndarray,
    vols: np.ndarray,
    order,
    *,
    base: np.ndarray | None = None,
    tracker: OccupancyTracker | None = None,
    certify: bool = False,
    record_masks: bool = False,
    obs: Instrumentation = NOOP,
):
    """:func:`_walk_paths` with the numpy DP, solved speculatively in batches.

    Every datum is first solved at once against the current mask.  The
    walk then takes data in ``order`` and claims each guessed path that
    still fits; a guess that hits a cell filled since it was made is
    re-solved under the current mask in one batched DP, together with
    every remaining guess that touches a full cell.  A path that is
    optimal over a superset of cells and feasible in the subset is
    optimal in the subset, with the same lowest-index tie-break, so the
    centers are bit-identical to the sequential walk (see "Exact
    speculative walk" in ``docs/algorithms.md``).  Certificate potentials
    are then computed in one more batched DP under the mask each datum
    actually had.  Same arguments and return value as :func:`_walk_paths`.
    """
    n_data, n_windows, n_procs = costs.shape
    if tracker is None:
        centers, totals, potentials = _all_paths_vectorized(
            costs, dist, vols, masks=base, return_potentials=certify
        )
        if not np.isfinite(totals).all():
            raise CapacityError(_NO_PATH)
        masks = None
        if record_masks:
            masks = np.broadcast_to(base, costs.shape).copy()
        return centers, potentials, masks

    def current_mask():
        available = tracker.available_mask()
        return available if base is None else base & available

    windows = np.arange(n_windows)
    order = np.asarray(order)
    masks = (
        np.empty((n_data, n_windows, n_procs), dtype=bool)
        if record_masks or certify
        else None
    )
    centers, totals, _ = _all_paths_vectorized(
        costs, dist, vols, masks=current_mask()
    )
    batches, resolved = 1, 0
    for i, d in enumerate(order):
        # infeasible under a superset of the datum's cells: infeasible now
        if not np.isfinite(totals[d]):
            raise CapacityError(_NO_PATH)
        if masks is not None:
            masks[d] = current_mask()
        try:
            tracker.claim_path(centers[d])
        except CapacityError:
            mask = current_mask()
            rest = order[i:]
            stale = rest[~mask[windows, centers[rest]].all(axis=1)]
            centers[stale], totals[stale], _ = _all_paths_vectorized(
                costs, dist, vols, masks=mask, data=stale
            )
            batches += 1
            resolved += len(stale)
            if not np.isfinite(totals[d]):
                raise CapacityError(_NO_PATH) from None
            tracker.claim_path(centers[d])
    obs.count("gomcds.walk_batches", batches)
    obs.count("gomcds.walk_resolved", resolved)
    potentials = None
    if certify:
        _, _, potentials = _all_paths_vectorized(
            costs, dist, vols, masks=masks, return_potentials=True
        )
    return centers, potentials, masks if record_masks else None


def _path_walk(kernel: str, obs: Instrumentation):
    """The masked path walk for ``kernel``: batched numpy or scalar oracle."""
    if kernel == "python":
        return partial(_walk_paths, shortest_center_path_python)
    return partial(_batched_walk, obs=obs)


def _certificate(
    potentials: np.ndarray,
    masks: np.ndarray | None = None,
    from_window: int = 0,
    placement: np.ndarray | None = None,
) -> dict:
    """Schedule-meta payload proving per-datum path optimality.

    ``potentials`` are the forward DP value tables — valid shortest-path
    node potentials over each datum's cost-graph.  The standalone checker
    (:mod:`repro.verify.certificate`) verifies dual feasibility and
    tightness without re-running the solver.
    """
    totals = potentials[:, -1, :].min(axis=1)
    return {
        "kind": "gomcds-potentials",
        "version": 1,
        "potentials": potentials,
        "totals": totals,
        "masks": masks,
        "from_window": int(from_window),
        "placement": None if placement is None else np.asarray(placement),
    }


def gomcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Global-optimal multiple-center scheduling (paper's Algorithm 2).

    Without a memory constraint the result is the true per-datum optimum:
    "When there is no processor collision of data in each execution
    window, Algorithm 2 gives global-optimal centers resulting in the
    minimum communication cost for an application."  With a constraint,
    data are routed through the cost-graph in descending reference-volume
    order and full ``(window, processor)`` cells are masked out — the
    processor-list idea generalized to paths.

    With ``certify=True`` the schedule carries an optimality certificate
    in ``meta["certificate"]``: the DP's forward value tables double as
    shortest-path node potentials, so :mod:`repro.verify` can prove each
    path optimal (within its admissible mask) without trusting the solver.

    ``kernel`` selects the vectorized DP (``"numpy"``, default — one
    ``(D, m, m)`` broadcast per window, and under capacity the
    speculative batched walk of :func:`_batched_walk`) or the scalar
    reference oracle (``"python"`` — the paper's pseudocode, datum by
    datum and loop by loop); both produce bit-identical schedules and
    certificates.
    """
    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.gomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        kernel=kernel,
    ):
        with obs.span("gomcds.cost_tensor"):
            costs = placement_cost_tensor(tensor, model, kernel)
        dist = model.distances.astype(np.float64)
        vols = model.volume_vector(n_data)
        obs.gauge("gomcds.dp_cells", n_data * n_windows * model.n_procs)
        walk = _path_walk(kernel, obs)

        record = obs.provenance.recording
        if capacity is None:
            masks = None
            with obs.span("gomcds.dp_sweep"):
                centers, potentials, _ = walk(
                    costs, dist, vols, range(n_data), certify=certify
                )
        else:
            capacity.check_feasible(n_data)
            tracker = OccupancyTracker(capacity, n_windows=n_windows)
            with obs.span("gomcds.capacity_walk"):
                centers, potentials, masks = walk(
                    costs, dist, vols, tensor.data_priority_order(),
                    tracker=tracker, certify=certify,
                    record_masks=certify or record,
                )
        meta = {"certificate": _certificate(potentials, masks)} if certify else {}
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="GOMCDS", kernel=kernel, masks=masks,
            )
        return Schedule(
            centers=centers, windows=tensor.windows, method="GOMCDS", meta=meta
        )
