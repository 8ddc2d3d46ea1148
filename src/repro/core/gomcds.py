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

which we evaluate with one ``(m, m)`` broadcast per window — and, when
memory is unconstrained and volumes are uniform per datum, with a single
``(D, m, m)`` broadcast per window for *all* data at once.  Two
independent references hold this DP to account: the scalar kernel
(:func:`repro.core.kernels.shortest_center_path_python`) and the
certificate checker (:mod:`repro.verify.certificate`).
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .kernels import (
    placement_cost_tensor_python,
    resolve_kernel,
    shortest_center_path_python,
)
from .schedule import Schedule

__all__ = ["gomcds", "shortest_center_path"]

_INF = np.inf


def shortest_center_path(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Optimal center-per-window path for one datum.

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
    n_windows, n_procs = window_costs.shape
    costs = window_costs.astype(np.float64, copy=True)
    if allowed is not None:
        costs[~allowed] = _INF
    back = np.zeros((n_windows, n_procs), dtype=np.int64)
    potentials = (
        np.empty((n_windows, n_procs), dtype=np.float64)
        if return_potentials
        else None
    )
    f = costs[0]
    if potentials is not None:
        potentials[0] = f
    for w in range(1, n_windows):
        # transition[j, k] = f[j] + move_costs[j, k]
        transition = f[:, None] + move_costs
        back[w] = transition.argmin(axis=0)
        f = transition.min(axis=0) + costs[w]
        if potentials is not None:
            potentials[w] = f
    end = int(f.argmin())
    total = float(f[end])
    if not np.isfinite(total):
        raise CapacityError("no feasible center path under the memory constraint")
    path = np.empty(n_windows, dtype=np.int64)
    path[-1] = end
    for w in range(n_windows - 1, 0, -1):
        path[w - 1] = back[w, path[w]]
    if return_potentials:
        return path, total, potentials
    return path, total


def _all_paths_vectorized(
    costs: np.ndarray,
    dist: np.ndarray,
    vols: np.ndarray,
    return_potentials: bool = False,
):
    """Unconstrained DP for all data at once.

    ``costs`` is ``(D, W, m)``; movement between windows for datum ``d``
    is ``vols[d] * dist``.  Returns the ``(D, W)`` center paths and the
    ``(D, W, m)`` DP potential tables (``None`` unless
    ``return_potentials``).
    """
    n_data, n_windows, n_procs = costs.shape
    back = np.zeros((n_data, n_windows, n_procs), dtype=np.int64)
    potentials = (
        np.empty((n_data, n_windows, n_procs), dtype=np.float64)
        if return_potentials
        else None
    )
    f = costs[:, 0, :].astype(np.float64, copy=True)
    if potentials is not None:
        potentials[:, 0, :] = f
    move = vols[:, None, None] * dist[None, :, :]  # (D, m, m)
    for w in range(1, n_windows):
        transition = f[:, :, None] + move  # (D, m, m): axis 1 = from, 2 = to
        back[:, w, :] = transition.argmin(axis=1)
        f = transition.min(axis=1) + costs[:, w, :]
        if potentials is not None:
            potentials[:, w, :] = f
    paths = np.empty((n_data, n_windows), dtype=np.int64)
    paths[:, -1] = f.argmin(axis=1)
    rows = np.arange(n_data)
    for w in range(n_windows - 1, 0, -1):
        paths[:, w - 1] = back[rows, w, paths[:, w]]
    return paths, potentials


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

    The one masked path walk behind GOMCDS, both fault reschedulers and
    the movement-budgeted variant.  Data are taken in ``order``; datum
    ``d`` may use the cells of ``base & tracker.available_mask()``
    (either operand may be absent), ``solve_path`` picks its path over
    ``costs[d]`` with relocation costs ``vols[d] * dist``, and the
    tracker claims that path before the next datum is routed.

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
    ``(D, m, m)`` broadcast per window) or the scalar reference oracle
    (``"python"`` — the paper's pseudocode, loop by loop); both produce
    bit-identical schedules and certificates.
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
            if kernel == "python":
                costs = placement_cost_tensor_python(tensor, model)
            else:
                costs = model.all_placement_costs(tensor)  # (D, W, m)
        dist = model.distances.astype(np.float64)
        vols = model.volume_vector(n_data)
        obs.gauge("gomcds.dp_cells", n_data * n_windows * model.n_procs)
        solve_path = (
            shortest_center_path_python
            if kernel == "python"
            else shortest_center_path
        )

        record = obs.provenance.recording
        if capacity is None:
            masks = None
            with obs.span("gomcds.dp_sweep"):
                if kernel == "python":
                    centers, potentials, _ = _walk_paths(
                        solve_path, costs, dist, vols, range(n_data),
                        certify=certify,
                    )
                else:
                    centers, potentials = _all_paths_vectorized(
                        costs, dist, vols, return_potentials=certify
                    )
        else:
            capacity.check_feasible(n_data)
            tracker = OccupancyTracker(capacity, n_windows=n_windows)
            with obs.span("gomcds.capacity_walk"):
                centers, potentials, masks = _walk_paths(
                    solve_path, costs, dist, vols, tensor.data_priority_order(),
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
