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

which we evaluate for *all* data at once, in blocks whose DP tables
keep the data on the contiguous last axis: per window a ``(m, m, k)``
min-plus broadcast over a block of ``k`` data, or on a 1-D or 2-D mesh,
where ``Dist`` is the separable L1 hop metric, a distance transform in
O(k m) (:func:`_l1_relax`).  Under a memory constraint the data still
claim their paths one at a time in priority order, but the paths are
solved speculatively in batches and re-solved only where a claim
invalidated them (:func:`_batched_walk`).  Two independent references
hold this DP to account: the scalar test reference
(:func:`repro.core.kernels.shortest_center_path_python`) and the
certificate checker (:mod:`repro.verify.certificate`).

Rescheduling around a known fault is the same solve with the dead
``(window, processor)`` cells removed, and the online-recovery re-plan
also prices its first edge from the rollback residency, so
:func:`gomcds` and both fault reschedulers
(:mod:`repro.core.reschedule`) call one function, :func:`_solve`.
:func:`priced_gomcds` reruns the same capacity walk with Lagrangian
prices on the memory slots, and bounds the constrained optimum.
"""

from __future__ import annotations

import numpy as np

from ..grid import Mesh1D, Mesh2D
from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import NOOP, Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .evaluate import evaluate_schedule
from .schedule import Schedule

__all__ = ["gomcds", "priced_gomcds", "shortest_center_path"]

_INF = np.inf
_NO_PATH = "no feasible center path under the memory constraint"
_BLOCK = 128  # fewest rows per batched-DP block (see _all_paths_vectorized)
_BLOCK_CELLS = 4096  # rows x processors per batched-DP block, from _BLOCK up
_GATHER = 64  # rows per copy of the cost tensor into a block's DP table
_L1_MIN_CELLS = 1024  # rows x processors from which a block takes the L1 step
_PRICE_STEPS = 30  # Polyak steps of the priced walk (see priced_gomcds)


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
    grid: tuple[int, ...] | None = None,
):
    """Shortest center paths for many data at once.

    ``costs`` is ``(D, W, m)``; movement between windows for datum ``d``
    is ``vols[d] * dist``.  ``data`` picks the rows to solve (default:
    all of them, in index order).  ``masks`` is an optional
    admissible-cell mask, shared ``(W, m)`` or one ``(len(data), W, m)``
    slice per solved datum; inadmissible cells are priced at infinity.

    Rows are swept in blocks of ``_BLOCK_CELLS // m`` rows, never fewer
    than ``_BLOCK``.  Each block copies its own rows of ``costs`` into a
    ``(W, m, k)`` DP table (:func:`_sweep_block`), so the ``(D, W, m)``
    tensor is never copied whole; the block size bounds that table and
    the dense step's ``(m, m, k)`` temporaries.  ``grid`` is the mesh
    shape when the separable L1 step is exact for these inputs (see
    :func:`_l1_grid`); blocks of at least ``_L1_MIN_CELLS`` rows x
    processors then take it in place of the dense step.

    Returns ``(paths, totals, potentials)``: the ``(k, W)`` center paths,
    their ``(k,)`` costs (``inf`` where no admissible path exists) and
    the ``(k, W, m)`` DP potential tables (``None`` unless
    ``return_potentials``).
    """
    n_data, n_windows, n_procs = costs.shape
    rows = np.arange(n_data) if data is None else data
    n_rows = len(rows)
    paths = np.empty((n_rows, n_windows), dtype=np.int64)
    totals = np.empty(n_rows)
    potentials = (
        np.empty((n_rows, n_windows, n_procs)) if return_potentials else None
    )
    per_datum = masks is not None and masks.ndim == 3
    step = max(_BLOCK, _BLOCK_CELLS // n_procs)
    for start in range(0, n_rows, step):
        block = slice(start, start + step)
        _sweep_block(
            costs, dist, vols,
            rows=rows[block],
            masks=masks[block] if per_datum else masks,
            paths=paths[block],
            totals=totals[block],
            potentials=None if potentials is None else potentials[block],
            grid=grid,
        )
    return paths, totals, potentials


def _sweep_block(
    costs, dist, vols, *, rows, masks, paths, totals, potentials, grid
):
    """The DP for one block of ``rows``, written into the output views.

    The block keeps its DP tables as one ``(W, m, k)`` buffer with the
    ``k`` data contiguous: ``costs[rows]`` is copied in once, its
    inadmissible cells are set to infinity once, and each window step
    adds its min-plus term to window ``w``'s costs in place.  The dense
    step adds ``f_{w-1}`` to a ``(to, from, k)`` move tensor and reduces
    over ``from``; with a ``grid`` and a block of at least
    ``_L1_MIN_CELLS`` rows x processors it is :func:`_l1_relax` instead,
    whose values are exact integers equal to the dense step's.

    The traceback rebuilds each back-pointer as
    ``argmin_j f_{w-1}[j] + vol * Dist[j, k]`` for the chosen ``k``, over
    one ``(k, m)`` slice.  That is the dense step's add and the scalar
    reference's lowest-index tie-break
    (:func:`~repro.core.kernels.shortest_center_path_python`), so each row
    is bit-identical to a per-datum solve under the same mask.  The
    potentials, when asked for, are written out as ``(k, W, m)``.
    """
    n_windows, n_procs = costs.shape[1:]
    vol = vols[rows]
    n_rows = len(vol)
    # a fresh buffer (the memoized cost tensor is read-only), filled
    # _GATHER rows at a time so no second block-sized copy is held
    table = np.empty((n_windows, n_procs, n_rows))
    for start in range(0, n_rows, _GATHER):
        part = slice(start, start + _GATHER)
        table[..., part] = costs[rows[part]].transpose(1, 2, 0)
    if masks is not None:
        admissible = (
            masks.transpose(1, 2, 0) if masks.ndim == 3 else masks[..., None]
        )
        np.copyto(table, _INF, where=~admissible)
    separable = grid is not None and n_rows * n_procs >= _L1_MIN_CELLS
    if n_windows > 1 and not separable:  # one window has no transitions
        move = dist.T[..., None] * vol  # (to, from, k)
        transition = np.empty_like(move)
    for w in range(1, n_windows):
        if separable:
            table[w] += _l1_relax(table[w - 1], vol, grid)
        else:
            np.add(table[w - 1], move, out=transition)
            table[w] += np.minimum.reduce(transition, axis=1)
    paths[:, -1] = table[-1].argmin(axis=0)
    totals[:] = table[-1].min(axis=0)
    for w in range(n_windows - 1, 0, -1):
        into = dist.T[paths[:, w]]  # (k, m): Dist[j, k] at each row's k
        into *= vol[:, None]
        into += table[w - 1].T
        paths[:, w - 1] = into.argmin(axis=1)
    if potentials is not None:
        potentials[...] = table.transpose(2, 0, 1)


def _l1_relax(f, vol, grid):
    """``g[k] = min_j f[j] + vol * Dist[j, k]`` for the L1 hop metric.

    ``f`` is ``(m, k)``: ``m`` cells of the row-major ``grid`` by ``k``
    data, each with its volume in ``vol``.  One forward and one backward
    chamfer pass per grid axis, ``g[c] = min(g[c], g[c -/+ 1] + vol)``,
    each on ``(..., k)`` grid lines, give the exact lower envelope in
    O(k m) work (Felzenszwalb & Huttenlocher, "Distance Transforms of
    Sampled Functions").  Each value is some ``f[j]`` plus ``vol`` added
    ``Dist[j, k]`` times, which equals the dense step's
    ``f[j] + vol * Dist[j, k]`` whenever every value involved is an
    integer below 2**53.
    """
    g = f.reshape(*grid, -1).copy()
    for axis in range(len(grid)):
        line = g.swapaxes(0, axis)
        for c in range(1, len(line)):
            np.minimum(line[c], line[c - 1] + vol, out=line[c])
        for c in range(len(line) - 2, -1, -1):
            np.minimum(line[c], line[c + 1] + vol, out=line[c])
    return g.reshape(f.shape)


def _l1_grid(tensor: ReferenceTensor, model: CostModel, vols, n_windows):
    """The mesh shape when :func:`_l1_relax` is exact for a solve, else ``None``.

    The topology must be a :class:`~repro.grid.Mesh1D` or
    :class:`~repro.grid.Mesh2D`, whose hop metric is the unit L1
    distance, and every DP value an integer below 2**53: the volumes
    (positive and finite by construction) are integers, and the largest
    path sum, bounded from the reference counts, stays below 2**53 with
    one more hop to spare.
    """
    if type(model.topology) not in (Mesh1D, Mesh2D):
        return None
    if not (vols == np.floor(vols)).all():
        return None
    # a path pays at most `hops` per reference, per move and for the pin
    refs = tensor.counts.sum(axis=(1, 2))
    hops = float(model.distances.max())
    bound = float((vols * (refs + n_windows + 1)).max(initial=0)) * hops
    return model.topology.shape if bound < 2.0**53 else None


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

    The sequential masked path walk behind the movement-budgeted variant
    (whose solver has no batched form); with
    :func:`~repro.core.kernels.shortest_center_path_python` it is the
    test reference for :func:`_batched_walk`.  Data are taken in
    ``order``; datum ``d`` may use the cells of
    ``base & tracker.available_mask()`` (either operand may be absent),
    ``solve_path`` picks its path over ``costs[d]`` with
    relocation costs ``vols[d] * dist``, and the tracker claims that path
    before the next datum is routed.

    Returns ``(centers, potentials, masks)``: the ``(D, W)`` paths, the
    ``(D, W, m)`` DP potentials when ``certify`` and the admissible mask
    each datum was solved under when ``record_masks`` (else ``None``;
    also ``None`` when nothing masks the walk, every cell admissible).
    """
    n_data, n_windows, n_procs = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    potentials = np.empty((n_data, n_windows, n_procs)) if certify else None
    masks = (
        np.empty((n_data, n_windows, n_procs), dtype=bool)
        if record_masks and (base is not None or tracker is not None)
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


def _claim_walk(tracker, order, guess, *, base=None, masks=None):
    """Claim each datum's path in ``order``, one bulk claim per conflict.

    ``guess(rows, mask)`` returns the ``(len(rows), W)`` paths of the
    data ``rows`` chosen under the admissible ``(W, m)`` mask, raising
    :class:`CapacityError` when one has none; its first call has
    ``rows=None``, every datum in index order.  Each batch claims the
    longest prefix of the remaining guesses that still fits
    (:meth:`~repro.mem.OccupancyTracker.claim_paths`), then re-guesses,
    under the mask those claims left, every remaining datum whose guess
    touches a cell no longer admissible.  A guess made under a superset
    of a datum's turn mask whose every cell is admissible at its turn is
    what the turn itself would choose (see "Exact speculative walk" in
    ``docs/algorithms.md``), so the claims are the sequential walk's.
    The mask is ``base & tracker.available_mask()`` (``base`` may be
    absent); ``masks`` (when given) receives each datum's turn mask.

    Returns ``(centers, batches, resolved)``: the claimed ``(D, W)``
    paths, the guess calls and the data re-guessed after the first.
    """

    def current_mask():
        available = tracker.available_mask()
        return available if base is None else base & available

    def claim(start):
        """Claim from row ``start`` of ``paths`` on; the rows claimed."""
        if masks is None:
            return tracker.claim_paths(paths[start:], base=base)
        turns = np.empty((len(order) - start, *masks.shape[1:]), dtype=bool)
        claimed = tracker.claim_paths(paths[start:], base=base, masks=turns)
        masks[order[start : start + claimed]] = turns[:claimed]
        return claimed

    order = np.asarray(order)
    paths = guess(None, current_mask())[order]  # row i: datum order[i]
    windows = np.arange(paths.shape[1])
    batches, resolved, done = 1, 0, 0
    while True:
        done += claim(done)
        if done == len(order):
            break
        mask = current_mask()
        fits = mask.ravel()[paths[done:] + windows * mask.shape[1]].all(axis=1)
        stale = done + np.flatnonzero(~fits)
        paths[stale] = guess(order[stale], mask)
        batches += 1
        resolved += len(stale)
    centers = np.empty_like(paths)
    centers[order] = paths
    return centers, batches, resolved


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
    grid: tuple[int, ...] | None = None,
):
    """:func:`_walk_paths` with the numpy DP, solved speculatively in batches.

    Every datum is first solved at once against the current mask, and
    :func:`_claim_walk` claims the guesses in ``order``, one bulk claim
    per conflict; the guesses a claim invalidated are re-solved under
    the current mask in one batched DP.  A path that is optimal over a
    superset of cells and feasible in the subset is optimal in the
    subset, with the same lowest-index tie-break, so the centers are
    bit-identical to the sequential walk.  A datum with no path under a
    superset of its cells has none at its turn, so any infinite guess
    raises at once.  Certificate potentials are then computed in one
    more batched DP under the mask each datum actually had.  ``grid`` is
    passed to every batched DP (:func:`_all_paths_vectorized`).
    Otherwise the same arguments and return value as :func:`_walk_paths`.
    """
    n_data, n_windows, n_procs = costs.shape
    if tracker is None:
        centers, totals, potentials = _all_paths_vectorized(
            costs, dist, vols, masks=base, return_potentials=certify,
            grid=grid,
        )
        if not np.isfinite(totals).all():
            raise CapacityError(_NO_PATH)
        masks = None
        if record_masks and base is not None:
            masks = np.broadcast_to(base, costs.shape).copy()
        return centers, potentials, masks

    def guess(rows, mask):
        paths, totals, _ = _all_paths_vectorized(
            costs, dist, vols, masks=mask, data=rows, grid=grid
        )
        if not np.isfinite(totals).all():
            raise CapacityError(_NO_PATH)
        return paths

    masks = (
        np.empty((n_data, n_windows, n_procs), dtype=bool)
        if record_masks or certify
        else None
    )
    centers, batches, resolved = _claim_walk(
        tracker, order, guess, base=base, masks=masks
    )
    obs.count("gomcds.walk_batches", batches)
    obs.count("gomcds.walk_resolved", resolved)
    potentials = None
    if certify:
        _, _, potentials = _all_paths_vectorized(
            costs, dist, vols, masks=masks, return_potentials=True,
            grid=grid,
        )
    return centers, potentials, masks if record_masks else None


def _solve(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None,
    *,
    obs: Instrumentation,
    certify: bool,
    phase: str,
    method: str,
    meta: dict | None = None,
    alive: np.ndarray | None = None,
    prefix: np.ndarray | None = None,
    pin: np.ndarray | None = None,
) -> Schedule:
    """The GOMCDS path solve behind :func:`gomcds` and both reschedulers.

    The windows after the committed ``(D, W0)`` ``prefix`` centers (none:
    the whole horizon) are solved by one masked walk: data claim their
    cost-graph paths in priority order under ``capacity``, restricted to
    the ``(W - W0, m)`` ``alive`` cells when given.  ``pin`` ``(D,)``
    prices entering the first solved window as a move from where each
    datum resides.  Phase spans are ``<phase>.cost_tensor``, then
    ``<phase>.dp_sweep`` when nothing masks the walk or
    ``<phase>.capacity_walk`` otherwise.  On a 1-D or 2-D mesh with
    integer volumes the DP takes the separable L1 step
    (:func:`_l1_grid`).  The schedule carries ``meta``
    (plus the certificate when ``certify``), and provenance, tagged with
    ``meta``, covers the full horizon with every prefix cell admissible.
    """
    n_data, n_windows = tensor.n_data, tensor.n_windows
    start = 0 if prefix is None else prefix.shape[1]
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(n_data)
    with obs.span(f"{phase}.cost_tensor"):
        full_costs = model.all_placement_costs(tensor)
        costs = full_costs[:, start:]
        if pin is not None:
            costs = costs.copy()
            costs[:, 0] += vols[:, None] * dist[pin]

    tracker = None
    if capacity is not None:
        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=n_windows - start)
    record = obs.provenance.recording
    step = "dp_sweep" if tracker is None and alive is None else "capacity_walk"
    grid = _l1_grid(tensor, model, vols, n_windows - start)
    with obs.span(f"{phase}.{step}"):
        centers, potentials, masks = _batched_walk(
            costs, dist, vols, tensor.data_priority_order(), base=alive,
            tracker=tracker, certify=certify, record_masks=certify or record,
            obs=obs, grid=grid,
        )
    if prefix is not None:
        centers = np.hstack([prefix, centers])
    schedule_meta = dict(meta or {})
    if certify:
        # the forward DP value tables are shortest-path node potentials:
        # repro.verify.certificate proves each path optimal from them
        # (dual feasibility and tightness) without re-running the solver
        schedule_meta["certificate"] = {
            "kind": "gomcds-potentials",
            "version": 1,
            "potentials": potentials,
            "totals": potentials[:, -1, :].min(axis=1),
            "masks": masks,
            "from_window": start,
            "placement": pin,
        }
    if record:
        if start and masks is not None:
            history = np.ones((n_data, start, model.n_procs), dtype=bool)
            masks = np.concatenate([history, masks], axis=1)
        record_decisions(
            obs, costs=full_costs, centers=centers, model=model,
            method=method, masks=masks, meta=meta,
        )
    return Schedule(
        centers=centers, windows=tensor.windows, method=method,
        meta=schedule_meta,
    )


def gomcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
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

    The DP is vectorized over blocks of data, laid out data-last: one
    ``(m, m, k)`` broadcast per window and block, or the O(k m) L1
    distance transform on a 1-D or 2-D mesh, and under capacity the
    speculative batched walk of :func:`_batched_walk`.
    """
    obs = resolve(instrument)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.gomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
    ):
        obs.gauge("gomcds.dp_cells", n_data * n_windows * model.n_procs)
        return _solve(
            tensor, model, capacity, obs=obs,
            certify=certify, phase="gomcds", method="GOMCDS",
        )


def priced_gomcds(
    tensor: ReferenceTensor, model: CostModel, capacity: CapacityPlan
) -> tuple[Schedule, float]:
    """Constrained GOMCDS with its memory slots priced by Lagrangian relaxation.

    Each of ``_PRICE_STEPS`` steps prices every ``(window, processor)``
    slot with ``λ >= 0`` and reruns the capacity walk of :func:`gomcds`
    (:func:`_batched_walk`, same priority order, fresh tracker) on
    ``costs + λ``; the walk that is cheapest at the true costs is kept.
    One unconstrained DP on the priced costs gives the Lagrangian bound
    ``L(λ) = Σ_d DP_d(λ) - Σ λ·cap``, below the cost of every
    capacity-feasible schedule, and its slot usage minus ``cap`` is a
    subgradient along which ``λ`` takes a projected Polyak step; the step
    size halves after 3 steps without a better bound.  Step 0 has
    ``λ = 0``, so its walk is :func:`gomcds` under ``capacity`` and the
    result never costs more.  ``λ`` is fractional, so every DP takes the
    dense step: the L1 step is exact only on integers.

    Returns ``(schedule, bound)``: the cheapest walk and the best bound.
    Raises :class:`CapacityError` when the data cannot fit at all.
    """
    n_data, n_windows, n_procs = tensor.n_data, tensor.n_windows, model.n_procs
    capacity.check_feasible(n_data)
    costs = model.all_placement_costs(tensor)
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(n_data)
    order = tensor.data_priority_order()
    caps = capacity.capacities
    price = np.zeros((n_windows, n_procs))
    best, best_cost, bound = None, _INF, -_INF
    theta, stalled = 2.0, 0
    for _ in range(_PRICE_STEPS):
        priced = costs + price[None]
        centers, _, _ = _batched_walk(
            priced, dist, vols, order,
            tracker=OccupancyTracker(capacity, n_windows),
        )
        walk = Schedule(
            centers=centers, windows=tensor.windows, method="GOMCDS+priced"
        )
        cost = evaluate_schedule(walk, tensor, model).total
        if cost < best_cost:
            best, best_cost = walk, cost
        paths, totals, _ = _all_paths_vectorized(priced, dist, vols)
        lower = totals.sum() - (price * caps).sum()
        if lower > bound:
            bound, stalled = lower, 0
        else:
            stalled += 1
            if stalled == 3:
                theta, stalled = theta / 2, 0
        usage = Schedule(centers=paths, windows=tensor.windows).occupancy(n_procs)
        excess = usage - caps
        norm = float((excess * excess).sum())
        if best_cost <= bound or norm == 0.0:
            break  # the walk meets the bound, or the DP paths fill each slot exactly
        step = theta * (best_cost - lower) / norm
        stepped = np.maximum(0.0, price + step * excess)
        if np.array_equal(stepped, price):
            break  # the projection cancels every step from here on
        price = stepped
    return best, float(bound)
