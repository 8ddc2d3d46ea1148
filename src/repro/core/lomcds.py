"""Local-Optimal Multiple-Center Data Scheduling (LOMCDS, paper §3.2.1).

Algorithm 1 is applied to every execution window independently: within
each window a datum sits at that window's local optimal center
(Definition 4), and the datum is physically moved between centers at
window boundaries.  The movement cost is *not* considered when choosing
the centers — that is precisely the weakness GOMCDS fixes — but it is of
course charged when the schedule is evaluated.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import NOOP, Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _claim_walk
from .schedule import Schedule

__all__ = ["lomcds"]

_BLOCK = 128  # data per block of the unconstrained argmin and of the guesses
_MASKED_CELLS = 1 << 16  # costs per masked-argmin block (see _masked_argmin)


def _hold_position(centers: np.ndarray, referenced: np.ndarray) -> None:
    """Vectorized idle hold: one gather instead of a loop over data.

    For each ``(d, w)`` the source window is the last referenced window
    at or before ``w`` (forward fill), or the first referenced window
    when none precedes it (backward fill of the initial placement).
    Bit-identical to its test reference,
    :func:`~repro.core.kernels.hold_position_python`.
    """
    n_data, n_windows = centers.shape
    if n_data == 0 or n_windows == 0:
        return
    w_idx = np.arange(n_windows, dtype=np.int64)
    marked = np.where(referenced, w_idx[None, :], -1)
    last_ref = np.maximum.accumulate(marked, axis=1)  # (D, W), -1 = none yet
    # argmax of a boolean row is its first True; all-False rows give 0,
    # which matches the scalar rule "keep the window-0 center".
    first_ref = referenced.argmax(axis=1).astype(np.int64)
    source = np.where(last_ref >= 0, last_ref, first_ref[:, None])
    centers[:] = centers[np.arange(n_data)[:, None], source]


def _masked_argmin(costs, rows, wins, free):
    """The first free processor on each ``(rows[i], wins[i])`` list.

    The list is the processors ranked by ascending cost, ties toward the
    lowest pid, so its first free entry is the lowest-index argmin of the
    costs masked to +inf on full cells (``free`` is the flat
    ``(W * m,)`` availability).  The argmins run in blocks of at most
    ``_MASKED_CELLS`` costs.
    """
    n_procs = costs.shape[2]
    available = free.reshape(-1, n_procs)
    procs = np.empty(len(rows), dtype=np.int64)
    step = max(1, _MASKED_CELLS // n_procs)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        at = wins[block]
        masked = np.where(available[at], costs[rows[block], at], np.inf)
        procs[block] = masked.argmin(axis=1)
    return procs


def _capacity_walk(
    costs, referenced, order, tracker, masks=None, evictions=None, *,
    obs=NOOP,
):
    """The LOMCDS capacity walk, one bulk claim per conflict.

    Every datum's row is guessed at once under the current availability
    and :func:`~repro.core.gomcds._claim_walk` claims the guesses in
    ``order``, re-guessing those a claim invalidated.  A guess takes the
    first free processor on each choosing window's list and forward-fills
    it through the idle windows; an idle window whose held slot is full
    is an eviction, resolved for every guessed row at once, one pass per
    eviction event.  The first free processor of each cell is cached:
    the unconstrained argmin at first, and a masked argmin
    (:func:`_masked_argmin`) only where a guess finds the cached one
    full.  Under a superset of the turn's availability, a row whose every
    cell is free at the turn is exactly that turn's row, holds and
    evictions included (see "Exact speculative walk" in
    ``docs/algorithms.md``).  Counts ``lomcds.walk_batches`` and
    ``lomcds.walk_resolved`` on ``obs``.
    Same arguments, return value and bits as its test reference,
    :func:`~repro.core.kernels.lomcds_walk_python`.
    """
    n_data, n_windows, n_procs = costs.shape
    windows = np.arange(n_windows)
    offsets = windows * n_procs  # flat (window, processor) cells
    # window 0 and referenced windows choose from the processor list;
    # every other window holds the center chosen last
    chooses = referenced.copy()
    chooses[:, 0] = True
    # each cell's first free processor as of its row's last guess: the
    # unconstrained argmin until a guess finds it full
    first = np.empty((n_data, n_windows), dtype=np.min_scalar_type(n_procs))
    for start in range(0, n_data, _BLOCK):
        block = slice(start, start + _BLOCK)
        first[block] = costs[block].argmin(axis=2)
    evicted = np.zeros((n_data, n_windows), dtype=bool)

    def guess_block(rows, free):
        """The paths of ``rows`` under the flat availability ``free``."""
        choose = chooses[rows]
        at, wins = np.nonzero(choose & ~free[first[rows] + offsets])
        first[rows[at], wins] = _masked_argmin(costs, rows[at], wins, free)
        # idle windows hold the center of the last choosing window
        source = np.maximum.accumulate(np.where(choose, windows, 0), axis=1)
        paths = first.ravel()[source + rows[:, None] * n_windows]
        idle = ~choose
        lost = idle & ~free[paths + offsets]
        ev = np.zeros(lost.shape, dtype=bool)
        live = np.flatnonzero(lost.any(axis=1))
        if len(live):
            # the next choosing window at or after each window
            until = np.where(choose, windows, n_windows)[:, ::-1]
            until = np.minimum.accumulate(until, axis=1)[:, ::-1]
        while len(live):
            e = lost[live].argmax(axis=1)  # each row's first eviction
            ev[live, e] = True
            data = rows[live]
            procs = first[data, e]
            full = np.flatnonzero(~free[offsets[e] + procs])
            procs[full] = _masked_argmin(costs, data[full], e[full], free)
            first[data, e] = procs
            # the new center is held up to the next choosing window
            moved = (windows >= e[:, None]) & (
                windows < until[live, e][:, None]
            )
            paths[live] = np.where(moved, procs[:, None], paths[live])
            lost[live] = idle[live] & ~free[paths[live] + offsets]
            live = live[lost[live].any(axis=1)]
        evicted[rows] = ev
        return paths

    def guess(rows, available):
        if rows is None:
            rows = np.arange(n_data)
        if len(rows) and not available.any(axis=1).all():
            raise CapacityError("no processor has a free slot for this datum")
        # a block of rows at a time keeps the (rows, W) temporaries small
        free = available.ravel()
        paths = np.empty((len(rows), n_windows), dtype=np.int64)
        for start in range(0, len(rows), _BLOCK):
            block = slice(start, start + _BLOCK)
            paths[block] = guess_block(rows[block], free)
        return paths

    centers, batches, resolved = _claim_walk(
        tracker, order, guess, masks=masks
    )
    obs.count("lomcds.walk_batches", batches)
    obs.count("lomcds.walk_resolved", resolved)
    at, wins = np.nonzero(evicted[order])
    if evictions is not None:
        evictions.extend(zip(np.asarray(order)[at].tolist(), wins.tolist()))
    idle_evictions = len(at)
    idle_holds = int((~chooses[order]).sum()) - idle_evictions
    return centers, idle_holds, idle_evictions


def lomcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Per-window local-optimal centers for every datum.

    A datum that is not referenced at all inside a window has no local
    preference there; it stays wherever the previous window put it (no
    gratuitous movement), which matches the paper's run-time behaviour of
    only moving data "to such centers according to these execution
    windows".
    """
    obs = resolve(instrument)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.lomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
    ):
        with obs.span("lomcds.cost_tensor"):
            costs = model.all_placement_costs(tensor)
        referenced = tensor.counts.sum(axis=2) > 0  # (D, W)

        record = obs.provenance.recording
        if capacity is None:
            with obs.span("lomcds.local_argmin"):
                centers = costs.argmin(axis=2)  # lowest-pid tie-break
                _hold_position(centers, referenced)
            if record:
                record_decisions(
                    obs, costs=costs, centers=centers, model=model,
                    method="LOMCDS",
                )
            return Schedule(
                centers=centers, windows=tensor.windows, method="LOMCDS"
            )

        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=n_windows)
        masks = (
            np.zeros((n_data, n_windows, model.n_procs), dtype=bool)
            if record
            else None
        )
        evictions: list[tuple[int, int]] | None = [] if record else None
        with obs.span("lomcds.capacity_walk") as span:
            centers, idle_holds, idle_evictions = _capacity_walk(
                costs, referenced, tensor.data_priority_order(), tracker,
                masks, evictions, obs=obs,
            )
            span.set(idle_holds=idle_holds, idle_evictions=idle_evictions)
            obs.count("lomcds.idle_holds", idle_holds)
            obs.count("lomcds.idle_evictions", idle_evictions)
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="LOMCDS", masks=masks,
                evictions=evictions,
            )
        return Schedule(
            centers=centers, windows=tensor.windows, method="LOMCDS"
        )
