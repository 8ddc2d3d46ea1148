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
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .schedule import Schedule

__all__ = ["lomcds"]


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


def _capacity_walk(
    costs, referenced, order, tracker, masks=None, evictions=None
):
    """The LOMCDS capacity walk, one step per datum.

    A datum claims one cell per window, so its own claims never change
    its availability in any other window: one availability snapshot per
    datum serves every window (and is its provenance mask).  One stable
    argsort + gather picks the first free processor on each window's
    list; idle windows forward-fill the last chosen center.  Only from
    the first idle window whose held slot is taken (an eviction) does the
    datum fall back to the scalar window-by-window rule.  Same arguments,
    return value and bits as its test reference,
    :func:`~repro.core.kernels.lomcds_walk_python`.
    """
    n_data, n_windows, _ = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    windows = np.arange(n_windows)
    # window 0 and referenced windows choose from the processor list;
    # every other window holds the center chosen last
    chooses = referenced.copy()
    chooses[:, 0] = True
    source = np.maximum.accumulate(np.where(chooses, windows, 0), axis=1)
    idle_holds = idle_evictions = 0
    for d in order:
        available = tracker.available_mask()
        if masks is not None:
            masks[d] = available
        ranked = np.argsort(costs[d], axis=1, kind="stable")
        free = available[windows[:, None], ranked]
        pos = free.argmax(axis=1)  # first free slot on each window's list
        if not free[windows, pos].all():
            raise CapacityError("no processor has a free slot for this datum")
        first = ranked[windows, pos]
        row = first[source[d]]
        idle = ~chooses[d]
        evicted = idle & ~available[windows, row]
        if not evicted.any():
            idle_holds += int(idle.sum())
        else:
            start = int(evicted.argmax())
            idle_holds += int(idle[:start].sum())
            prev = row[start - 1]
            for w in range(start, n_windows):
                if chooses[d, w]:
                    prev = first[w]
                elif available[w, prev]:
                    idle_holds += 1
                else:
                    prev = first[w]
                    idle_evictions += 1
                    if evictions is not None:
                        evictions.append((d, w))
                row[w] = prev
        tracker.claim_path(row)
        centers[d] = row
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
                masks, evictions,
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
