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
from .kernels import (
    hold_position_numpy,
    hold_position_python,
    local_argmin_python,
    lomcds_walk_python,
    placement_cost_tensor,
    resolve_kernel,
)
from .schedule import Schedule

__all__ = ["lomcds"]


def _capacity_walk(
    costs, referenced, order, tracker, masks=None, evictions=None
):
    """:func:`~repro.core.kernels.lomcds_walk_python`, one step per datum.

    A datum claims one cell per window, so its own claims never change
    its availability in any other window: one availability snapshot per
    datum serves every window (and is its provenance mask).  One stable
    argsort + gather picks the first free processor on each window's
    list; idle windows forward-fill the last chosen center.  Only from
    the first idle window whose held slot is taken (an eviction) does the
    datum fall back to the scalar window-by-window rule.  Same arguments
    and return value as the scalar walk, bit-identical results.
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
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Per-window local-optimal centers for every datum.

    A datum that is not referenced at all inside a window has no local
    preference there; it stays wherever the previous window put it (no
    gratuitous movement), which matches the paper's run-time behaviour of
    only moving data "to such centers according to these execution
    windows".  ``kernel`` selects the vectorized path (``"numpy"``,
    default) or the scalar reference oracle (``"python"``); both produce
    bit-identical schedules.
    """
    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.lomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        kernel=kernel,
    ):
        with obs.span("lomcds.cost_tensor"):
            costs = placement_cost_tensor(tensor, model, kernel)
        referenced = tensor.counts.sum(axis=2) > 0  # (D, W)

        record = obs.provenance.recording
        if capacity is None:
            with obs.span("lomcds.local_argmin"):
                if kernel == "python":
                    centers = local_argmin_python(costs)
                    hold_position_python(centers, referenced)
                else:
                    centers = costs.argmin(axis=2)  # lowest-pid tie-break
                    hold_position_numpy(centers, referenced)
            if record:
                record_decisions(
                    obs, costs=costs, centers=centers, model=model,
                    method="LOMCDS", kernel=kernel,
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
        walk = lomcds_walk_python if kernel == "python" else _capacity_walk
        with obs.span("lomcds.capacity_walk") as span:
            centers, idle_holds, idle_evictions = walk(
                costs, referenced, tensor.data_priority_order(), tracker,
                masks, evictions,
            )
            span.set(idle_holds=idle_holds, idle_evictions=idle_evictions)
            obs.count("lomcds.idle_holds", idle_holds)
            obs.count("lomcds.idle_evictions", idle_evictions)
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="LOMCDS", kernel=kernel, masks=masks,
                evictions=evictions,
            )
        return Schedule(
            centers=centers, windows=tensor.windows, method="LOMCDS"
        )
