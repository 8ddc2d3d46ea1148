"""Algorithm 1: Single-Center Data Scheduling (SCDS).

"The single-center data scheduling does not consider the data movement
during the run-time.  Once the data are initialized, they remain at the
same place during the whole execution steps."  All execution windows are
merged into one; for each datum the processors are ranked by the total
communication cost of hosting it, and the datum is assigned to the first
processor in that list with a free memory slot.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityPlan, OccupancyTracker
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _batched_walk
from .schedule import Schedule

__all__ = ["scds"]


def scds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Single-center placement for every datum (paper's Algorithm 1).

    Parameters
    ----------
    tensor:
        Reference tensor ``R[d, w, p]`` built from the application trace.
    model:
        Communication cost model (metric + volumes).
    capacity:
        Optional memory constraint.  ``None`` means unbounded memory, in
        which case every datum lands exactly on its merged-window optimal
        center.  With a constraint, data are assigned in descending
        reference-volume order and each walks its processor list.

    Returns
    -------
    A static :class:`~repro.core.schedule.Schedule` (one center per datum,
    constant across windows).
    """
    obs = resolve(instrument)
    n_data = tensor.n_data
    with obs.span(
        "scheduler.scds",
        n_data=n_data,
        n_windows=tensor.n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
    ):
        record = obs.provenance.recording
        # Line 2-4 of Algorithm 1: cost of putting datum i at node j, with
        # all windows collected together.
        with obs.span("scds.cost_tensor"):
            costs = model.all_placement_costs(tensor)  # (D, W, m)
            totals = costs.sum(axis=1)  # (D, m)

        if capacity is None:
            # Stable argmin = lowest-pid tie-breaking.
            with obs.span("scds.argmin"):
                centers, masks = totals.argmin(axis=1), None
        else:
            capacity.check_feasible(n_data)
            # Lines 5-7: sorted processor list, first available slot — the
            # one-window case of the GOMCDS capacity walk.
            with obs.span("scds.capacity_walk") as walk:
                paths, _, masks = _batched_walk(
                    totals[:, None, :],
                    model.distances.astype(np.float64),
                    model.volume_vector(n_data),
                    tensor.data_priority_order(),
                    tracker=OccupancyTracker(capacity, n_windows=1),
                    record_masks=record,
                )
                centers = paths[:, 0]
                fallbacks = int((centers != totals.argmin(axis=1)).sum())
                walk.set(fallbacks=fallbacks)
                obs.count("scheduler.capacity_fallbacks", fallbacks)
        result = Schedule.static(centers, tensor.windows, method="SCDS")
        if record:
            record_decisions(
                obs, costs=costs, centers=result.centers, model=model,
                method="SCDS", masks=masks,
            )
        return result
