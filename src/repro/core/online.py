"""Online multiple-center data scheduling (extension beyond the paper).

The paper's LOMCDS/GOMCDS assume the whole sequence of execution windows
(the full reference string) is known before execution.  This module adds
the natural *online* counterpart: windows arrive one at a time, and the
scheduler decides movements with no lookahead.

The policy is ski-rental-style hysteresis, the standard device for online
migration problems: each datum accumulates *regret* — the extra cost paid
by staying at its current center instead of the arriving window's local
optimum — and relocates only once the accumulated regret exceeds
``hysteresis`` times the relocation cost.  ``hysteresis = 1`` moves
eagerly (LOMCDS-like behaviour with one-window delay); ``hysteresis =
inf`` never moves (SCDS-like, but anchored at the first window's
optimum).  Values near 1-2 give the classic constant-competitive
trade-off.

Placement starts at each datum's window-0 local optimum (an online
scheduler cannot see further), so unconstrained OMCDS always costs at
least GOMCDS and the gap measures the value of lookahead — ablation E.
"""

from __future__ import annotations

import math

import numpy as np

from ..mem import CapacityPlan, OccupancyTracker, first_available
from ..obs import Instrumentation, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _batched_walk
from .schedule import Schedule

__all__ = ["omcds"]


def omcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    hysteresis: float = 2.0,
    *,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Online multiple-center data scheduling with hysteresis.

    Parameters
    ----------
    hysteresis:
        Relocation threshold: a datum moves once its accumulated regret
        reaches ``hysteresis * movement_cost``.  Must be positive;
        ``math.inf`` disables movement entirely.
    """
    if not hysteresis > 0:
        raise ValueError("hysteresis must be positive")
    obs = resolve(instrument)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.omcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        hysteresis=hysteresis,
    ):
        return _omcds_body(
            tensor, model, capacity, hysteresis, obs, n_data, n_windows
        )


def _omcds_body(
    tensor, model, capacity, hysteresis, obs, n_data, n_windows
) -> Schedule:
    with obs.span("omcds.cost_tensor"):
        costs = model.all_placement_costs(tensor)  # (D, W, m)
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(n_data)
    centers = np.empty((n_data, n_windows), dtype=np.int64)

    tracker = None
    order = np.arange(n_data)
    if capacity is not None:
        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=n_windows)
        order = tensor.data_priority_order()

    # Window 0: the only information available is window 0 itself.
    if tracker is None:
        centers[:, 0] = costs[:, 0, :].argmin(axis=1)
    else:  # the one-window GOMCDS capacity walk, on its own window-0 slots
        centers[:, :1], _, _ = _batched_walk(
            costs[:, :1], dist, vols, order,
            tracker=OccupancyTracker(capacity, n_windows=1),
        )

    regret = np.zeros(n_data)
    for w in range(1, n_windows):
        current = centers[:, w - 1]
        stay_cost = costs[np.arange(n_data), w, current]
        best = costs[:, w, :].argmin(axis=1)
        best_cost = costs[np.arange(n_data), w, best]
        regret += stay_cost - best_cost
        if math.isinf(hysteresis):
            wants_move = np.zeros(n_data, dtype=bool)
        else:
            move_price = vols * dist[current, best]
            wants_move = (regret >= hysteresis * move_price) & (best != current)

        if tracker is None:
            next_centers = np.where(wants_move, best, current)
            regret[wants_move] = 0.0
            centers[:, w] = next_centers
            continue

        for d in order:
            available = tracker.available_in_window(w)
            target = int(best[d]) if wants_move[d] else int(current[d])
            if available[target]:
                proc = target
            elif available[int(current[d])]:
                proc = int(current[d])  # can't move where we want: stay
            else:
                proc = first_available(costs[d, w], available)
            if wants_move[d] and proc == best[d]:
                regret[d] = 0.0
            tracker.claim(proc, w)
            centers[d, w] = proc

    return Schedule(
        centers=centers,
        windows=tensor.windows,
        method="OMCDS",
        meta={"hysteresis": hysteresis},
    )
