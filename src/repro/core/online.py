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

from ..mem import CapacityPlan, OccupancyTracker
from ..obs import Instrumentation, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _claim_walk
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
    n_data = tensor.n_data
    with obs.span(
        "scheduler.omcds",
        n_data=n_data,
        n_windows=tensor.n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        hysteresis=hysteresis,
    ):
        with obs.span("omcds.cost_tensor"):
            costs = model.all_placement_costs(tensor)  # (D, W, m)
        order = None
        if capacity is not None:
            capacity.check_feasible(n_data)
            order = tensor.data_priority_order()
        centers = _online_walk(
            costs, model.distances.astype(np.float64),
            model.volume_vector(n_data), order, capacity, hysteresis,
        )
    return Schedule(
        centers=centers,
        windows=tensor.windows,
        method="OMCDS",
        meta={"hysteresis": hysteresis},
    )


def _online_walk(costs, dist, vols, order, capacity, hysteresis):
    """The OMCDS centers, window by window.

    Under ``capacity`` each window is one
    :func:`~repro.core.gomcds._claim_walk` on a one-window tracker, whose
    guess applies the turn's rule to every datum at once: the target if
    it is free, else the current center if it is free, else the first
    free processor on the datum's list.  Availability only shrinks, so a
    guess still free at the datum's turn is the turn's choice ("Exact
    speculative walk" in ``docs/algorithms.md``).  Bit-identical to its
    test reference, :func:`~repro.core.kernels.omcds_walk_python`.
    """
    n_data, n_windows, _ = costs.shape
    rows = np.arange(n_data)
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    regret = np.zeros(n_data)
    for w in range(n_windows):
        best = costs[:, w].argmin(axis=1)
        current = centers[:, w - 1] if w else best  # window 0: its optimum
        regret += costs[rows, w, current] - costs[rows, w, best]
        wants_move = best != current
        if math.isinf(hysteresis):
            wants_move[:] = False
        else:
            wants_move &= regret >= hysteresis * (vols * dist[current, best])
        target = np.where(wants_move, best, current)
        if capacity is not None:
            target = _claim_window(costs[:, w], target, current, order, capacity)
        centers[:, w] = target
        regret[wants_move & (target == best)] = 0.0
    return centers


def _claim_window(costs, target, current, order, capacity):
    """One window's ``(D,)`` centers, claimed in ``order``."""

    def guess(rows, mask):
        rows = slice(None) if rows is None else rows
        free = mask[0]
        wanted, held = target[rows], current[rows]
        listed = np.where(free, costs[rows], np.inf).argmin(axis=1)
        return np.where(
            free[wanted], wanted, np.where(free[held], held, listed)
        )[:, None]

    tracker = OccupancyTracker(capacity, n_windows=1)
    return _claim_walk(tracker, order, guess)[0][:, 0]
