"""Exact optimal *static* placement under memory constraints (extension).

SCDS processes data greedily in priority order, so under tight memories
it can displace a datum into a poor slot that a different global
assignment would have avoided.  For **static** placement the globally
optimal capacity-respecting solution is computable in polynomial time:
it is an assignment problem.  Expand each processor into ``capacity``
identical slots and solve

    minimize  Σ_d cost(d, slot(d))     s.t. slots distinct

with the Hungarian algorithm (``scipy.optimize.linear_sum_assignment``),
where ``cost(d, p) = Σ_w C_d[w, p]`` is the merged-window placement cost.

This gives (a) a certified optimum to measure SCDS's greedy gap against
(ablation J) and (b) a test oracle: with capacity slack the result must
match unconstrained SCDS exactly.

The *multi-window* problem with movement does not reduce to assignment
(consecutive windows couple through relocation costs).  Its lower bound
comes from :func:`~repro.core.gomcds.priced_gomcds`, a Lagrangian bound
that starts from no prices, so it is never below the unconstrained
GOMCDS cost.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityPlan
from ..trace import ReferenceTensor
from .cost import CostModel
from .schedule import Schedule

__all__ = ["optimal_static_placement", "static_lower_bound"]


def optimal_static_placement(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
) -> Schedule:
    """The provably cheapest single-center-per-datum schedule.

    Without a capacity plan this equals unconstrained SCDS (each datum at
    its merged-window optimum).  With one, the slot-expanded assignment
    problem is solved exactly.
    """
    totals = model.all_placement_costs(tensor).sum(axis=1)  # (D, m)
    n_data = tensor.n_data

    if capacity is None:
        return Schedule.static(
            totals.argmin(axis=1), tensor.windows, method="OPT-STATIC"
        )

    capacity.check_feasible(n_data)
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError as exc:  # pragma: no cover - scipy is a test dep
        raise RuntimeError(
            "optimal_static_placement with a capacity plan requires scipy"
        ) from exc

    slot_owner = np.repeat(
        np.arange(capacity.n_procs), capacity.capacities
    )  # (total_slots,)
    cost_matrix = totals[:, slot_owner]  # (D, total_slots)
    rows, cols = linear_sum_assignment(cost_matrix)
    placement = np.empty(n_data, dtype=np.int64)
    placement[rows] = slot_owner[cols]
    return Schedule.static(placement, tensor.windows, method="OPT-STATIC")


def static_lower_bound(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
) -> float:
    """Cost of the optimal static placement (a bound for static methods).

    Note this does *not* bound multiple-center schedules — movement can
    beat any static placement.  For those, unconstrained GOMCDS is a
    valid lower bound, and under a capacity plan the Lagrangian bound of
    :func:`~repro.core.gomcds.priced_gomcds` is the tighter one: its
    value at zero prices is the unconstrained GOMCDS cost, and the bound
    keeps the best value over its price steps.
    """
    from .evaluate import evaluate_schedule

    schedule = optimal_static_placement(tensor, model, capacity)
    return evaluate_schedule(schedule, tensor, model).total
