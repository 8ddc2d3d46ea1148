"""Movement-budgeted GOMCDS (extension).

Run-time data movement is not free in practice: every relocation is an
extra message, a synchronization point, and (per the makespan model) a
serialized phase.  This variant finds the cheapest center path using at
most ``max_moves`` relocations per datum — one extra DP dimension on
Algorithm 2:

    ``f[b, w, k]`` = best cost through window ``w`` ending at center
    ``k`` having moved ``b`` times,

with ``f[b, w, k] = C[w, k] + min(f[b, w-1, k],
min_{j != k} f[b-1, w-1, j] + vol*Dist[j, k])``.  Complexity
``O(W·m²·B)`` per datum.

``max_moves = 0`` reduces to SCDS (per-datum optimal static center);
``max_moves >= W-1`` reduces to GOMCDS.  Sweeping the budget traces the
cost-vs-movement Pareto frontier (ablation K).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _walk_paths
from .schedule import Schedule

__all__ = ["gomcds_budgeted", "movement_frontier"]

_INF = np.inf


def _budgeted_path(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    max_moves: int,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Optimal center path with at most ``max_moves`` relocations."""
    n_windows, n_procs = window_costs.shape
    budget = min(max_moves, n_windows - 1)
    costs = window_costs.astype(np.float64, copy=True)
    if allowed is not None:
        costs[~allowed] = _INF

    # f[b, k]; backpointers store (prev_budget, prev_center).
    f = np.full((budget + 1, n_procs), _INF)
    f[0] = costs[0]
    back = np.zeros((n_windows, budget + 1, n_procs, 2), dtype=np.int64)
    for w in range(1, n_windows):
        new = np.full_like(f, _INF)
        for b in range(budget + 1):
            # stay put
            stay = f[b]
            choice_prev = np.full(n_procs, b)
            choice_center = np.arange(n_procs)
            best = stay.copy()
            if b > 0:
                transition = f[b - 1][:, None] + move_costs  # (from, to)
                np.fill_diagonal(transition, _INF)  # a move must move
                move_best = transition.min(axis=0)
                move_from = transition.argmin(axis=0)
                better = move_best < best
                best = np.where(better, move_best, best)
                choice_prev = np.where(better, b - 1, choice_prev)
                choice_center = np.where(better, move_from, choice_center)
            new[b] = best + costs[w]
            back[w, b, :, 0] = choice_prev
            back[w, b, :, 1] = choice_center
        f = new

    flat = int(np.argmin(f))
    b, k = np.unravel_index(flat, f.shape)
    total = float(f[b, k])
    if not np.isfinite(total):
        raise CapacityError("no feasible center path under the constraints")
    path = np.empty(n_windows, dtype=np.int64)
    b, k = int(b), int(k)
    path[-1] = k
    for w in range(n_windows - 1, 0, -1):
        b, k = (int(x) for x in back[w, b, k])
        path[w - 1] = k
    return path, total


def gomcds_budgeted(
    tensor: ReferenceTensor,
    model: CostModel,
    max_moves: int,
    capacity: CapacityPlan | None = None,
) -> Schedule:
    """Algorithm 2 under a per-datum relocation budget."""
    if max_moves < 0:
        raise ValueError("max_moves must be non-negative")
    n_data = tensor.n_data
    tracker = None
    order = np.arange(n_data)
    if capacity is not None:
        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=tensor.n_windows)
        order = tensor.data_priority_order()

    centers, _, _ = _walk_paths(
        partial(_budgeted_path, max_moves=max_moves),
        model.all_placement_costs(tensor),
        model.distances.astype(np.float64),
        model.volume_vector(n_data),
        order,
        tracker=tracker,
    )
    return Schedule(
        centers=centers,
        windows=tensor.windows,
        method=f"GOMCDS(B={max_moves})",
        meta={"max_moves": max_moves},
    )


def movement_frontier(
    tensor: ReferenceTensor,
    model: CostModel,
    budgets: tuple[int, ...] = (0, 1, 2, 4, 8),
    capacity: CapacityPlan | None = None,
) -> list[dict]:
    """Cost vs movement Pareto sweep over relocation budgets."""
    from .evaluate import evaluate_schedule

    out = []
    for budget in budgets:
        schedule = gomcds_budgeted(tensor, model, budget, capacity)
        breakdown = evaluate_schedule(schedule, tensor, model)
        out.append(
            {
                "budget": budget,
                "total": breakdown.total,
                "reference": breakdown.reference_cost,
                "movement": breakdown.movement_cost,
                "moves": schedule.n_movements(),
            }
        )
    return out
