"""Algorithm 3: execution-window optimization by grouping.

"If merging consecutive execution windows together and putting the data to
the center of the new window can reduce the total communication cost, we
group these execution windows."  Grouping is performed *per datum* — each
datum may see its own partition of the window axis — and the centers of
the (possibly merged) windows are computed by a pluggable method; the
paper's Table 2 uses LOMCDS (``center_method="local"``).

The greedy loop is the paper's verbatim: starting from singleton windows,
try to extend the current group by the next window and keep the extension
whenever the datum's total cost does not increase; otherwise close the
group and start a new one at that window.

As an extension beyond the paper this module also implements the
*DP-optimal* grouping under local (per-group optimal) centers — an
:math:`O(W^2 m)` dynamic program — used by the grouping ablation bench to
quantify how much the greedy heuristic leaves on the table.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker, first_available
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import shortest_center_path
from .schedule import Schedule

__all__ = [
    "greedy_grouping",
    "optimal_grouping",
    "grouped_schedule",
    "partition_cost",
]

CenterMethod = Literal["local", "global"]

Interval = tuple[int, int]
"""A group of consecutive windows ``(first, last)``, inclusive."""


def _group_rows(prefix: np.ndarray, partition: list[Interval]) -> np.ndarray:
    """Merged per-group cost rows from a prefix-summed cost matrix."""
    starts = np.array([g[0] for g in partition])
    ends = np.array([g[1] for g in partition])
    return prefix[ends + 1] - prefix[starts]


def partition_cost(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    partition: list[Interval],
    center_method: CenterMethod = "local",
    prefix: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """COST(T) of Algorithm 3: reference cost at the group centers plus
    the cost of moving the datum between consecutive group centers.

    Returns ``(group_centers, total_cost)``.
    """
    if prefix is None:
        prefix = np.vstack([np.zeros_like(window_costs[:1]), window_costs.cumsum(axis=0)])
    rows = _group_rows(prefix, partition)
    if center_method == "local":
        centers = rows.argmin(axis=1)
        ref = rows[np.arange(len(rows)), centers].sum()
        move = move_costs[centers[:-1], centers[1:]].sum() if len(centers) > 1 else 0.0
        return centers, float(ref + move)
    if center_method == "global":
        centers, total = shortest_center_path(rows, move_costs)
        return centers, total
    raise ValueError(f"unknown center method {center_method!r}")


def greedy_grouping(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    center_method: CenterMethod = "local",
) -> list[Interval]:
    """Paper's Algorithm 3 for one datum.

    ``window_costs`` is the datum's ``(n_windows, n_procs)`` placement-cost
    matrix; ``move_costs`` its relocation-cost matrix.  Returns the final
    partition as inclusive intervals covering ``0..n_windows-1``.
    """
    n_windows = window_costs.shape[0]
    prefix = np.vstack([np.zeros_like(window_costs[:1]), window_costs.cumsum(axis=0)])

    confirmed: list[Interval] = []
    start = 0
    current: list[Interval] = [(w, w) for w in range(n_windows)]
    _, current_cost = partition_cost(
        window_costs, move_costs, current, center_method, prefix
    )
    for j in range(1, n_windows):
        candidate = (
            confirmed
            + [(start, j)]
            + [(w, w) for w in range(j + 1, n_windows)]
        )
        _, candidate_cost = partition_cost(
            window_costs, move_costs, candidate, center_method, prefix
        )
        if candidate_cost <= current_cost:
            current, current_cost = candidate, candidate_cost
        else:
            confirmed.append((start, j - 1))
            start = j
    confirmed.append((start, n_windows - 1))
    return confirmed


def optimal_grouping(
    window_costs: np.ndarray, move_costs: np.ndarray
) -> list[Interval]:
    """DP-optimal partition under local (per-group argmin) centers.

    Extension beyond the paper: among *all* partitions into consecutive
    groups — not just those the greedy loop reaches — find the one with
    minimum total cost, where each group's center is its merged-window
    local optimum.  State ``B[i][c]``: best cost of scheduling windows
    ``0..i-1`` with the last group centered at ``c``.
    """
    n_windows, n_procs = window_costs.shape
    prefix = np.vstack([np.zeros_like(window_costs[:1]), window_costs.cumsum(axis=0)])
    best = np.full((n_windows + 1, n_procs), np.inf)
    # back[i] = (group_start, prev_center) achieving best[i, center].
    back: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n_windows + 1)]

    for i in range(1, n_windows + 1):
        for j in range(i):
            row = prefix[i] - prefix[j]
            center = int(row.argmin())
            group_cost = float(row[center])
            if j == 0:
                total, prev = group_cost, -1
            else:
                arrivals = best[j] + move_costs[:, center]
                prev = int(arrivals.argmin())
                total = float(arrivals[prev]) + group_cost
                if not np.isfinite(total):
                    continue
            if total < best[i, center]:
                best[i, center] = total
                back[i][center] = (j, prev)

    end_center = int(best[n_windows].argmin())
    partition: list[Interval] = []
    i, center = n_windows, end_center
    while i > 0:
        j, prev = back[i][center]
        partition.append((j, i - 1))
        i, center = j, prev
    partition.reverse()
    return partition


def _assign_group_centers(
    rows: np.ndarray,
    move_costs: np.ndarray,
    partition: list[Interval],
    assign_method: CenterMethod,
    available: np.ndarray | None,
) -> np.ndarray:
    """Pick a center per group; given the ``(n_windows, n_procs)``
    ``available`` mask, one free in every window of its group, raising
    :class:`CapacityError` when some group has none."""
    allowed = None
    if available is not None:
        allowed = np.stack([available[a : b + 1].all(axis=0) for a, b in partition])
    if assign_method == "global":
        centers, _ = shortest_center_path(rows, move_costs, allowed=allowed)
        return centers
    if allowed is None:
        return rows.argmin(axis=1)
    return np.array([first_available(r, a) for r, a in zip(rows, allowed)])


def _expand(partition: list[Interval], centers: np.ndarray, n_windows: int) -> np.ndarray:
    """Per-window center vector from per-group centers."""
    out = np.empty(n_windows, dtype=np.int64)
    for (first, last), c in zip(partition, centers):
        out[first : last + 1] = c
    return out


def grouped_schedule(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    center_method: CenterMethod = "local",
    strategy: Literal["greedy", "optimal"] = "greedy",
    assign_method: CenterMethod | None = None,
) -> Schedule:
    """Full data scheduling with per-datum window grouping (Table 2 setup).

    For every datum: run Algorithm 3 (or the DP-optimal variant) on its
    cost matrix, then place the datum at each group's center.  Under a
    memory constraint, data are processed in descending reference-volume
    order and a group's center must have a free slot in *every* window of
    the group (it resides there for the whole group).

    ``center_method`` drives the COST(T) comparisons of the grouping loop
    (the paper's Table 2 uses LOMCDS there, i.e. ``"local"``);
    ``assign_method`` — defaulting to the same — picks the final centers
    on the grouped windows: ``"local"`` per-group optima (LOMCDS on the
    new windows), ``"global"`` the cost-graph shortest path (GOMCDS on
    the new windows).
    """
    n_data, n_windows = tensor.n_data, tensor.n_windows
    assign_method = center_method if assign_method is None else assign_method
    costs = model.all_placement_costs(tensor)  # (D, W, m)
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    partitions: dict[int, list[Interval]] = {}

    tracker = None
    if capacity is not None:
        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=n_windows)

    for d in tensor.data_priority_order():
        move = model.movement_cost_matrix(d)
        if strategy == "greedy":
            partition = greedy_grouping(costs[d], move, center_method)
        elif strategy == "optimal":
            partition = optimal_grouping(costs[d], move)
        else:
            raise ValueError(f"unknown grouping strategy {strategy!r}")
        partitions[int(d)] = partition

        prefix = np.vstack([np.zeros_like(costs[d][:1]), costs[d].cumsum(axis=0)])
        rows = _group_rows(prefix, partition)
        # one datum's groups cover disjoint windows, so their centers are
        # chosen against one availability read and claimed as one path
        available = None if tracker is None else tracker.available_mask()
        try:
            group_centers = _assign_group_centers(
                rows, move, partition, assign_method, available
            )
        except CapacityError:
            # A grouped datum needs one processor free across its whole
            # group; under tight memories none may exist even though every
            # individual window still has slots.  Degrade gracefully: drop
            # this datum's grouping and place it window by window (always
            # feasible — sequential assignment leaves a slot per window).
            partition = [(w, w) for w in range(n_windows)]
            partitions[int(d)] = partition
            group_centers = _assign_group_centers(
                costs[d], move, partition, assign_method, available
            )
        centers[d] = _expand(partition, group_centers, n_windows)
        if tracker is not None:
            tracker.claim_path(centers[d])

    method = f"{'GREEDY' if strategy == 'greedy' else 'OPT'}-GROUP+{assign_method.upper()}"
    return Schedule(
        centers=centers,
        windows=tensor.windows,
        method=method,
        meta={"partitions": partitions, "center_method": center_method},
    )
