"""Replicated data placement (extension beyond the paper).

The paper fixes "one copy of data is allowed in a system".  For
read-dominated data that restriction is the binding constraint: a datum
referenced from two far-apart regions must either sit between them or
commute.  This module relaxes it: each datum may hold up to ``k``
replicas, every reference is served by the *nearest* replica, and each
replica consumes one memory slot.

Choosing replica sites is, per datum, a k-median problem on the mesh with
the merged reference counts as demand.  We use the classic greedy
(marginal-gain) heuristic — optimal for k = 1 (it reduces to SCDS's
center) and (1 - 1/e)-approximate in general — stopping early when an
extra replica saves nothing.

Writes/coherence are out of scope, as this models the paper's
read-oriented reference strings; the ablation bench (EXPERIMENTS.md,
ablation F) quantifies the memory-for-traffic trade-off against SCDS and
GOMCDS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem import CapacityError, CapacityPlan
from ..trace import ReferenceTensor
from .cost import CostModel

__all__ = ["ReplicatedPlacement", "replicated_scds", "greedy_k_median"]


@dataclass(frozen=True)
class ReplicatedPlacement:
    """Static replica sites per datum.

    ``replicas[d]`` is the sorted tuple of pids hosting copies of ``d``
    (at least one, at most ``k``).
    """

    replicas: tuple[tuple[int, ...], ...]
    k: int

    @property
    def n_data(self) -> int:
        return len(self.replicas)

    def total_copies(self) -> int:
        return sum(len(r) for r in self.replicas)

    def occupancy(self, n_procs: int) -> np.ndarray:
        out = np.zeros(n_procs, dtype=np.int64)
        for sites in self.replicas:
            for p in sites:
                out[p] += 1
        return out


def greedy_k_median(
    demand: np.ndarray, dist: np.ndarray, k: int, allowed: np.ndarray | None = None
) -> list[int]:
    """Greedy k-median: pick up to ``k`` sites minimizing
    ``sum_p demand[p] * min_site dist[p, site]``.

    Stops early once no additional site strictly reduces the cost.
    ``allowed`` masks admissible sites (memory availability).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n_procs = len(demand)
    if allowed is None:
        allowed = np.ones(n_procs, dtype=bool)
    if not allowed.any():
        raise CapacityError("no processor can host the first replica")

    # cost of serving all demand from a single site s: demand @ dist[:, s]
    single = demand @ dist
    single = np.where(allowed, single, np.inf)
    sites = [int(single.argmin())]
    nearest = dist[:, sites[0]].astype(np.float64)

    for _ in range(k - 1):
        candidates = np.minimum(dist, nearest[:, None])  # (p, site)
        cand_costs = demand @ candidates
        cand_costs = np.where(allowed, cand_costs, np.inf)
        cand_costs[sites] = np.inf
        best = int(cand_costs.argmin())
        current = float(demand @ nearest)
        if not np.isfinite(cand_costs[best]) or cand_costs[best] >= current:
            break  # no strict improvement (or nowhere to put it)
        sites.append(best)
        nearest = np.minimum(nearest, dist[:, best])
    return sorted(sites)


def replicated_scds(
    tensor: ReferenceTensor,
    model: CostModel,
    k: int,
    capacity: CapacityPlan | None = None,
) -> ReplicatedPlacement:
    """Static placement with up to ``k`` replicas per datum.

    Data are processed in descending reference-volume order; every
    replica claims a memory slot for the whole execution (static
    placement, as in SCDS).
    """
    dist = model.distances.astype(np.float64)
    merged = tensor.counts.sum(axis=1)  # (D, m) demand over all windows
    n_data = tensor.n_data

    free = None  # per-processor free slots
    if capacity is not None:
        capacity.check_feasible(n_data)  # one copy minimum must fit
        free = capacity.capacities.copy()

    replicas: list[tuple[int, ...]] = [()] * n_data
    order = tensor.data_priority_order()
    for rank, d in enumerate(order):
        vol = model.volume(int(d))
        allowed, k_eff = None, k
        if free is not None:
            allowed = free > 0
            # every still-unplaced datum is owed one slot for its first copy
            remaining_after = len(order) - rank - 1
            k_eff = max(1, min(k, int(free.sum()) - remaining_after))
        sites = greedy_k_median(merged[d] * vol, dist, k_eff, allowed)
        if free is not None:
            free[sites] -= 1  # the sites are distinct
        replicas[int(d)] = tuple(sites)
    return ReplicatedPlacement(replicas=tuple(replicas), k=k)


def evaluate_replicated(
    placement: ReplicatedPlacement, tensor: ReferenceTensor, model: CostModel
) -> float:
    """Total reference cost with every reference served by the nearest
    replica (static placement: no movement term)."""
    if placement.n_data != tensor.n_data:
        raise ValueError("placement and tensor disagree on n_data")
    dist = model.distances.astype(np.float64)
    merged = tensor.counts.sum(axis=1)  # (D, m)
    total = 0.0
    for d in range(tensor.n_data):
        sites = list(placement.replicas[d])
        if not sites:
            continue
        nearest = dist[:, sites].min(axis=1)
        total += float(merged[d] @ nearest) * model.volume(d)
    return total
