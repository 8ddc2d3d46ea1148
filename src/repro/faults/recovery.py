"""Data evacuation: relocating a failed node's residents.

When a processor dies, every datum resident in its local memory must be
moved to a surviving node or its references become unreachable.  The
policy here is the natural one for the paper's cost model: each victim
datum goes to its *scheduled* center for the upcoming window when that
center is alive and has a free slot, and otherwise to the nearest
surviving node (by metric distance from the failed node, ties toward the
lowest pid) with capacity headroom.

The planner is a pure function over explicit state so the capacity
invariant — an evacuation never overfills any surviving memory — can be
property-tested in isolation from the replay driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem import CapacityError, first_available

__all__ = ["Relocation", "plan_evacuation"]


@dataclass(frozen=True)
class Relocation:
    """One recovery move: ``datum`` from ``src`` (dead) to ``dst`` (alive)."""

    datum: int
    src: int
    dst: int


def plan_evacuation(
    locations: np.ndarray,
    load: np.ndarray,
    capacities: np.ndarray | None,
    failed: frozenset[int] | set[int],
    alive: np.ndarray,
    distances: np.ndarray,
    preferred: np.ndarray | None = None,
) -> tuple[list[Relocation], list[int]]:
    """Plan the evacuation of every datum resident on a failed node.

    Parameters
    ----------
    locations:
        ``(n_data,)`` current per-datum pid vector.
    load:
        ``(n_procs,)`` current per-node resident counts.
    capacities:
        ``(n_procs,)`` memory capacities, or ``None`` for unbounded.
    failed:
        Pids of the nodes whose residents must leave.
    alive:
        ``(n_procs,)`` boolean mask of surviving processors.
    distances:
        ``(n_procs, n_procs)`` metric used to pick the nearest refuge.
    preferred:
        Optional ``(n_data,)`` pid vector of scheduled centers for the
        upcoming window; a victim is sent there first when possible.

    Returns
    -------
    ``(moves, lost)`` — the relocations to perform, in ascending datum
    order, and the data ids stranded because no surviving node has a free
    slot.  Applying ``moves`` never exceeds any capacity.
    """
    locations = np.asarray(locations)
    headroom = (
        np.full(len(load), np.iinfo(np.int64).max, dtype=np.int64)
        if capacities is None
        else np.asarray(capacities, dtype=np.int64) - np.asarray(load)
    )
    alive = np.asarray(alive, dtype=bool)
    moves: list[Relocation] = []
    lost: list[int] = []
    failed = set(int(p) for p in failed)
    if not failed:
        return moves, lost

    victims = [d for d in range(len(locations)) if int(locations[d]) in failed]
    for d in victims:
        src = int(locations[d])
        dst = None
        if preferred is not None:
            target = int(preferred[d])
            if alive[target] and headroom[target] > 0:
                dst = target
        if dst is None:
            # nearest surviving node with a free slot; ties -> lowest pid
            try:
                dst = first_available(distances[src], alive & (headroom > 0))
            except CapacityError:
                lost.append(d)
                continue
        headroom[dst] -= 1
        moves.append(Relocation(datum=d, src=src, dst=dst))
    return moves, lost
