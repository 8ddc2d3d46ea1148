"""The PIM array machine: memories, residency and relocation.

A thin but strict state machine: every datum lives in exactly one
processor's local memory ("one copy of data is allowed in a system"),
relocations must name the datum's true current location, and — when a
capacity plan is installed — no memory may ever hold more items than its
capacity.  The replay driver (:mod:`repro.sim.replay`) uses this to catch
schedules that a buggy allocator would let through.
"""

from __future__ import annotations

import numpy as np

from ..diagnostics import SCH001, code_message, coord_suffix
from ..grid import Topology
from ..mem import CapacityError, CapacityPlan

__all__ = ["PIMArray", "ResidencyError"]


class ResidencyError(RuntimeError):
    """A relocation named a datum that is not where the caller claimed.

    Raised when :meth:`PIMArray.relocate` is asked to move a datum from a
    stale source location, or when any relocation is attempted before the
    machine has data loaded.  Carries the datum and both locations so the
    caller can report precisely what diverged; the message carries the
    stable residency code (``SCH001``, see ``docs/lint.md``) and the
    ``(datum, window, processor)`` coordinates, matching the static lint
    rule's output.
    """

    def __init__(
        self,
        message: str,
        datum: int | None = None,
        claimed: int | None = None,
        actual: int | None = None,
        window: int | None = None,
    ) -> None:
        super().__init__(
            code_message(SCH001, message)
            + coord_suffix(datum, window, actual if actual is not None else claimed)
        )
        self.code = SCH001
        self.datum = datum
        self.claimed = claimed
        self.actual = actual
        self.window = window


class PIMArray:
    """Processor array with per-node local memories holding data items."""

    def __init__(self, topology: Topology, capacity: CapacityPlan | None = None):
        if capacity is not None and capacity.n_procs != topology.n_procs:
            raise ValueError("capacity plan does not match the topology")
        self.topology = topology
        self.capacity = capacity
        self._location: np.ndarray | None = None
        self._load: np.ndarray = np.zeros(topology.n_procs, dtype=np.int64)

    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    def load_initial(self, placement: np.ndarray) -> None:
        """Install the pre-execution data distribution (cost-free)."""
        placement = np.asarray(placement, dtype=np.int64)
        if placement.ndim != 1:
            raise ValueError("placement must be a per-datum pid vector")
        if len(placement) and (placement.min() < 0 or placement.max() >= self.n_procs):
            raise ValueError("placement names processors outside the array")
        load = np.zeros(self.n_procs, dtype=np.int64)
        np.add.at(load, placement, 1)
        self._check_load(load)
        self._location = placement.copy()
        self._load = load

    def location_of(self, datum: int) -> int:
        """Current home of ``datum``."""
        if self._location is None:
            raise RuntimeError("machine has no data loaded")
        return int(self._location[datum])

    def locations(self) -> np.ndarray:
        """Copy of the full per-datum location vector."""
        if self._location is None:
            raise RuntimeError("machine has no data loaded")
        return self._location.copy()

    def memory_load(self) -> np.ndarray:
        """Items currently resident per processor."""
        return self._load.copy()

    def residents(self, pid: int) -> np.ndarray:
        """Ascending datum ids currently stored at processor ``pid``."""
        if self._location is None:
            raise RuntimeError("machine has no data loaded")
        self.topology._check_pid(pid)
        return np.nonzero(self._location == pid)[0]

    def headroom(self) -> np.ndarray | None:
        """Free slots per processor, or ``None`` when memory is unbounded."""
        if self.capacity is None:
            return None
        return self.capacity.capacities - self._load

    def relocate_batch(self, data_ids: np.ndarray, dsts: np.ndarray) -> None:
        """Relocate many data atomically (a window-boundary movement phase).

        All departures happen before all arrivals, so capacity is checked
        against the *post-phase* load: two data swapping homes is legal
        even when both memories are full, matching the paper's model where
        the movement phase completes before the window executes.
        """
        if self._location is None:
            raise ResidencyError(
                "cannot relocate on an unloaded machine: call load_initial first"
            )
        data_ids = np.asarray(data_ids, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if data_ids.shape != dsts.shape or data_ids.ndim != 1:
            raise ValueError("data_ids and dsts must be parallel 1-D arrays")
        if len(np.unique(data_ids)) != len(data_ids):
            raise ValueError("a datum may move at most once per phase")
        new_load = self._load.copy()
        np.subtract.at(new_load, self._location[data_ids], 1)
        np.add.at(new_load, dsts, 1)
        self._check_load(new_load)
        self._location[data_ids] = dsts
        self._load = new_load

    def relocate(self, datum: int, src: int, dst: int) -> None:
        """Move ``datum`` from ``src`` to ``dst``, enforcing consistency."""
        if self._location is None:
            raise ResidencyError(
                f"cannot relocate datum {datum} ({src} -> {dst}) on an "
                "unloaded machine: call load_initial first",
                datum=datum,
                claimed=src,
            )
        if self._location[datum] != src:
            actual = int(self._location[datum])
            raise ResidencyError(
                f"stale source for datum {datum}: it resides at {actual}, "
                f"not {src} (requested move {src} -> {dst})",
                datum=datum,
                claimed=src,
                actual=actual,
            )
        if src == dst:
            return
        new_load = self._load.copy()
        new_load[src] -= 1
        new_load[dst] += 1
        self._check_load(new_load)
        self._location[datum] = dst
        self._load = new_load

    def _check_load(self, load: np.ndarray) -> None:
        if self.capacity is None:
            return
        over = load > self.capacity.capacities
        if over.any():
            pid = int(np.nonzero(over)[0][0])
            raise CapacityError(
                f"memory of processor {pid} over capacity: "
                f"{int(load[pid])} > {int(self.capacity.capacities[pid])}",
                processor=pid,
            )
