"""Per-window occupancy tracking: the paper's "processor list" mechanism.

When the center chosen for a datum is already full, Algorithm 1 walks the
datum's processor list — all processors sorted by ascending cost — and
takes the *first available* one.  For multiple-center schedules the same
rule applies per window, and a datum placed in window ``w`` consumes one
slot of its center for the duration of that window.

:class:`OccupancyTracker` maintains the ``(n_windows, n_procs)`` slot
counts and answers availability queries for single windows, window ranges
(grouped windows) and all windows at once (static placement).
"""

from __future__ import annotations

import numpy as np

from .capacity import CapacityError, CapacityPlan

__all__ = ["OccupancyTracker", "first_available"]


class OccupancyTracker:
    """Mutable per-window slot accounting against a :class:`CapacityPlan`."""

    def __init__(self, plan: CapacityPlan, n_windows: int) -> None:
        if n_windows < 1:
            raise ValueError("n_windows must be positive")
        self.plan = plan
        self.n_windows = n_windows
        self._occupancy = np.zeros((n_windows, plan.n_procs), dtype=np.int64)
        self._rows = np.arange(n_windows)

    @property
    def n_procs(self) -> int:
        return self.plan.n_procs

    @property
    def occupancy(self) -> np.ndarray:
        """Read-only view of the current ``(n_windows, n_procs)`` counts."""
        view = self._occupancy.view()
        view.setflags(write=False)
        return view

    def snapshot(self) -> np.ndarray:
        """Copy of the current occupancy, for transactional assignment."""
        return self._occupancy.copy()

    def restore(self, state: np.ndarray) -> None:
        """Roll occupancy back to a previously taken :meth:`snapshot`."""
        if state.shape != self._occupancy.shape:
            raise ValueError("snapshot shape does not match this tracker")
        self._occupancy = state.copy()

    def available_in_window(self, w: int) -> np.ndarray:
        """Boolean mask of processors with a free slot in window ``w``."""
        return self._occupancy[w] < self.plan.capacities

    def available_in_range(self, first: int, last: int) -> np.ndarray:
        """Processors with a free slot in *every* window of ``first..last``
        (inclusive) — the availability rule for a grouped window."""
        if not 0 <= first <= last < self.n_windows:
            raise ValueError(f"bad window range [{first}, {last}]")
        occ = self._occupancy[first : last + 1]
        return (occ < self.plan.capacities[None, :]).all(axis=0)

    def available_everywhere(self) -> np.ndarray:
        """Processors free in all windows (for static placement)."""
        return self.available_in_range(0, self.n_windows - 1)

    def available_mask(self) -> np.ndarray:
        """Full ``(n_windows, n_procs)`` availability mask."""
        return self._occupancy < self.plan.capacities[None, :]

    def claim(self, proc: int, first: int, last: int | None = None) -> None:
        """Consume one slot at ``proc`` for windows ``first..last``.

        Raises :class:`CapacityError` if any window is already full.
        """
        last = first if last is None else last
        if not 0 <= first <= last < self.n_windows:
            raise ValueError(f"bad window range [{first}, {last}]")
        if not self.available_in_range(first, last)[proc]:
            raise CapacityError(
                f"processor {proc} has no free slot in windows {first}..{last}",
                window=first,
                processor=proc,
            )
        self._occupancy[first : last + 1, proc] += 1

    def claim_path(self, centers: np.ndarray) -> None:
        """Consume one slot per window along a per-window center path.

        Only the path's ``n_windows`` cells are checked; on a full cell
        nothing is claimed and :class:`CapacityError` names the first
        full ``(window, processor)``.
        """
        centers = np.asarray(centers)
        if centers.shape != (self.n_windows,):
            raise ValueError("path must assign one center per window")
        rows = self._rows
        full = self._occupancy[rows, centers] >= self.plan.capacities[centers]
        if full.any():
            bad = int(full.argmax())
            raise CapacityError(
                f"processor {int(centers[bad])} full in window {bad}",
                window=bad,
                processor=int(centers[bad]),
            )
        self._occupancy[rows, centers] += 1  # one cell per row: no repeats


def first_available(cost_row: np.ndarray, available: np.ndarray) -> int:
    """The paper's processor-list scan.

    Sort processors by ascending cost (stable: ties break toward the
    lowest pid, keeping every scheduler deterministic) and return the
    first with a free slot.
    """
    ranked = np.argsort(cost_row, kind="stable")
    free = available[ranked]
    if not free.any():
        raise CapacityError("no processor has a free slot for this datum")
    return int(ranked[np.argmax(free)])
