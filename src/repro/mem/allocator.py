"""Per-window occupancy tracking: the paper's "processor list" mechanism.

When the center chosen for a datum is already full, Algorithm 1 walks the
datum's processor list — all processors sorted by ascending cost — and
takes the *first available* one.  For multiple-center schedules the same
rule applies per window, and a datum placed in window ``w`` consumes one
slot of its center for the duration of that window.

:class:`OccupancyTracker` maintains the ``(n_windows, n_procs)`` slot
counts.  A datum takes its slots as a whole path, one center per window
(:meth:`~OccupancyTracker.claim_path`), and a walk claims many data's
paths in priority order at once (:meth:`~OccupancyTracker.claim_paths`);
:meth:`~OccupancyTracker.available_mask` is the one availability query.
A static placement is a one-window tracker, and a grouped datum claims
its per-window expansion.
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

    def available_mask(self) -> np.ndarray:
        """Full ``(n_windows, n_procs)`` availability mask."""
        return self._occupancy < self.plan.capacities[None, :]

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

    def claim_paths(
        self,
        paths: np.ndarray,
        base: np.ndarray | None = None,
        masks: np.ndarray | None = None,
    ) -> int:
        """Claim the longest prefix of ``paths`` whose rows fit at their turn.

        Row ``i`` of the ``(k, n_windows)`` paths fits when each of its
        cells is admissible in ``base`` (when given) and still has a free
        slot after rows ``0..i-1`` claimed theirs: its rank among the
        earlier rows on the same ``(window, processor)`` cell is below the
        cell's free slots.  So the first row that does not fit holds the
        ``(free + 1)``-th use of some cell, the earliest such use in a
        stable sort of the cells; it and every row after it are left
        unclaimed.  The search covers a prefix of the rows that doubles
        until it holds that row, so a conflict near the top costs little.
        ``masks``, a ``(k, n_windows, n_procs)`` boolean output, receives
        each claimed row's turn mask, ``base & available_mask()`` before
        its claim.

        Returns the number of rows claimed.  The claims equal a loop of
        :meth:`claim_path` that stops at the first full cell.
        """
        paths = np.asarray(paths)
        n_rows, n_windows = len(paths), self.n_windows
        if paths.shape[1:] != (n_windows,):
            raise ValueError("each path must assign one center per window")
        free = self.plan.capacities[None, :] - self._occupancy
        if base is not None:
            free = np.where(base, free, 0)
        free = free.ravel()
        # the narrowest cell type: numpy's stable sort is a radix sort
        # on 8- and 16-bit integers
        cell_type = np.min_scalar_type(free.size)
        offsets = (self._rows * self.n_procs).astype(cell_type)

        def nth_use(cells, users, picked, nth):
            """Row of each picked cell's ``nth`` use (0-based), row order."""
            by_cell = np.argsort(cells, kind="stable")
            first_use = np.cumsum(users) - users
            return by_cell[first_use[picked] + nth] // n_windows

        size = 64
        while True:
            cells = (paths[:size].astype(cell_type) + offsets).ravel()
            users = np.bincount(cells, minlength=free.size)
            over = np.flatnonzero(users > free)
            if len(over):
                n_claimed = int(nth_use(cells, users, over, free[over]).min())
                break
            if size >= n_rows:
                n_claimed = n_rows
                break
            size *= 2
        claimed = cells[: n_claimed * n_windows]
        users = np.bincount(claimed, minlength=free.size)
        if masks is not None:
            # a cell its last free slot went to at row f is full from f + 1
            fill = np.full(free.size, n_rows)
            filled = np.flatnonzero((users == free) & (free > 0))
            fill[filled] = nth_use(claimed, users, filled, free[filled] - 1)
            shape = self._occupancy.shape
            np.greater_equal(
                fill.reshape(shape),
                np.arange(n_claimed)[:, None, None],
                out=masks[:n_claimed],
            )
            masks[:n_claimed] &= free.reshape(shape) > 0
        self._occupancy += users.reshape(self._occupancy.shape)
        return n_claimed


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
