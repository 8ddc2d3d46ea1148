"""Schedules: the output of every data-scheduling algorithm.

A schedule assigns each datum a *center* (Definition 3) per execution
window.  Single-center scheduling (SCDS) is the special case where every
row is constant; multiple-center scheduling moves data between windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diagnostics import SCH001, code_message
from ..trace import WindowSet

__all__ = ["Schedule"]


@dataclass(frozen=True)
class Schedule:
    """Per-datum, per-window center assignment.

    Attributes
    ----------
    centers:
        ``(n_data, n_windows)`` int64 array; ``centers[d, w]`` is the pid
        storing datum ``d`` throughout window ``w``.
    windows:
        The :class:`WindowSet` the window axis refers to.
    method:
        Human-readable name of the producing algorithm (for reports).
    meta:
        Free-form diagnostics attached by the producing scheduler.
    """

    centers: np.ndarray
    windows: WindowSet
    method: str = "unspecified"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.int64)
        object.__setattr__(self, "centers", centers)
        if centers.ndim != 2:
            raise ValueError("centers must be (n_data, n_windows)")
        if centers.shape[1] != self.windows.n_windows:
            raise ValueError("center matrix does not match the window set")
        if centers.size and centers.min() < 0:
            raise ValueError("centers must be valid processor ids")

    @property
    def n_data(self) -> int:
        return self.centers.shape[0]

    @property
    def n_windows(self) -> int:
        return self.centers.shape[1]

    def center_of(self, d: int, w: int) -> int:
        """Center (storing processor) of datum ``d`` in window ``w``."""
        return int(self.centers[d, w])

    def initial_placement(self) -> np.ndarray:
        """``(n_data,)`` pids of the pre-execution data distribution."""
        return self.centers[:, 0].copy()

    def movements(self) -> list[tuple[int, int, int, int]]:
        """All relocations as ``(datum, window_boundary, src, dst)``.

        ``window_boundary`` is the index of the window the datum moves
        *into* (movement happens between windows ``w-1`` and ``w``).
        The rows of :meth:`movement_array`, in its order.
        """
        return [tuple(row) for row in self.movement_array().tolist()]

    def movement_array(self) -> np.ndarray:
        """:meth:`movements` as an ``(n, 4)`` int64 array, datum-major."""
        centers = self.centers
        data, before = np.nonzero(centers[:, 1:] != centers[:, :-1])
        return np.stack(
            [data, before + 1, centers[data, before],
             centers[data, before + 1]],
            axis=1,
        ).astype(np.int64, copy=False)

    def n_movements(self) -> int:
        """Total number of datum relocations across all boundaries."""
        if self.n_windows < 2:
            return 0
        return int((self.centers[:, 1:] != self.centers[:, :-1]).sum())

    def is_static(self) -> bool:
        """True when no datum ever moves (single-center schedule)."""
        return self.n_movements() == 0

    def occupancy(self, n_procs: int) -> np.ndarray:
        """``(n_windows, n_procs)`` data-item residency counts per window.

        Counts every datum in every window, so schedules with movements
        are accounted per-window (a datum moving between windows ``w`` and
        ``w+1`` occupies its old center in ``w`` and its new one in
        ``w+1``).  Raises :class:`ValueError` carrying the ``SCH001``
        residency code when any center names a processor outside
        ``0..n_procs-1`` instead of surfacing a bare ``IndexError``.
        """
        if n_procs < 1:
            raise ValueError("n_procs must be positive")
        if self.centers.size and int(self.centers.max()) >= n_procs:
            d, w = (
                int(x)
                for x in np.unravel_index(
                    int(self.centers.argmax()), self.centers.shape
                )
            )
            raise ValueError(
                code_message(
                    SCH001,
                    f"center {int(self.centers[d, w])} of datum {d} in "
                    f"window {w} is outside the {n_procs}-processor array",
                )
            )
        offsets = np.arange(self.n_windows, dtype=np.int64) * n_procs
        counts = np.bincount(
            (self.centers + offsets[None, :]).ravel(),
            minlength=self.n_windows * n_procs,
        )
        return counts.reshape(self.n_windows, n_procs)

    def restricted_to(self, data_ids: np.ndarray) -> "Schedule":
        """Schedule for a subset of data (rows re-indexed in given order).

        ``data_ids`` is either a 1-D vector of datum ids (each in
        ``0..n_data-1``, no duplicates) or a boolean mask of length
        ``n_data``.  Invalid selections raise :class:`ValueError` instead
        of silently wrapping around via negative indexing.
        """
        ids = np.asarray(data_ids)
        if ids.dtype == np.bool_:
            if ids.shape != (self.n_data,):
                raise ValueError(
                    f"boolean mask has shape {ids.shape}, expected "
                    f"({self.n_data},)"
                )
            ids = np.nonzero(ids)[0]
        else:
            ids = ids.astype(np.int64)
            if ids.ndim != 1:
                raise ValueError(
                    "data_ids must be a 1-D id vector or boolean mask"
                )
            if len(ids) and (ids.min() < 0 or ids.max() >= self.n_data):
                bad = int(ids[(ids < 0) | (ids >= self.n_data)][0])
                raise ValueError(
                    f"datum id {bad} is outside 0..{self.n_data - 1}"
                )
            if len(np.unique(ids)) != len(ids):
                raise ValueError("data_ids must not contain duplicates")
        meta = dict(self.meta)
        cert = meta.get("certificate")
        if isinstance(cert, dict):
            # keep per-datum certificate rows aligned with the new axis
            cert = dict(cert)
            for key in ("potentials", "totals", "masks", "placement"):
                value = cert.get(key)
                if value is not None:
                    cert[key] = np.asarray(value)[ids]
            meta["certificate"] = cert
        return Schedule(
            centers=self.centers[ids],
            windows=self.windows,
            method=self.method,
            meta=meta,
        )

    @staticmethod
    def static(placement: np.ndarray, windows: WindowSet, method: str = "static") -> "Schedule":
        """Broadcast a per-datum placement to every window."""
        placement = np.asarray(placement, dtype=np.int64)
        if placement.ndim != 1:
            raise ValueError("placement must be a 1-D pid vector")
        centers = np.repeat(placement[:, None], windows.n_windows, axis=1)
        return Schedule(centers=centers, windows=windows, method=method)
