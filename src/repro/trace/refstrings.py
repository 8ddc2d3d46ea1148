"""Reference tensors: the processor reference strings of Definition 1.

Every scheduler in the paper consumes, for each datum *D* and execution
window *w*, the multiset of processors that reference *D* in *w* — i.e.
the processor reference string.  Since the cost model is order-free inside
a window, a count vector over processors is a lossless representation:

    ``R[d, w, p]`` = number of references by processor ``p`` to datum
    ``d`` within window ``w``.

The tensor is built from a :class:`~repro.trace.events.Trace` with one
``np.add.at`` scatter and is the only program-side input of
``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import Trace
from .windows import WindowSet

__all__ = ["ReferenceTensor", "build_reference_tensor"]


@dataclass(frozen=True)
class ReferenceTensor:
    """Dense per-datum, per-window processor reference counts.

    Attributes
    ----------
    counts:
        ``(n_data, n_windows, n_procs)`` int64 array, made read-only in
        place (not copied) so cost tensors built from it stay valid.
    windows:
        The :class:`WindowSet` the window axis refers to.
    """

    counts: np.ndarray
    windows: WindowSet

    def __post_init__(self) -> None:
        if self.counts.ndim != 3:
            raise ValueError("reference tensor must be (n_data, n_windows, n_procs)")
        if self.counts.shape[1] != self.windows.n_windows:
            raise ValueError("window axis does not match the WindowSet")
        if len(self.counts) and self.counts.min() < 0:
            raise ValueError("reference counts must be non-negative")
        self.counts.flags.writeable = False

    @property
    def n_data(self) -> int:
        return self.counts.shape[0]

    @property
    def n_windows(self) -> int:
        return self.counts.shape[1]

    @property
    def n_procs(self) -> int:
        return self.counts.shape[2]

    def for_data(self, d: int) -> np.ndarray:
        """``(n_windows, n_procs)`` count matrix of datum ``d`` (view)."""
        return self.counts[d]

    def total_references(self, d: int | None = None) -> int:
        """Total reference count, overall or for one datum."""
        if d is None:
            return int(self.counts.sum())
        return int(self.counts[d].sum())

    def data_priority_order(self) -> np.ndarray:
        """Datum ids sorted by descending total reference volume.

        Used for capacity-constrained assignment: the heaviest data claim
        their optimal processors first (ties break toward lower ids).
        """
        totals = self.counts.sum(axis=(1, 2))
        return np.argsort(-totals, kind="stable")

    def referenced_data(self) -> np.ndarray:
        """Datum ids that are referenced at least once."""
        return np.nonzero(self.counts.sum(axis=(1, 2)) > 0)[0]

    def processor_reference_string(self, d: int, w: int) -> np.ndarray:
        """Definition 1 as an explicit multiset: pids repeated by count.

        Order inside a window is not semantically meaningful for the cost
        model; pids are returned ascending.
        """
        row = self.counts[d, w]
        return np.repeat(np.arange(self.n_procs), row)

    def regroup(self, new_windows: WindowSet) -> "ReferenceTensor":
        """Re-aggregate counts onto a coarser/finer WindowSet.

        ``new_windows`` must partition the same step horizon; counts of the
        old windows are summed into the new window containing their start
        step.  Only valid when every old window lies inside one new window
        (i.e. ``new_windows`` is a coarsening), which is checked.
        """
        if new_windows.n_steps != self.windows.n_steps:
            raise ValueError("window sets span different step horizons")
        old_bounds = [self.windows.bounds(w) for w in range(self.n_windows)]
        assignment = new_windows.assign(self.windows.starts)
        for (lo, hi), g in zip(old_bounds, assignment):
            glo, ghi = new_windows.bounds(int(g))
            if lo < glo or hi > ghi:
                raise ValueError("new windows must coarsen the old windows")
        out = np.zeros(
            (self.n_data, new_windows.n_windows, self.n_procs), dtype=np.int64
        )
        np.add.at(out, (slice(None), assignment), self.counts)
        return ReferenceTensor(counts=out, windows=new_windows)


def build_reference_tensor(trace: Trace, windows: WindowSet) -> ReferenceTensor:
    """Scatter a trace into the ``R[d, w, p]`` tensor for ``windows``."""
    if windows.n_steps != trace.n_steps:
        raise ValueError("window set does not span the trace's steps")
    counts = np.zeros(
        (trace.n_data, windows.n_windows, trace.n_procs), dtype=np.int64
    )
    if len(trace):
        w = windows.assign(trace.steps)
        np.add.at(counts, (trace.data, w, trace.procs), trace.counts)
    return ReferenceTensor(counts=counts, windows=windows)
