"""Per-processor memory capacity model.

"To be realistic, we assume each processor in the processor array can
hold a limited number of data" (paper, §3.1).  The paper's experiments
set each processor's memory to *twice* the minimum it would need under a
perfectly balanced distribution — e.g. 8×8 data on a 4×4 array gives a
capacity of eight items per processor.  :func:`CapacityPlan.paper_rule`
reproduces that sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from ..diagnostics import SCH002, code_message, coord_suffix

__all__ = ["CapacityError", "CapacityPlan"]


class CapacityError(RuntimeError):
    """Raised when data cannot be placed without violating capacities.

    Messages carry the stable diagnostic code of the violated invariant
    (``SCH002`` for capacity overflows; see ``docs/lint.md``) plus the
    offending ``(datum, window, processor)`` coordinates where known, so
    a dynamic failure reads exactly like the static lint finding.
    """

    def __init__(
        self,
        message: str,
        datum: int | None = None,
        window: int | None = None,
        processor: int | None = None,
        code: str = SCH002,
    ) -> None:
        super().__init__(
            code_message(code, message) + coord_suffix(datum, window, processor)
        )
        self.code = code
        self.datum = datum
        self.window = window
        self.processor = processor


@dataclass(frozen=True)
class CapacityPlan:
    """Number of data items each processor's local memory can hold."""

    capacities: np.ndarray

    def __post_init__(self) -> None:
        caps = np.asarray(self.capacities, dtype=np.int64)
        object.__setattr__(self, "capacities", caps)
        if caps.ndim != 1 or len(caps) == 0:
            raise ValueError("capacities must be a non-empty 1-D vector")
        if caps.min() < 0:
            raise ValueError("capacities must be non-negative")

    @property
    def n_procs(self) -> int:
        return len(self.capacities)

    @property
    def total(self) -> int:
        return int(self.capacities.sum())

    def check_feasible(self, n_data: int) -> None:
        """Raise :class:`CapacityError` unless ``n_data`` items can fit."""
        if n_data > self.total:
            raise CapacityError(
                f"{n_data} data items cannot fit into total capacity {self.total}"
            )

    @staticmethod
    def uniform(n_procs: int, capacity: int) -> "CapacityPlan":
        """Every processor holds at most ``capacity`` items."""
        if n_procs < 1:
            raise ValueError("n_procs must be positive")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        return CapacityPlan(np.full(n_procs, capacity, dtype=np.int64))

    @staticmethod
    def unbounded(n_procs: int, n_data: int) -> "CapacityPlan":
        """Effectively infinite memory: every processor can hold all data."""
        return CapacityPlan.uniform(n_procs, max(int(n_data), 1))

    @staticmethod
    def paper_rule(n_data: int, n_procs: int, multiplier: float = 2.0) -> "CapacityPlan":
        """The experiments' sizing: ``multiplier``× the balanced minimum.

        The minimum per-processor memory for ``n_data`` items on
        ``n_procs`` processors is ``ceil(n_data / n_procs)``; the paper's
        tables use ``multiplier = 2`` ("the memory size of processor is
        twice more than the minimum memory size it requires").
        """
        if n_data < 1 or n_procs < 1:
            raise ValueError("n_data and n_procs must be positive")
        if not isfinite(multiplier):
            raise ValueError(f"multiplier must be finite, got {multiplier!r}")
        if multiplier < 1.0:
            raise ValueError("multiplier below 1 cannot fit the data at all")
        minimum = ceil(n_data / n_procs)
        return CapacityPlan.uniform(n_procs, int(ceil(minimum * multiplier)))
