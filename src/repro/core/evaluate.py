"""Analytic evaluation of a schedule's total communication cost.

Implements the paper's objective exactly: the sum over all references of
``dist(referencing processor, center) * volume`` plus, for multi-center
schedules, the relocation cost ``dist(old center, new center) * volume``
at each window boundary where a datum moves.  The initial distribution is
performed before execution begins and is free, as in the paper.

The replay simulator in :mod:`repro.sim` recomputes the same quantity by
routing every reference hop-by-hop; tests assert both agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..schema import SCHEMA_VERSION, check_schema
from ..trace import ReferenceTensor
from .cost import CostModel
from .schedule import Schedule

__all__ = [
    "CostBreakdown",
    "evaluate_schedule",
    "per_datum_costs",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Total communication cost split into its two components."""

    reference_cost: float
    movement_cost: float

    @property
    def total(self) -> float:
        return self.reference_cost + self.movement_cost

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.reference_cost + other.reference_cost,
            self.movement_cost + other.movement_cost,
        )

    # -- unified result protocol (shared with SimReport / LintReport) -------

    def to_dict(self) -> dict:
        """Serializable record (``kind`` discriminates result types)."""
        return {
            "kind": "cost_breakdown",
            "schema_version": SCHEMA_VERSION,
            "reference_cost": self.reference_cost,
            "movement_cost": self.movement_cost,
            "total": self.total,
        }

    @staticmethod
    def from_dict(payload: dict) -> "CostBreakdown":
        """Inverse of :meth:`to_dict` (with schema-version checking)."""
        check_schema(payload, "cost_breakdown")
        return CostBreakdown(
            reference_cost=float(payload["reference_cost"]),
            movement_cost=float(payload["movement_cost"]),
        )

    def summary(self) -> str:
        """One-line human summary, consumed by the observability exporters."""
        return (
            f"cost: total {self.total:g} = reference {self.reference_cost:g} "
            f"+ movement {self.movement_cost:g}"
        )


def _check_compatible(schedule: Schedule, tensor: ReferenceTensor, model: CostModel) -> None:
    """Raise ``ValueError`` naming the first shape mismatch between a
    schedule, its reference tensor and the cost model."""
    if schedule.n_data != tensor.n_data:
        raise ValueError("schedule and reference tensor disagree on n_data")
    if schedule.n_windows != tensor.n_windows:
        raise ValueError("schedule and reference tensor disagree on windows")
    if tensor.n_procs != model.n_procs:
        raise ValueError("reference tensor does not match the cost model's array")


def per_datum_costs(
    schedule: Schedule, tensor: ReferenceTensor, model: CostModel
) -> tuple[np.ndarray, np.ndarray]:
    """Per-datum ``(reference_cost, movement_cost)`` vectors.

    Vectorized over data and windows: reference cost gathers, for every
    ``(d, w)``, the column of the cost tensor selected by the schedule;
    movement cost sums metric distances between consecutive centers.
    """
    _check_compatible(schedule, tensor, model)
    if schedule.centers.size and schedule.centers.max() >= model.n_procs:
        raise ValueError("schedule places data outside the processor array")
    n_data, n_windows = schedule.n_data, schedule.n_windows
    if n_data == 0:
        return np.zeros(0), np.zeros(0)
    cost_tensor = model.all_placement_costs(tensor)
    d_idx = np.arange(n_data)[:, None]
    w_idx = np.arange(n_windows)[None, :]
    ref = cost_tensor[d_idx, w_idx, schedule.centers].sum(axis=1)
    if n_windows > 1:
        dist = model.distances
        hops = dist[schedule.centers[:, :-1], schedule.centers[:, 1:]].sum(axis=1)
        vols = model.volume_vector(n_data)
        move = hops * vols
    else:
        move = np.zeros(n_data)
    return ref.astype(np.float64), move.astype(np.float64)


def evaluate_schedule(
    schedule: Schedule, tensor: ReferenceTensor, model: CostModel
) -> CostBreakdown:
    """Total communication cost of ``schedule`` on ``tensor``."""
    ref, move = per_datum_costs(schedule, tensor, model)
    return CostBreakdown(float(ref.sum()), float(move.sum()))
