"""Simulation reports: what the replay observed on the wire."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.evaluate import CostBreakdown
from ..grid import Link, link_key, parse_link_key
from ..schema import SCHEMA_VERSION, check_schema

__all__ = ["SimReport"]


@dataclass
class SimReport:
    """Aggregated observations of one schedule replay.

    ``reference_cost`` / ``movement_cost`` are hop x volume sums and — in
    a fault-free replay — must equal the analytic
    :class:`~repro.core.CostBreakdown` exactly; link statistics are only
    populated when the replay ran with link tracking.

    Under a :class:`~repro.faults.FaultPlan` every reference lands in
    exactly one outcome bucket — ``n_delivered``, ``n_dropped`` (retry
    budget exhausted by transient losses) or ``n_unreachable`` (failed
    center, dead referencing node, or a partitioned mesh) — and the
    degradation costs (``evacuation_cost``, ``retry_cost``,
    ``retry_wait_cycles``) are tracked separately from the paper's
    fault-free objective.
    """

    reference_cost: float = 0.0
    movement_cost: float = 0.0
    n_fetches: int = 0
    n_local_fetches: int = 0
    n_moves: int = 0
    link_traffic: dict[Link, float] = field(default_factory=dict)
    per_window_cost: np.ndarray | None = None
    #: grid extents of the replayed array (set by the replay driver);
    #: lets link serialization use the paper's ``(r, c)`` coordinates
    topology_shape: tuple[int, ...] | None = None
    # -- fault/degradation accounting (all zero in a fault-free replay) ------
    n_delivered: int = 0
    n_retries: int = 0
    n_dropped: int = 0
    n_unreachable: int = 0
    n_evacuated: int = 0
    n_lost: int = 0
    n_skipped_moves: int = 0
    evacuation_cost: float = 0.0
    retry_cost: float = 0.0
    retry_wait_cycles: float = 0.0

    @property
    def total_cost(self) -> float:
        return self.reference_cost + self.movement_cost

    @property
    def degraded_cost(self) -> float:
        """Total traffic cost including recovery/retry overheads."""
        return self.total_cost + self.evacuation_cost + self.retry_cost

    @property
    def completion_rate(self) -> float:
        """Fraction of references actually delivered (1.0 when fault-free)."""
        if self.n_fetches == 0:
            return 1.0
        return self.n_delivered / self.n_fetches

    def accounts_for_all_fetches(self) -> bool:
        """Every reference is delivered, dropped or unreachable."""
        return (
            self.n_delivered + self.n_dropped + self.n_unreachable
            == self.n_fetches
        )

    @property
    def max_link_load(self) -> float:
        """Heaviest directed link — a congestion indicator the paper's
        hop-count metric ignores (extension)."""
        if not self.link_traffic:
            return 0.0
        return max(self.link_traffic.values())

    @property
    def total_link_traffic(self) -> float:
        return float(sum(self.link_traffic.values()))

    def add_link_traffic(self, links, volume: float) -> None:
        for link in links:
            self.link_traffic[link] = self.link_traffic.get(link, 0.0) + volume

    def link_traffic_by_key(self) -> dict[str, float]:
        """``link_traffic`` keyed by stable ``"r,c->r,c"`` strings.

        JSON objects cannot key on tuples; this is the serialized form
        used by :meth:`to_dict` (and hence the jsonl exporter).  Keys
        sort by source/destination pid, so output is deterministic.
        """
        return {
            link_key(link, self.topology_shape): float(volume)
            for link, volume in sorted(self.link_traffic.items())
        }

    @staticmethod
    def parse_link_traffic(
        serialized: dict[str, float], shape: tuple[int, ...] | None = None
    ) -> dict[Link, float]:
        """Inverse of :meth:`link_traffic_by_key` (jsonl round-trips)."""
        return {
            parse_link_key(key, shape): float(volume)
            for key, volume in serialized.items()
        }

    # -- unified result protocol (shared with CostBreakdown / LintReport) ----

    def to_dict(self) -> dict:
        """Serializable record (``kind`` discriminates result types)."""
        return {
            "kind": "sim_report",
            "schema_version": SCHEMA_VERSION,
            "reference_cost": self.reference_cost,
            "movement_cost": self.movement_cost,
            "total_cost": self.total_cost,
            "degraded_cost": self.degraded_cost,
            "evacuation_cost": self.evacuation_cost,
            "retry_cost": self.retry_cost,
            "retry_wait_cycles": self.retry_wait_cycles,
            "n_fetches": self.n_fetches,
            "n_local_fetches": self.n_local_fetches,
            "n_moves": self.n_moves,
            "n_delivered": self.n_delivered,
            "n_retries": self.n_retries,
            "n_dropped": self.n_dropped,
            "n_unreachable": self.n_unreachable,
            "n_evacuated": self.n_evacuated,
            "n_lost": self.n_lost,
            "n_skipped_moves": self.n_skipped_moves,
            "completion_rate": self.completion_rate,
            "max_link_load": self.max_link_load,
            "total_link_traffic": self.total_link_traffic,
            "link_traffic": self.link_traffic_by_key(),
            "topology_shape": (
                None if self.topology_shape is None else list(self.topology_shape)
            ),
            "per_window_cost": (
                None
                if self.per_window_cost is None
                else [float(c) for c in self.per_window_cost]
            ),
        }

    @staticmethod
    def from_dict(payload: dict) -> "SimReport":
        """Inverse of :meth:`to_dict` (with schema-version checking).

        Derived quantities (``total_cost``, ``completion_rate``, link
        aggregates) are recomputed, not trusted from the payload.
        """
        check_schema(payload, "sim_report")
        shape = payload.get("topology_shape")
        shape = None if shape is None else tuple(int(x) for x in shape)
        per_window = payload.get("per_window_cost")
        return SimReport(
            reference_cost=float(payload["reference_cost"]),
            movement_cost=float(payload["movement_cost"]),
            n_fetches=int(payload["n_fetches"]),
            n_local_fetches=int(payload["n_local_fetches"]),
            n_moves=int(payload["n_moves"]),
            link_traffic=SimReport.parse_link_traffic(
                payload.get("link_traffic", {}), shape
            ),
            per_window_cost=(
                None if per_window is None else np.asarray(per_window, float)
            ),
            topology_shape=shape,
            n_delivered=int(payload["n_delivered"]),
            n_retries=int(payload["n_retries"]),
            n_dropped=int(payload["n_dropped"]),
            n_unreachable=int(payload["n_unreachable"]),
            n_evacuated=int(payload["n_evacuated"]),
            n_lost=int(payload["n_lost"]),
            n_skipped_moves=int(payload["n_skipped_moves"]),
            evacuation_cost=float(payload["evacuation_cost"]),
            retry_cost=float(payload["retry_cost"]),
            retry_wait_cycles=float(payload["retry_wait_cycles"]),
        )

    def summary(self) -> str:
        """One-line human summary, consumed by the observability exporters."""
        line = (
            f"replay: total {self.total_cost:g} (reference "
            f"{self.reference_cost:g} + movement {self.movement_cost:g}), "
            f"{self.n_delivered}/{self.n_fetches} delivered"
        )
        if self.n_dropped or self.n_unreachable or self.n_lost:
            line += (
                f", degraded {self.degraded_cost:g} ({self.n_dropped} dropped, "
                f"{self.n_unreachable} unreachable, {self.n_lost} lost)"
            )
        return line

    def matches(self, analytic: CostBreakdown, tol: float = 1e-9) -> bool:
        """Exact agreement check against the analytic evaluator."""
        return (
            abs(self.reference_cost - analytic.reference_cost) <= tol
            and abs(self.movement_cost - analytic.movement_cost) <= tol
        )
