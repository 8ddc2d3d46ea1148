"""Binding a :class:`FaultPlan` to a machine: per-window fault views.

A :class:`FaultInjector` composes a plan with a concrete topology and
window horizon and answers the queries the replay/network simulators ask
in their hot loops — which nodes are down *this* window, which nodes
*just* died (triggering evacuation), and a fault-aware router for the
window's structural-fault epoch.  Routers are cached process-wide per
``(topology, dead nodes, dead links)`` epoch, so a plan whose faults
never change costs one router for the whole replay, and the replays
and interpretations of one epoch share its routes.

:class:`RetryPolicy` holds the timeout/retry semantics of degraded
fetches: an attempt to reach a failed center times out after ``deadline``
cycles and is retried with exponential backoff up to ``max_retries``
times before the reference is abandoned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..grid import FaultAwareRouter, Topology
from .plan import FaultConfigError, FaultPlan

__all__ = ["RetryPolicy", "FaultInjector", "alive_window_mask"]

#: fault epochs whose routers stay live process-wide.  A constant, not a
#: knob: one injector used at most 4 epochs in the measured runs (chaos
#: campaign, seed 7), so 8 holds one call's epochs and its predecessor's.
#: A fully routed 16x16 epoch holds about 68 MiB.
_EPOCH_ROUTERS = 8


@lru_cache(maxsize=_EPOCH_ROUTERS)
def _epoch_router(
    topology: Topology, dead_nodes: frozenset[int], dead_links: frozenset
) -> FaultAwareRouter:
    return FaultAwareRouter(topology, dead_nodes=dead_nodes, dead_links=dead_links)


def alive_window_mask(
    plan: FaultPlan, n_windows: int, n_procs: int
) -> np.ndarray:
    """Boolean ``(n_windows, n_procs)``: True where a processor survives."""
    return _alive(plan, range(n_windows), n_procs)


def _alive(plan: FaultPlan, windows, n_procs: int) -> np.ndarray:
    """Liveness of every processor, one row per window in ``windows``."""
    alive = np.ones((len(windows), n_procs), dtype=bool)
    for row, w in zip(alive, windows):
        row[list(plan.down_nodes(w))] = False
    return alive


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry semantics for fetches in a degraded array.

    Attributes
    ----------
    deadline:
        Cycles a fetch attempt waits before it is declared timed out.
    max_retries:
        Re-attempts after the first try (so a reference is attempted at
        most ``max_retries + 1`` times).
    backoff:
        Exponential backoff base: attempt ``a`` waits
        ``deadline * backoff**a`` cycles before giving up.
    """

    deadline: int = 8
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline < 1:
            raise FaultConfigError("retry deadline must be at least one cycle")
        if self.max_retries < 0:
            raise FaultConfigError("max_retries must be non-negative")
        if self.backoff < 1.0:
            raise FaultConfigError("backoff base must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def wait_cycles(self, attempt: int) -> float:
        """Cycles spent before abandoning attempt ``attempt`` (0-based)."""
        return float(self.deadline) * self.backoff**attempt

    def total_timeout_cycles(self) -> float:
        """Cycles burned when every attempt of a reference times out."""
        return sum(self.wait_cycles(a) for a in range(self.max_attempts))


class FaultInjector:
    """Per-window view of a fault plan over a concrete machine."""

    def __init__(
        self,
        plan: FaultPlan,
        topology: Topology,
        n_windows: int | None = None,
    ) -> None:
        plan.validate_for(topology, n_windows)
        self.plan = plan
        self.topology = topology
        self.n_windows = n_windows

    # -- structural state ------------------------------------------------------

    def down_nodes(self, window: int) -> frozenset[int]:
        return self.plan.down_nodes(window)

    def down_links(self, window: int):
        return self.plan.down_links(window)

    def newly_down(self, window: int) -> frozenset[int]:
        """Nodes down in ``window`` that were alive in the previous one.

        For window 0 this is every node down from the start — their
        residents must be evacuated before execution begins.
        """
        down = self.plan.down_nodes(window)
        if window == 0:
            return down
        return down - self.plan.down_nodes(window - 1)

    def alive_mask(self, window: int) -> np.ndarray:
        """Boolean ``(n_procs,)`` mask of surviving processors."""
        return _alive(self.plan, (window,), self.topology.n_procs)[0]

    def router(self, window: int) -> FaultAwareRouter:
        """Fault-aware router for the window's structural-fault epoch."""
        down, links = self.plan.fault_epoch(window)
        return _epoch_router(self.topology, down, links)

    def recovery_router(self, window: int, source: int) -> FaultAwareRouter:
        """Router for evacuation traffic *originating at a dead node*.

        A failed processor's memory stays addressable through its mesh
        port during recovery, so evacuation routes treat the source as
        alive while every other fault stays in force.
        """
        down, links = self.plan.fault_epoch(window)
        return _epoch_router(self.topology, down - {source}, links)

    # -- transient drops -------------------------------------------------------

    def drops(self, window: int, event: int, attempt: int) -> bool:
        return self.plan.drops_message(window, event, attempt)
