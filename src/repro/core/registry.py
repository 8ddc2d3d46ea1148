"""Scheduler registry: frozen specs behind uniformly-shaped callables.

Each scheduling algorithm is a plain function with its own keyword
surface (``omcds`` takes ``hysteresis``, ``scds`` does not).
:class:`SchedulerSpec` fixes the call shape once and carries the
metadata that drives tables, CLIs and the observability layer:

    spec(tensor, model, capacity=None, *, instrument=None, **kwargs)

:func:`scheduler_spec` looks a spec up by name; :func:`repro.schedule`
and :func:`repro.schedule_many` dispatch through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs import Instrumentation
from .gomcds import gomcds
from .lomcds import lomcds
from .online import omcds
from .scds import scds
from .schedule import Schedule

__all__ = [
    "SchedulerSpec",
    "SCHEDULER_SPECS",
    "scheduler_spec",
]


@dataclass(frozen=True)
class SchedulerSpec:
    """Immutable description of one scheduling algorithm.

    Attributes
    ----------
    name:
        Canonical (upper-case, paper) name, e.g. ``"GOMCDS"``.
    func:
        The underlying algorithm; must accept
        ``(tensor, model, capacity=None, *, instrument=None)`` plus any
        algorithm-specific keywords.
    multi_center:
        Whether the schedule may move data between windows.
    movement_aware:
        Whether relocation cost participates in the center choice.
    online:
        Whether the algorithm sees windows one at a time (no lookahead).
    description:
        One-line summary for tables and ``repro profile`` output.
    supported_kwargs:
        Algorithm-specific keywords beyond the uniform
        ``(tensor, model, capacity, instrument)`` surface.  The
        :func:`repro.schedule` facade validates against this so a typo'd
        or unsupported option fails with the supported list instead of a
        bare ``TypeError`` from deep inside the solver.
    """

    name: str
    func: Callable[..., Schedule]
    multi_center: bool
    movement_aware: bool
    online: bool
    description: str
    supported_kwargs: tuple[str, ...] = field(default=())

    def __call__(
        self,
        tensor,
        model,
        capacity=None,
        *,
        instrument: Instrumentation | None = None,
        **kwargs,
    ) -> Schedule:
        return self.func(
            tensor, model, capacity=capacity, instrument=instrument, **kwargs
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "multi_center": self.multi_center,
            "movement_aware": self.movement_aware,
            "online": self.online,
            "description": self.description,
            "supported_kwargs": list(self.supported_kwargs),
        }


SCHEDULER_SPECS: dict[str, SchedulerSpec] = {
    spec.name: spec
    for spec in (
        SchedulerSpec(
            name="SCDS",
            func=scds,
            multi_center=False,
            movement_aware=False,
            online=False,
            description="single static center per datum (Algorithm 1)",
            supported_kwargs=("kernel",),
        ),
        SchedulerSpec(
            name="LOMCDS",
            func=lomcds,
            multi_center=True,
            movement_aware=False,
            online=False,
            description="per-window local-optimal centers (§3.2.1)",
            supported_kwargs=("kernel",),
        ),
        SchedulerSpec(
            name="GOMCDS",
            func=gomcds,
            multi_center=True,
            movement_aware=True,
            online=False,
            description="cost-graph shortest-path centers (Algorithm 2)",
            supported_kwargs=("certify", "kernel"),
        ),
        SchedulerSpec(
            name="OMCDS",
            func=omcds,
            multi_center=True,
            movement_aware=True,
            online=True,
            description="online hysteresis scheduling (extension)",
            supported_kwargs=("hysteresis",),
        ),
    )
}


def scheduler_spec(name: str) -> SchedulerSpec:
    """Look up a :class:`SchedulerSpec` by name (case-insensitive)."""
    try:
        return SCHEDULER_SPECS[name.upper()]
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_SPECS))
        raise KeyError(f"unknown scheduler {name!r}; known: {known}") from None

