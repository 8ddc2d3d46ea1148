"""The unified scheduling front door: ``repro.schedule``.

Historically every entry point (tables, benches, examples, the CLI)
picked one of four scheduler functions and called it directly.  This
module collapses those call shapes into one facade::

    from repro import schedule
    sched = schedule(tensor, model)                      # GOMCDS
    sched = schedule(tensor, model, algorithm="scds")
    sched = schedule(tensor, model, capacity=cap, certify=True)

Algorithm selection goes through the frozen
:class:`~repro.core.SchedulerSpec` registry, so ``schedule`` accepts
exactly the names ``scheduler_spec`` accepts (case-insensitive).
Algorithm-specific options are validated against the spec's
``supported_kwargs`` before dispatch, so a typo or an unsupported
combination (``certify=True`` on SCDS) fails with the supported list
instead of a bare ``TypeError`` from deep inside a solver.  The old
top-level entry points (``repro.scds``/``lomcds``/``gomcds`` and
``get_scheduler``) were removed; see ``docs/algorithms.md`` for the
migration table.  For many solves at once, use
:func:`repro.schedule_many`.
"""

from __future__ import annotations

from .core import Schedule, SchedulerSpec, scheduler_spec
from .core.cost import CostModel
from .mem import CapacityPlan
from .obs import Instrumentation
from .trace import ReferenceTensor

__all__ = ["schedule", "scheduler_spec", "SchedulerSpec"]


def schedule(
    tensor: ReferenceTensor,
    model: CostModel,
    *,
    algorithm: str | SchedulerSpec = "gomcds",
    capacity: CapacityPlan | None = None,
    certify: bool = False,
    instrument: Instrumentation | None = None,
    **kwargs,
) -> Schedule:
    """Schedule ``tensor`` on ``model``'s array with one algorithm.

    Parameters
    ----------
    tensor:
        Reference tensor ``R[d, w, p]`` built from the application trace.
    model:
        Communication cost model (metric + volumes).
    algorithm:
        Scheduler name (``"scds"``, ``"lomcds"``, ``"gomcds"``,
        ``"omcds"``; case-insensitive) or an explicit
        :class:`~repro.core.SchedulerSpec`.  Defaults to the paper's
        best performer, GOMCDS.
    capacity:
        Optional per-processor memory constraint.
    certify:
        Attach an optimality certificate to the schedule.  Only
        algorithms that can prove their result support this (GOMCDS);
        requesting it elsewhere raises ``TypeError``.
    instrument:
        Optional :class:`~repro.obs.Instrumentation` recording phase
        spans and metrics; ``None`` uses the active (usually no-op)
        handle.
    **kwargs:
        Further algorithm-specific options (e.g. ``hysteresis=1.5`` for
        OMCDS), validated against ``spec.supported_kwargs``.

    Returns
    -------
    The computed :class:`~repro.core.Schedule`.
    """
    spec = (
        algorithm
        if isinstance(algorithm, SchedulerSpec)
        else scheduler_spec(algorithm)
    )
    if certify:
        kwargs["certify"] = True
    unsupported = sorted(set(kwargs) - set(spec.supported_kwargs))
    if unsupported:
        supported = (
            ", ".join(spec.supported_kwargs) or "none beyond the base surface"
        )
        raise TypeError(
            f"{spec.name} does not support option(s) "
            f"{', '.join(unsupported)}; supported: {supported}"
        )
    return spec(tensor, model, capacity, instrument=instrument, **kwargs)
