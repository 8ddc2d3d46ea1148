"""Fault-aware rescheduling: recompute centers around failed processors.

A schedule produced by SCDS/GOMCDS assumes every processor can host data
in every window.  When a :class:`~repro.faults.FaultPlan` takes nodes
down, replaying that schedule degrades (evacuations, skipped moves,
unreachable references).  This pass recomputes the per-window centers
*before* execution, treating a failed processor as infinitely distant in
the windows it is down, so the schedule stays valid and the degradation
shows up as a principled cost increase instead of lost work.

Both reschedulers are the GOMCDS path solve
(:func:`repro.core.gomcds.gomcds`'s own) restricted by a liveness mask
(:func:`repro.faults.alive_window_mask`) with the dead
``(window, processor)`` cells removed; the online-recovery re-plan also
keeps the committed prefix and pins its first window to the rollback
residency.  This module holds only their input validation and that mask.

Link faults are not priced here: they only lengthen routes (detours),
which the replay charges at the surviving-route hop count; the center
choice is driven by the node-failure structure.
"""

from __future__ import annotations

import numpy as np

from ..diagnostics import FLT004
from ..faults import FaultPlan, alive_window_mask
from ..mem import CapacityError, CapacityPlan
from ..obs import Instrumentation, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _solve
from .schedule import Schedule

__all__ = ["reschedule_around_faults", "reschedule_from_window"]


def _alive_from(
    plan: FaultPlan,
    n_windows: int,
    n_procs: int,
    from_window: int,
    obs: Instrumentation,
) -> np.ndarray:
    """Liveness of windows ``from_window ..``: the reschedulers' mask.

    Raises :class:`~repro.mem.CapacityError` with the static FLT004 lint
    rule's code and wording when the plan kills the whole array in one
    of those windows, so no placement can exist.
    """
    with obs.span("reschedule.alive_mask"):
        alive = alive_window_mask(plan, n_windows, n_procs)[from_window:]
    dead_windows = np.nonzero(~alive.any(axis=1))[0]
    if len(dead_windows):
        w_dead = from_window + int(dead_windows[0])
        raise CapacityError(
            f"window {w_dead} has no surviving processor; "
            "the fault plan kills the whole array",
            window=w_dead,
            code=FLT004,
        )
    obs.gauge("reschedule.masked_cells", int((~alive).sum()))
    return alive


def reschedule_around_faults(
    tensor: ReferenceTensor,
    model: CostModel,
    plan: FaultPlan,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """GOMCDS-style scheduling that never places data on a failed node.

    Parameters
    ----------
    tensor:
        Reference tensor ``R[d, w, p]`` of the application.
    model:
        Communication cost model (metric + volumes).
    plan:
        The fault plan the schedule must survive.  Only node failures
        constrain placement; transient drops and link faults are handled
        at replay time.
    capacity:
        Optional memory constraint, enforced jointly with liveness.

    Returns
    -------
    A :class:`Schedule` whose center for datum ``d`` in window ``w`` is
    always a processor alive throughout ``w``.

    Raises
    ------
    CapacityError
        When some window has no admissible (alive, non-full) processor —
        i.e. the surviving array genuinely cannot hold the data.
    """
    plan.validate_for(model.topology, tensor.n_windows)
    obs = resolve(instrument)
    n_windows = tensor.n_windows
    with obs.span(
        "scheduler.reschedule_around_faults",
        n_data=tensor.n_data,
        n_windows=n_windows,
        n_node_faults=len(plan.node_faults),
        constrained=capacity is not None,
    ):
        alive = _alive_from(plan, n_windows, model.n_procs, 0, obs)
        return _solve(
            tensor, model, capacity, obs=obs,
            certify=certify, phase="reschedule", method="GOMCDS+faults",
            meta={"n_node_faults": len(plan.node_faults)}, alive=alive,
        )


def reschedule_from_window(
    schedule: Schedule,
    tensor: ReferenceTensor,
    model: CostModel,
    plan: FaultPlan,
    from_window: int,
    placement: np.ndarray | None = None,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Re-plan only the windows ``from_window ..`` against a degraded array.

    This is the incremental counterpart of :func:`reschedule_around_faults`
    for online recovery: execution has already committed windows
    ``0 .. from_window-1`` of ``schedule``, a fault was discovered, and the
    run rewinds to the boundary of ``from_window``.  The prefix is history
    — it is copied verbatim into the result — while the suffix is re-solved
    with the same shortest-center-path DP, masked by the node failures in
    ``plan``.

    The suffix is *pinned* to the state at the rollback point: the DP's
    first window pays the move cost from ``placement[d]`` (where datum
    ``d`` actually resides after the rollback) to each candidate center,
    so the recomputed plan charges honestly for relocating off its current
    residency.  ``placement`` defaults to the old schedule's centers for
    window ``from_window - 1`` (or its initial placement when rewinding to
    window 0) — pass the simulator's live locations when evacuations have
    moved data off-plan.

    Raises :class:`~repro.mem.CapacityError` (code ``FLT004``) when some
    suffix window has no admissible processor.
    """
    plan.validate_for(model.topology, tensor.n_windows)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    n_procs = model.n_procs
    if not 0 <= from_window < n_windows:
        raise ValueError(
            f"from_window must be in [0, {n_windows}), got {from_window}"
        )
    if schedule.n_data != n_data or schedule.n_windows != n_windows:
        raise ValueError("schedule does not match the tensor's horizon")
    if placement is None:
        placement = (
            schedule.initial_placement()
            if from_window == 0
            else schedule.centers[:, from_window - 1]
        )
    placement = np.asarray(placement, dtype=np.int64)
    if placement.shape != (n_data,):
        raise ValueError(
            f"placement must have shape ({n_data},), got {placement.shape}"
        )
    outside = np.nonzero((placement < 0) | (placement >= n_procs))[0]
    if len(outside):
        d = int(outside[0])
        raise ValueError(
            f"placement of datum {d} is pid {int(placement[d])}, outside "
            f"the {n_procs}-processor array"
        )

    obs = resolve(instrument)
    with obs.span(
        "scheduler.reschedule_from_window",
        from_window=from_window,
        n_suffix=n_windows - from_window,
        n_node_faults=len(plan.node_faults),
        constrained=capacity is not None,
    ):
        alive = _alive_from(plan, n_windows, n_procs, from_window, obs)
        return _solve(
            tensor, model, capacity, obs=obs,
            certify=certify, phase="reschedule", method="GOMCDS+recovery",
            meta={
                "from_window": from_window,
                "n_node_faults": len(plan.node_faults),
                "base_method": schedule.method,
            },
            alive=alive,
            prefix=schedule.centers[:, :from_window],
            pin=placement,
        )
