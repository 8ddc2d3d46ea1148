"""Fault-aware rescheduling: recompute centers around failed processors.

A schedule produced by SCDS/GOMCDS assumes every processor can host data
in every window.  When a :class:`~repro.faults.FaultPlan` takes nodes
down, replaying that schedule degrades (evacuations, skipped moves,
unreachable references).  This pass recomputes the per-window centers
*before* execution, treating a failed processor as infinitely distant in
the windows it is down — exactly the paper's cost-graph shortest path
(:func:`~repro.core.gomcds.shortest_center_path`) with the dead
``(window, processor)`` cells masked out — so the schedule stays valid
and the degradation shows up as a principled cost increase instead of
lost work.

Link faults are not priced here: they only lengthen routes (detours),
which the replay charges at the surviving-route hop count; the center
choice is driven by the node-failure structure.
"""

from __future__ import annotations

import numpy as np

from ..diagnostics import FLT004
from ..faults import FaultPlan
from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _certificate, _path_walk
from .kernels import placement_cost_tensor, resolve_kernel
from .schedule import Schedule

__all__ = [
    "reschedule_around_faults",
    "reschedule_from_window",
    "alive_window_mask",
]


def alive_window_mask(
    plan: FaultPlan, n_windows: int, n_procs: int
) -> np.ndarray:
    """Boolean ``(n_windows, n_procs)``: True where a processor survives."""
    alive = np.ones((n_windows, n_procs), dtype=bool)
    for w in range(n_windows):
        down = list(plan.down_nodes(w))
        if down:
            alive[w, down] = False
    return alive


def reschedule_around_faults(
    tensor: ReferenceTensor,
    model: CostModel,
    plan: FaultPlan,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
    kernel: str | None = None,
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
    kernel:
        ``"numpy"`` (default, the batched speculative walk) or
        ``"python"`` (the scalar per-datum oracle); bit-identical.

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
    kernel = resolve_kernel(kernel)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    n_procs = model.n_procs
    with obs.span(
        "scheduler.reschedule_around_faults",
        n_data=n_data,
        n_windows=n_windows,
        n_node_faults=len(plan.node_faults),
        constrained=capacity is not None,
    ):
        with obs.span("reschedule.alive_mask"):
            alive = alive_window_mask(plan, n_windows, n_procs)
        dead_windows = np.nonzero(~alive.any(axis=1))[0]
        if len(dead_windows):
            # Same code and wording as the static FLT004 lint rule: the plan
            # kills the whole array, so no placement can exist.
            raise CapacityError(
                f"window {int(dead_windows[0])} has no surviving processor; "
                "the fault plan kills the whole array",
                window=int(dead_windows[0]),
                code=FLT004,
            )
        obs.gauge(
            "reschedule.masked_cells", int((~alive).sum())
        )

        with obs.span("reschedule.cost_tensor"):
            costs = placement_cost_tensor(tensor, model, kernel)  # (D, W, m)

        tracker = None
        if capacity is not None:
            capacity.check_feasible(n_data)
            tracker = OccupancyTracker(capacity, n_windows=n_windows)

        record = obs.provenance.recording
        with obs.span("reschedule.capacity_walk"):
            centers, potentials, masks = _path_walk(kernel, obs)(
                costs, model.distances.astype(np.float64),
                model.volume_vector(n_data), tensor.data_priority_order(),
                base=alive, tracker=tracker, certify=certify,
                record_masks=certify or record,
            )
        meta = {"n_node_faults": len(plan.node_faults)}
        if certify:
            meta["certificate"] = _certificate(potentials, masks)
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="GOMCDS+faults", kernel=kernel, masks=masks,
                meta={"n_node_faults": len(plan.node_faults)},
            )
        return Schedule(
            centers=centers,
            windows=tensor.windows,
            method="GOMCDS+faults",
            meta=meta,
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
    kernel: str | None = None,
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

    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_suffix = n_windows - from_window
    with obs.span(
        "scheduler.reschedule_from_window",
        from_window=from_window,
        n_suffix=n_suffix,
        n_node_faults=len(plan.node_faults),
        constrained=capacity is not None,
    ):
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

        dist = model.distances.astype(np.float64)
        vols = model.volume_vector(n_data)
        with obs.span("reschedule.cost_tensor"):
            full_costs = placement_cost_tensor(tensor, model, kernel)
            costs = full_costs[:, from_window:, :].copy()
            # pin the suffix to the rollback residency: entering window
            # ``from_window`` at center c costs the move from where the
            # datum actually sits right now
            costs[:, 0] += vols[:, None] * dist[placement]

        tracker = None
        if capacity is not None:
            capacity.check_feasible(n_data)
            tracker = OccupancyTracker(capacity, n_windows=n_suffix)

        record = obs.provenance.recording
        with obs.span("reschedule.capacity_walk"):
            suffix, potentials, masks = _path_walk(kernel, obs)(
                costs, dist, vols, tensor.data_priority_order(), base=alive,
                tracker=tracker, certify=certify,
                record_masks=certify or record,
            )
        centers = schedule.centers.copy()
        centers[:, from_window:] = suffix
        meta = {
            "from_window": from_window,
            "n_node_faults": len(plan.node_faults),
            "base_method": schedule.method,
        }
        if certify:
            meta["certificate"] = _certificate(
                potentials, masks, from_window=from_window, placement=placement
            )
        if record:
            # provenance covers the full horizon (prefix decisions are
            # history, admissible everywhere), so attribution reconstructs
            # the produced schedule's CostBreakdown, prefix included
            prov_masks = np.ones((n_data, n_windows, n_procs), dtype=bool)
            prov_masks[:, from_window:] = masks
            record_decisions(
                obs, costs=full_costs, centers=centers, model=model,
                method="GOMCDS+recovery", kernel=kernel, masks=prov_masks,
                meta={
                    "from_window": from_window,
                    "n_node_faults": len(plan.node_faults),
                    "base_method": schedule.method,
                },
            )
        return Schedule(
            centers=centers,
            windows=tensor.windows,
            method="GOMCDS+recovery",
            meta=meta,
        )
