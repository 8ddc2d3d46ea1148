"""The paper's contribution: SCDS, LOMCDS, GOMCDS and window grouping.

This package exposes the three data-scheduling algorithms of the paper
(plus the grouping post-pass of its §4) behind a uniform signature::

    schedule = scheduler(
        reference_tensor, cost_model, capacity=None, instrument=None
    )

and an analytic evaluator, :func:`evaluate_schedule`, implementing the
paper's communication-cost objective.  ``scds``/``lomcds``/``gomcds``
here are the plain implementation functions (the same objects as
``SCHEDULER_SPECS[name].func``); the ``repro.schedule`` facade in
:mod:`repro.api` is the front door, and :func:`scheduler_spec` returns
a frozen :class:`SchedulerSpec` carrying each algorithm's metadata.
"""

from .cost import CostModel
from .budget import gomcds_budgeted, movement_frontier
from .evaluate import CostBreakdown, evaluate_schedule, per_datum_costs
from .gomcds import gomcds, shortest_center_path
from .grouping import (
    greedy_grouping,
    grouped_schedule,
    optimal_grouping,
    partition_cost,
)
from .lomcds import lomcds
from .online import omcds
from .optimal import optimal_static_placement, static_lower_bound
from .refine import RefineResult, refine_schedule
from .reschedule import (
    alive_window_mask,
    reschedule_around_faults,
    reschedule_from_window,
)
from .replication import (
    ReplicatedPlacement,
    evaluate_replicated,
    greedy_k_median,
    replicated_scds,
)
from .registry import SCHEDULER_SPECS, SchedulerSpec, scheduler_spec
from .kernels import KERNELS, resolve_kernel
from .scds import scds
from .schedule import Schedule

__all__ = [
    "CostModel",
    "Schedule",
    "CostBreakdown",
    "evaluate_schedule",
    "per_datum_costs",
    "scds",
    "lomcds",
    "gomcds",
    "gomcds_budgeted",
    "movement_frontier",
    "shortest_center_path",
    "greedy_grouping",
    "optimal_grouping",
    "grouped_schedule",
    "partition_cost",
    "omcds",
    "optimal_static_placement",
    "static_lower_bound",
    "RefineResult",
    "refine_schedule",
    "reschedule_around_faults",
    "reschedule_from_window",
    "alive_window_mask",
    "ReplicatedPlacement",
    "replicated_scds",
    "evaluate_replicated",
    "greedy_k_median",
    "scheduler_spec",
    "SchedulerSpec",
    "SCHEDULER_SPECS",
    "KERNELS",
    "resolve_kernel",
]
