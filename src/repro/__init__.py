"""repro — reproduction of *Optimizing Data Scheduling on
Processor-In-Memory Arrays* (Tian, Sha, Chantrapornchai, Kogge; IPPS 1998).

The package implements the paper's three data-scheduling algorithms —
SCDS, LOMCDS and GOMCDS — plus the execution-window grouping of its
Algorithm 3, on top of a complete PIM-array substrate: mesh topologies
with x-y routing, access-event traces and execution windows, bounded
per-processor memories, the paper's five benchmark workloads, a hop-level
replay simulator, and the full evaluation harness for its tables and
figure.

Quickstart::

    from repro import evaluate_schedule
    from repro.workloads import paper_instance

    inst = paper_instance(1, 16)  # LU, 16x16 data, 4x4 array, 2x memory
    sched = inst.solve("GOMCDS")
    print(evaluate_schedule(sched, inst.tensor, inst.model).total)

``paper_instance`` builds the paper's evaluation instance (workload,
reference tensor, ``CostModel``, ``CapacityPlan``) once, and the entry
points for named workloads take it whole, e.g.
``repro.verify.certify_workload(inst)`` or
``repro.analysis.fault_sweep(inst)``.  For any other instance pass
those pieces to ``schedule``, the uniform front door.
``schedule_many`` is the batched one (``docs/performance.md``), and
``scheduler_spec`` gives each algorithm's metadata; the plain
implementation functions live in :mod:`repro.core`.  The
``instrument=`` keyword of every solver hooks in the observability
layer (``docs/observability.md``).
"""

from .core import (
    CostBreakdown,
    CostModel,
    Schedule,
    SchedulerSpec,
    evaluate_schedule,
    grouped_schedule,
    reschedule_around_faults,
    reschedule_from_window,
    scheduler_spec,
)
from .api import schedule
from .engine import ScheduleRequest, SolveCache, schedule_many, solve_key
from .distrib import baseline_schedule
from .obs import Instrumentation, instrumented
from .analysis import run_chaos_campaign
from .faults import (
    FaultConfigError,
    FaultDetector,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NodeFault,
    RecoveryController,
    RecoveryError,
    RecoveryPolicy,
    RecoveryReport,
    RetryPolicy,
    replay_with_recovery,
)
from .diagnostics import Diagnostic, Severity
from .grid import FaultAwareRouter, Mesh1D, Mesh2D, Torus2D, XYRouter
from .lint import LintContext, LintReport, run_lint
from .mem import CapacityError, CapacityPlan
from .sim import (
    PIMArray,
    ReplayCursor,
    ResidencyError,
    SimReport,
    replay_schedule,
)
from .trace import (
    ReferenceTensor,
    Trace,
    TraceBuilder,
    WindowSet,
    build_reference_tensor,
    windows_by_step_count,
)
from .workloads import (
    WorkloadInstance,
    benchmark,
    code_workload,
    lu_workload,
    matmul_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machine
    "Mesh1D",
    "Mesh2D",
    "Torus2D",
    "XYRouter",
    # traces
    "Trace",
    "TraceBuilder",
    "WindowSet",
    "windows_by_step_count",
    "ReferenceTensor",
    "build_reference_tensor",
    # memory
    "CapacityPlan",
    "CapacityError",
    # core algorithms
    "CostModel",
    "Schedule",
    "CostBreakdown",
    "grouped_schedule",
    "evaluate_schedule",
    # unified scheduling API (docs/algorithms.md)
    "schedule",
    "scheduler_spec",
    "SchedulerSpec",
    # batch engine (docs/performance.md)
    "schedule_many",
    "ScheduleRequest",
    "SolveCache",
    "solve_key",
    # observability (docs/observability.md)
    "Instrumentation",
    "instrumented",
    # workloads & baselines
    "WorkloadInstance",
    "lu_workload",
    "matmul_workload",
    "code_workload",
    "benchmark",
    "baseline_schedule",
    # simulator
    "PIMArray",
    "replay_schedule",
    "SimReport",
    "ResidencyError",
    # faults & recovery
    "FaultPlan",
    "NodeFault",
    "LinkFault",
    "FaultConfigError",
    "FaultInjector",
    "RetryPolicy",
    "FaultAwareRouter",
    "reschedule_around_faults",
    # online recovery & chaos campaign (docs/fault-model.md)
    "FaultDetector",
    "RecoveryPolicy",
    "RecoveryError",
    "RecoveryController",
    "RecoveryReport",
    "ReplayCursor",
    "replay_with_recovery",
    "reschedule_from_window",
    "run_chaos_campaign",
    # static verifier (docs/lint.md)
    "Diagnostic",
    "Severity",
    "LintContext",
    "LintReport",
    "run_lint",
]
