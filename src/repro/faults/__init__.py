"""Fault injection and graceful degradation for the PIM array.

The paper's machine model is fault-free; a production-scale array is
not.  This package describes failures (:class:`FaultPlan`), binds them to
a machine (:class:`FaultInjector`), sets the retry/timeout semantics of
degraded fetches (:class:`RetryPolicy`) and plans the evacuation of a
dead node's residents (:func:`plan_evacuation`).  The replay simulator
(:func:`repro.sim.replay_schedule`) and the fault-aware rescheduling pass
(:func:`repro.core.reschedule_around_faults`) consume these primitives;
``docs/fault-model.md`` documents the failure taxonomy end to end.
"""

from .injector import FaultInjector, RetryPolicy, alive_window_mask
from .online import (
    RECOVERY_MODES,
    FaultDetector,
    RecoveryController,
    RecoveryError,
    RecoveryEvent,
    RecoveryPolicy,
    RecoveryReport,
    replay_with_recovery,
)
from .plan import FaultConfigError, FaultPlan, LinkFault, NodeFault
from .recovery import Relocation, plan_evacuation

__all__ = [
    "FaultPlan",
    "NodeFault",
    "LinkFault",
    "FaultConfigError",
    "FaultInjector",
    "RetryPolicy",
    "alive_window_mask",
    "Relocation",
    "plan_evacuation",
    "RECOVERY_MODES",
    "FaultDetector",
    "RecoveryPolicy",
    "RecoveryError",
    "RecoveryEvent",
    "RecoveryReport",
    "RecoveryController",
    "replay_with_recovery",
]
