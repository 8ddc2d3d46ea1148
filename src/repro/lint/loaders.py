"""Build lint contexts from artifact files or named workloads.

Loading is itself part of linting: a corrupt archive must come back as a
coded diagnostic (exit 2), not a traceback.  ``load_context`` therefore
converts loader exceptions into :class:`~repro.diagnostics.Diagnostic`
records, recovering the code embedded in the error message when the
raising site supplied one (the ``[TRC001]``-style prefixes written by
:mod:`repro.trace.io` and :mod:`repro.faults.plan`).
"""

from __future__ import annotations

import re

from ..diagnostics import FLT001, SCH004, TRC001, Diagnostic, Severity
from ..faults import FaultConfigError, FaultPlan
from ..grid import Topology
from ..mem import CapacityPlan
from ..trace import load_schedule, load_trace
from ..workloads import PaperInstance
from .context import LintContext

__all__ = ["load_context", "workload_context"]

_CODE_RE = re.compile(r"\[([A-Z]{3}\d{3})\]")


def _as_diagnostic(exc: Exception, fallback_code: str) -> Diagnostic:
    """Wrap a loader failure, preferring the code the raiser embedded."""
    text = str(exc)
    match = _CODE_RE.search(text)
    code = match.group(1) if match else fallback_code
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=_CODE_RE.sub("", text).replace("  ", " ").strip(),
    )


def load_context(
    schedule_path=None,
    trace_path=None,
    faults_path=None,
    topology: Topology | None = None,
    capacity: CapacityPlan | None = None,
) -> tuple[LintContext, list[Diagnostic]]:
    """Load artifacts from disk into a context, collecting load failures.

    Returns the (possibly partial) context plus the diagnostics for every
    artifact that failed to load; callers fold the latter into the lint
    report so a truncated archive gates CI exactly like a bad schedule.
    """
    failures: list[Diagnostic] = []
    schedule = trace = windows = faults = None

    if trace_path is not None:
        try:
            trace, windows = load_trace(trace_path)
        except ValueError as exc:
            failures.append(_as_diagnostic(exc, TRC001))
    if schedule_path is not None:
        try:
            schedule = load_schedule(schedule_path)
        except ValueError as exc:
            failures.append(_as_diagnostic(exc, SCH004))
    if faults_path is not None:
        try:
            faults = FaultPlan.load_json(faults_path)
        except (FaultConfigError, OSError) as exc:
            failures.append(_as_diagnostic(exc, FLT001))

    context = LintContext(
        schedule=schedule,
        trace=trace,
        windows=windows,
        topology=topology,
        capacity=capacity,
        faults=faults,
    )
    return context, failures


def workload_context(
    instance: PaperInstance,
    scheduler: str = "GOMCDS",
    faults: FaultPlan | None = None,
) -> LintContext:
    """Schedule a paper instance and wrap it for lint.

    This is the CI gating path: every bundled benchmark scheduled by the
    production scheduler must lint clean.
    """
    return LintContext(
        schedule=instance.solve(scheduler),
        trace=instance.workload.trace,
        windows=instance.workload.windows,
        topology=instance.model.topology,
        capacity=instance.capacity,
        faults=faults,
        model=instance.model,
    )
