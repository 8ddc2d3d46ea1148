"""The certify engine: run all three pillars and gate on the result.

``certify_schedule`` is the library entry point behind ``repro
certify``: it abstract-interprets the schedule, checks the attached
optimality certificate, replays for ground truth and reports every
coded finding in one :class:`CertifyReport`.  ``certify_workload``
wraps it for the named paper benchmarks (the CI gating path), emitting
certificates from the production scheduler so the proof chain covers
exactly what ships.

Exit-code contract (one step stricter than lint's 0/1/2):

* ``0`` — clean: interpreted, certified, and replay agrees;
* ``1`` — warnings only (hotspots over budget, dead movement, theory
  cross-check findings);
* ``2`` — static errors: the schedule itself is broken (capacity
  overflow, unreachable placements);
* ``3`` — divergence: a certificate failed to verify or the static and
  dynamic views disagree — the *toolchain* is suspect, which is worse
  than a bad schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import (
    DIVERGENCE_CODES,
    VER005,
    Diagnostic,
    Severity,
    severity_exit_code,
)
from ..faults import FaultPlan, RetryPolicy
from ..mem import CapacityPlan
from ..obs import Instrumentation, resolve
from ..schema import SCHEMA_VERSION, check_schema
from ..trace import ReferenceTensor, Trace, build_reference_tensor
from ..workloads import PaperInstance
from .abstract import interpret_schedule
from .certificate import certificate_of, check_certificate
from .differential import run_differential

__all__ = [
    "CertifyReport",
    "certify_schedule",
    "certify_workload",
    "EXIT_CERT_CLEAN",
    "EXIT_CERT_WARNINGS",
    "EXIT_CERT_ERRORS",
    "EXIT_CERT_DIVERGENCE",
]

EXIT_CERT_CLEAN = 0
EXIT_CERT_WARNINGS = 1
EXIT_CERT_ERRORS = 2
EXIT_CERT_DIVERGENCE = 3


@dataclass
class CertifyReport:
    """Everything one certification run established (or refuted)."""

    label: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    certified_data: int = 0

    @property
    def n_errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity == Severity.WARNING
        )

    @property
    def n_infos(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.INFO)

    @property
    def diverged(self) -> bool:
        """A certificate or the static/dynamic comparison failed."""
        return any(
            d.severity == Severity.ERROR and d.code in DIVERGENCE_CODES
            for d in self.diagnostics
        )

    @property
    def exit_code(self) -> int:
        """0 clean, 1 warnings only, 2 static errors, 3 divergence."""
        if self.diverged:
            return EXIT_CERT_DIVERGENCE
        return severity_exit_code(self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "kind": "certify-report",
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "checks": list(self.checks),
            "certified_data": self.certified_data,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "n_errors": self.n_errors,
            "n_warnings": self.n_warnings,
            "n_infos": self.n_infos,
            "diverged": self.diverged,
            "exit_code": self.exit_code,
            "facts": self.facts,
        }

    @staticmethod
    def from_dict(payload: dict) -> "CertifyReport":
        """Inverse of :meth:`to_dict` (with schema-version checking).

        Severity counts, divergence and the exit code are recomputed
        from the diagnostics, not trusted from the payload.
        """
        check_schema(payload, "certify-report")
        return CertifyReport(
            label=str(payload["label"]),
            diagnostics=[
                Diagnostic.from_dict(d) for d in payload.get("diagnostics", [])
            ],
            checks=[str(c) for c in payload.get("checks", [])],
            facts=dict(payload.get("facts", {})),
            certified_data=int(payload.get("certified_data", 0)),
        )

    def summary(self) -> str:
        verdict = {
            EXIT_CERT_CLEAN: "certified",
            EXIT_CERT_WARNINGS: "certified with warnings",
            EXIT_CERT_ERRORS: "rejected (static errors)",
            EXIT_CERT_DIVERGENCE: "rejected (divergence)",
        }[self.exit_code]
        return (
            f"certify {self.label}: {verdict} — {self.n_errors} error(s), "
            f"{self.n_warnings} warning(s) over {len(self.checks)} check(s)"
        )


def certify_schedule(
    schedule,
    trace: Trace,
    model,
    *,
    tensor: ReferenceTensor | None = None,
    capacity: CapacityPlan | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    link_budget: float | None = None,
    hotspot_factor: float | None = None,
    require_certificate: bool = False,
    differential: bool = True,
    check_theory: bool = True,
    label: str | None = None,
    instrument: Instrumentation | None = None,
) -> CertifyReport:
    """Run abstract interpretation, certificate checking and the
    differential gate over one schedule; see the module docstring for
    the exit-code contract.

    ``tensor`` is derived from ``trace`` + the schedule's windows when
    not supplied; a supplied one that does not fit the schedule or the
    model raises ``ValueError``.  ``differential=False`` skips the replay (purely
    static certification, e.g. when only the proofs are wanted).
    """
    obs = resolve(instrument)
    windows = schedule.windows
    if windows.n_steps != trace.n_steps:
        raise ValueError("schedule windows do not span the trace")
    if trace.n_data != schedule.n_data:
        raise ValueError("schedule and trace disagree on n_data")
    if tensor is None:
        tensor = build_reference_tensor(trace, windows)

    report = CertifyReport(
        label=label or f"{schedule.method} ({schedule.n_data} data, "
        f"{schedule.n_windows} windows)"
    )
    with obs.span(
        "verify.certify",
        n_data=schedule.n_data,
        n_windows=schedule.n_windows,
        faulted=faults is not None and not faults.is_empty,
    ):
        with obs.span("verify.abstract"):
            prediction, diags = interpret_schedule(
                schedule,
                tensor,
                model,
                trace=trace,
                capacity=capacity,
                faults=faults,
                retry=retry,
                link_budget=link_budget,
                hotspot_factor=hotspot_factor,
            )
        report.checks.append("abstract-interpretation")
        report.diagnostics.extend(diags)
        if prediction is not None:
            report.facts["static"] = prediction.to_dict()

        with obs.span("verify.certificates"):
            cert_diags = check_certificate(
                schedule,
                tensor,
                model,
                faults,
                require=require_certificate,
                check_theory=check_theory,
            )
        report.checks.append("certificates")
        report.diagnostics.extend(cert_diags)
        cert = certificate_of(schedule)
        if cert is not None and not any(
            d.severity == Severity.ERROR for d in cert_diags
        ):
            report.certified_data = schedule.n_data
        elif cert is None and not require_certificate:
            report.diagnostics.append(
                Diagnostic(
                    code=VER005,
                    severity=Severity.INFO,
                    message=(
                        "no optimality certificate attached; capacity, "
                        "reachability and the differential gate still "
                        "hold, but optimality is unproven"
                    ),
                    hint="schedule with gomcds(..., certify=True)",
                )
            )

        if differential and prediction is not None:
            with obs.span("verify.differential"):
                diff_diags, facts = run_differential(
                    schedule, trace, tensor, model, prediction,
                    capacity, faults, retry,
                )
            report.checks.append("differential")
            report.diagnostics.extend(diff_diags)
            report.facts.update(facts)
        obs.count("verify.diagnostics", len(report.diagnostics))
    return report


def certify_workload(
    instance: PaperInstance,
    scheduler: str = "GOMCDS",
    faults: FaultPlan | None = None,
    *,
    instrument: Instrumentation | None = None,
    **kwargs,
) -> CertifyReport:
    """Certify a paper instance end to end (the CI gating path).

    Schedules ``instance`` with the requested algorithm — emitting an
    optimality certificate when the scheduler supports one (GOMCDS, and
    the fault-aware rescheduler when ``faults`` is given) — then runs
    the full pillar stack.
    """
    schedule = instance.solve(
        scheduler,
        faults=None if faults is None or faults.is_empty else faults,
        certify=True,
        instrument=instrument,
    )
    return certify_schedule(
        schedule,
        instance.workload.trace,
        instance.model,
        tensor=instance.tensor,
        capacity=instance.capacity,
        faults=faults,
        label=f"bench {instance.bench} (size {instance.size}, {schedule.method})",
        instrument=instrument,
        **kwargs,
    )
