"""The lint engine: run registered rules over a context, gate on severity.

``run_lint`` executes every applicable rule (per-rule enable/disable via
``select``/``ignore``, severity overrides via ``severities``) and folds
the findings into a :class:`LintReport` whose ``exit_code`` implements
the CLI contract: 0 clean, 1 warnings only, 2 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..diagnostics import Diagnostic, Severity, severity_exit_code
from ..obs import Instrumentation, resolve
from ..schema import SCHEMA_VERSION, check_schema
from .context import LintContext
from .registry import RULES, resolve_codes

# Importing the rule modules populates the registry.
from . import schedule_rules  # noqa: F401
from . import trace_rules  # noqa: F401
from . import fault_rules  # noqa: F401
from . import cost_rules  # noqa: F401
from . import theory_rules  # noqa: F401

__all__ = [
    "LintReport",
    "run_lint",
    "dedupe_diagnostics",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
    "MAX_DIAGNOSTICS_PER_RULE",
]

EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2

#: A pathological artifact can violate one rule everywhere; keep reports
#: readable by truncating per rule and noting the suppression.
MAX_DIAGNOSTICS_PER_RULE = 100


def dedupe_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> list[Diagnostic]:
    """Drop exact repeats, keeping first occurrences in order.

    Identical findings arise when several loaders surface the same
    artifact error (a trace archive failing both its trace and windows
    checks the same way) or when loader failures are merged with rule
    findings that re-derive them.  Diagnostics are frozen dataclasses,
    so identity is plain equality of all fields.
    """
    seen: set[tuple] = set()
    unique: list[Diagnostic] = []
    for diag in diagnostics:
        key = (
            diag.code,
            diag.severity,
            diag.message,
            diag.datum,
            diag.window,
            diag.processor,
        )
        if key in seen:
            continue
        seen.add(key)
        unique.append(diag)
    return unique


@dataclass
class LintReport:
    """Outcome of one lint run: findings plus which rules actually ran."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    rules_skipped: list[str] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def prepend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Merge loader/context failures ahead of the rule findings,
        dropping any finding a rule already re-derived identically."""
        self.diagnostics = dedupe_diagnostics(
            [*diagnostics, *self.diagnostics]
        )

    @property
    def n_errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def n_infos(self) -> int:
        return self.count(Severity.INFO)

    @property
    def exit_code(self) -> int:
        """The CLI gate: 0 clean, 1 warnings only, 2 any error."""
        return severity_exit_code(self.diagnostics)

    def codes(self) -> set[str]:
        """Distinct diagnostic codes present in the findings."""
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # -- unified result protocol (shared with CostBreakdown / SimReport) -----

    def to_dict(self) -> dict:
        """Serializable record (``kind`` discriminates result types).

        Same payload the ``json`` renderer emits, so the observability
        exporters and the lint CLI agree on the machine-readable shape.
        """
        return {
            "kind": "lint_report",
            "version": 1,
            "schema_version": SCHEMA_VERSION,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "rules_run": list(self.rules_run),
            "rules_skipped": list(self.rules_skipped),
            "summary": {
                "errors": self.n_errors,
                "warnings": self.n_warnings,
                "infos": self.n_infos,
                "exit_code": self.exit_code,
            },
        }

    @staticmethod
    def from_dict(payload: dict) -> "LintReport":
        """Inverse of :meth:`to_dict` (with schema-version checking).

        Counts and the exit code are recomputed from the diagnostics,
        not trusted from the serialized summary block.
        """
        check_schema(payload, "lint_report")
        return LintReport(
            diagnostics=[
                Diagnostic.from_dict(d) for d in payload.get("diagnostics", [])
            ],
            rules_run=[str(c) for c in payload.get("rules_run", [])],
            rules_skipped=[str(c) for c in payload.get("rules_skipped", [])],
        )

    def summary(self) -> str:
        """One-line human summary, consumed by the observability exporters."""
        return (
            f"lint: {self.n_errors} error(s), {self.n_warnings} warning(s), "
            f"{self.n_infos} info(s) — {len(self.rules_run)} rule(s) run, "
            f"{len(self.rules_skipped)} skipped"
        )


def run_lint(
    context: LintContext,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    severities: Mapping[str, Severity] | None = None,
    instrument: Instrumentation | None = None,
) -> LintReport:
    """Run every applicable rule over ``context``.

    Parameters
    ----------
    context:
        The artifact bundle to analyze.
    select:
        When given, run only these codes (prefixes like ``SCH`` expand).
    ignore:
        Codes (or prefixes) to disable.
    severities:
        Per-code severity overrides, e.g. ``{"THY001": Severity.ERROR}``
        to turn the optimality warning into a gating error.
    instrument:
        Optional :class:`~repro.obs.Instrumentation`; per-rule timings
        land in the ``lint.rule_us`` histogram and one span per rule.
    """
    obs = resolve(instrument)
    enabled = set(resolve_codes(select)) if select is not None else set(RULES)
    if ignore is not None:
        enabled -= set(resolve_codes(ignore))
    overrides = {
        code: sev for code, sev in (severities or {}).items()
    }
    for code in overrides:
        if code not in RULES:
            resolve_codes([code])  # raises with the known-code list

    report = LintReport()
    with obs.span("lint.run", n_rules=len(enabled)):
        for code, rule in RULES.items():
            if code not in enabled:
                continue
            if not rule.applicable(context):
                report.rules_skipped.append(code)
                continue
            report.rules_run.append(code)
            severity = overrides.get(code)
            produced = 0
            with obs.span("lint.rule", code=code) as rule_span:
                for diag in rule.check(context):
                    produced += 1
                    if produced > MAX_DIAGNOSTICS_PER_RULE:
                        continue
                    if severity is not None and diag.severity != severity:
                        diag = Diagnostic(
                            code=diag.code,
                            severity=severity,
                            message=diag.message,
                            datum=diag.datum,
                            window=diag.window,
                            processor=diag.processor,
                            hint=diag.hint,
                        )
                    report.diagnostics.append(diag)
                rule_span.set(findings=produced)
            if obs.enabled:
                obs.observe("lint.rule_us", rule_span.duration_us)
            if produced > MAX_DIAGNOSTICS_PER_RULE:
                report.diagnostics.append(
                    Diagnostic(
                        code=code,
                        severity=Severity.INFO,
                        message=(
                            f"{produced - MAX_DIAGNOSTICS_PER_RULE} further "
                            f"{code} diagnostics suppressed "
                            f"(showing first {MAX_DIAGNOSTICS_PER_RULE})"
                        ),
                    )
                )
        obs.count("lint.diagnostics.error", report.n_errors)
        obs.count("lint.diagnostics.warning", report.n_warnings)
        obs.count("lint.diagnostics.info", report.n_infos)
    return report
