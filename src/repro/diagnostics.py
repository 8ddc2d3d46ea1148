"""Stable diagnostic codes shared by static lint and dynamic checks.

Every invariant the system enforces — single-copy residency, per-window
capacity, fault-plan consistency, cost-accounting agreement — carries a
stable code (``SCH002``, ``FLT003``, ...).  The static analyzer in
:mod:`repro.lint` *reports* violations as :class:`Diagnostic` records;
the dynamic enforcement sites (:class:`repro.mem.CapacityError`,
:class:`repro.sim.ResidencyError`, :class:`repro.faults.FaultConfigError`
raise sites) embed the same code in their messages, so a failure observed
mid-simulation names exactly the rule that would have flagged it before
the run (``docs/lint.md`` catalogues all codes).

This module is a dependency leaf: it imports nothing from ``repro`` so
that ``mem``, ``sim``, ``trace`` and ``faults`` can all use it without
cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Severity",
    "Diagnostic",
    "code_message",
    "coord_suffix",
    "severity_exit_code",
    # schedule codes
    "SCH001",
    "SCH002",
    "SCH003",
    "SCH004",
    # trace/window codes
    "TRC001",
    "TRC002",
    "TRC003",
    # fault-plan codes
    "FLT001",
    "FLT002",
    "FLT003",
    "FLT004",
    "FLT005",
    "FLT006",
    "FLT007",
    "FLT008",
    # cost-accounting codes
    "CST001",
    "CST002",
    # theory-backed codes
    "THY001",
    "THY002",
    "ALL_CODES",
    # dynamic observability codes (not lint rules)
    "OBS001",
    "OBS002",
    "OBS003",
    # benchmark regression-sentinel codes (not lint rules)
    "REG001",
    "REG002",
    "REG003",
    # chaos-campaign recovery-invariant codes (not lint rules)
    "RCV001",
    "RCV002",
    "RCV003",
    "RCV004",
    "DYNAMIC_CODES",
    # static certifier codes (repro.verify, not lint rules)
    "VER001",
    "VER002",
    "VER003",
    "VER004",
    "VER005",
    "VER006",
    "VER007",
    "VER008",
    "VER009",
    "VER010",
    "VER011",
    "VER012",
    "VERIFY_CODES",
    "DIVERGENCE_CODES",
]

# Residency: a datum must have exactly one valid center per window (Def. 3).
SCH001 = "SCH001"
# Capacity: per-window occupancy of a processor exceeds its memory.
SCH002 = "SCH002"
# Movement accounting inconsistent with the center transitions.
SCH003 = "SCH003"
# Schedule does not fit its companion artifacts (trace/topology/capacity).
SCH004 = "SCH004"

# Trace event arrays malformed (ids out of range, unsorted, bad counts).
TRC001 = "TRC001"
# Window set malformed or mismatched against its trace.
TRC002 = "TRC002"
# Degenerate segmentation: a window holds no reference events.
TRC003 = "TRC003"

# Fault names a processor outside the array.
FLT001 = "FLT001"
# Fault activates outside the schedule's window horizon.
FLT002 = "FLT002"
# Link fault names a non-adjacent processor pair (no such wire exists).
FLT003 = "FLT003"
# Some window has no surviving processor (the plan kills the array).
FLT004 = "FLT004"
# Surviving memory cannot hold the data (evacuation must strand items).
FLT005 = "FLT005"
# Schedule places a datum on a node that is down during that window.
FLT006 = "FLT006"
# Recovery checkpoint interval out of range for the schedule's horizon.
FLT007 = "FLT007"
# Replicate recovery mode requested but the run carries no replica copies.
FLT008 = "FLT008"

# Analytic evaluator disagrees with the cost-graph formulation.
CST001 = "CST001"
# Producer-recorded cost in schedule meta disagrees with evaluation.
CST002 = "CST002"

# One-step improvable center (violates the §4 monotonicity argument).
THY001 = "THY001"
# Placement-cost row is not separable convex (Lemma 1 precondition).
THY002 = "THY002"

#: The static lint-rule universe: every code here has a registered rule
#: in :mod:`repro.lint` (asserted by the lint test-suite).
ALL_CODES = (
    SCH001, SCH002, SCH003, SCH004,
    TRC001, TRC002, TRC003,
    FLT001, FLT002, FLT003, FLT004, FLT005, FLT006, FLT007, FLT008,
    CST001, CST002,
    THY001, THY002,
)

# -- dynamic codes: emitted by runtime analyzers, not by lint rules ---------

# Saturated link: one directed mesh link carries a disproportionate share
# of the replayed traffic (hotspot factor above threshold).
OBS001 = "OBS001"
# Link-load imbalance: the Gini coefficient of per-link traffic exceeds
# the configured threshold (traffic concentrates on few wires).
OBS002 = "OBS002"
# Observability misconfiguration: an environment override (for example a
# non-positive REPRO_FLIGHT_CAPACITY ring size) is invalid.
OBS003 = "OBS003"

# Benchmark cost regression: a seeded scheduler cost diverged from the
# tracked baseline (costs are deterministic, so any delta is a real change).
REG001 = "REG001"
# Benchmark timing regression beyond the configured noise tolerance.
REG002 = "REG002"
# Baseline and fresh benchmark reports are not comparable (config drift,
# missing rows) — the sentinel cannot vouch for anything.
REG003 = "REG003"

# Silent data loss: a recoverable chaos scenario lost or stranded datum
# instances the recovery mode promised to preserve.
RCV001 = "RCV001"
# Checkpoint round-trip broken: restoring a snapshot and re-hashing the
# state did not reproduce the checkpoint digest bit for bit.
RCV002 = "RCV002"
# Fault-free drift: a checkpointed replay of a healthy run diverged from
# replay_schedule's fault-free replay (must be bit-identical).
RCV003 = "RCV003"
# Rollback overshoot: a recovery rewound further than one checkpoint
# interval (the controller's bounded-rollback guarantee).
RCV004 = "RCV004"

#: Codes produced by dynamic analyzers (`repro.obs.spatial`,
#: `repro.analysis.regression`, `repro.analysis.chaos`); catalogued in
#: ``docs/observability.md`` and ``docs/fault-model.md``.
DYNAMIC_CODES = (
    OBS001, OBS002, OBS003, REG001, REG002, REG003,
    RCV001, RCV002, RCV003, RCV004,
)

# -- certifier codes: emitted by the static analysis engine (repro.verify) --

# Capacity overflow proven statically: the abstract occupancy of some
# (window, processor) cell exceeds its memory capacity.
VER001 = "VER001"
# Unreachable placement: a scheduled center is outside the array, down in
# its window, or no surviving route can realize a scheduled transfer.
VER002 = "VER002"
# Link hotspot: the statically derived volume on one directed mesh link
# exceeds the configured per-link budget.
VER003 = "VER003"
# Dead data movement: a relocation that serves no reference before the
# datum moves again and is strictly costlier than skipping the stop.
VER004 = "VER004"
# Optimality certificate missing or malformed (wrong shapes/fields, or a
# mask that admits a processor the fault plan takes down).
VER005 = "VER005"
# Certificate potentials are dual-infeasible: some potential exceeds the
# best incoming value, so they prove no lower bound at all.
VER006 = "VER006"
# Certificate is not tight: the schedule's actual cost disagrees with the
# claimed total or exceeds the certified lower bound (not proven optimal).
VER007 = "VER007"
# Static/dynamic cost divergence: abstract interpretation, the analytic
# evaluator and the replayed simulation disagree on cost totals.
VER008 = "VER008"
# Static/dynamic link divergence: statically derived per-window link
# volumes disagree with the replay's SpatialTrace ground truth.
VER009 = "VER009"
# Delivery-accounting divergence: the replay's fetch/delivery counters
# disagree with the statically predicted accounting identity.
VER010 = "VER010"
# Theory cross-check failure: certified placement-cost rows violate the
# Lemma 1 / Theorem 2 structure (separable convexity along mesh axes).
VER011 = "VER011"
# Decision-provenance divergence: a solver's decision log disagrees with
# the schedule it shipped with (centers, live-ranges, action structure,
# or the bit-exact cost-attribution invariant).
VER012 = "VER012"

#: Codes produced by the static schedule certifier (``repro certify``);
#: catalogued in ``docs/diagnostics.md`` and ``docs/certify.md``.  These
#: are not lint rules: they come from abstract interpretation, certificate
#: checking and the static-vs-dynamic differential gate.
VERIFY_CODES = (
    VER001, VER002, VER003, VER004, VER005, VER006,
    VER007, VER008, VER009, VER010, VER011, VER012,
)

#: The certifier codes whose presence means the toolchain itself is
#: suspect — a broken/forged certificate or a static-vs-dynamic
#: divergence — surfaced as exit code 3 by ``repro certify``.
DIVERGENCE_CODES = (VER005, VER006, VER007, VER008, VER009, VER010, VER012)


class Severity(enum.IntEnum):
    """Diagnostic severity; larger is worse (so ``max`` picks the gate)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()

    @staticmethod
    def parse(text: str) -> "Severity":
        try:
            return Severity[text.strip().upper()]
        except KeyError:
            known = ", ".join(s.name.lower() for s in Severity)
            raise ValueError(
                f"unknown severity {text!r}; expected one of {known}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a coded, located, actionable violation report.

    Attributes
    ----------
    code:
        Stable rule code (``SCH001``...); stable across releases.
    severity:
        :class:`Severity` after any per-run overrides.
    message:
        Human-readable statement of what is wrong (no code prefix; the
        renderers add it).
    datum, window, processor:
        The violation's coordinates where meaningful; ``None`` when a
        coordinate does not apply (e.g. a whole-plan contradiction).
    hint:
        Optional one-line suggestion for fixing the input.
    """

    code: str
    severity: Severity
    message: str
    datum: int | None = None
    window: int | None = None
    processor: int | None = None
    hint: str | None = None

    @property
    def location(self) -> str:
        """Slash-path form of the coordinates (used by SARIF output)."""
        parts = []
        for name, value in (
            ("datum", self.datum),
            ("window", self.window),
            ("processor", self.processor),
        ):
            if value is not None:
                parts.append(f"{name}/{value}")
        return "/".join(parts) if parts else "schedule"

    def to_dict(self) -> dict:
        """JSON-ready mapping (stable key order for golden tests)."""
        out = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        for key in ("datum", "window", "processor"):
            value = getattr(self, key)
            if value is not None:
                out[key] = int(value)
        if self.hint:
            out["hint"] = self.hint
        return out

    @staticmethod
    def from_dict(payload: dict) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (for report loaders)."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"a diagnostic must be a mapping, got {type(payload).__name__}"
            )
        coords = {
            key: None if payload.get(key) is None else int(payload[key])
            for key in ("datum", "window", "processor")
        }
        return Diagnostic(
            code=str(payload["code"]),
            severity=Severity.parse(payload["severity"]),
            message=str(payload["message"]),
            hint=payload.get("hint"),
            **coords,
        )

    def render(self) -> str:
        """One-line human rendering: ``code severity: message (coords)``."""
        suffix = coord_suffix(self.datum, self.window, self.processor)
        hint = f"\n    hint: {self.hint}" if self.hint else ""
        return f"{self.code} {self.severity}: {self.message}{suffix}{hint}"


def coord_suffix(
    datum: int | None = None,
    window: int | None = None,
    processor: int | None = None,
) -> str:
    """Uniform ``(datum=d, window=w, processor=p)`` suffix for messages.

    The same helper feeds both static diagnostics and the dynamic error
    types, keeping the two report formats textually identical.
    """
    parts = []
    if datum is not None:
        parts.append(f"datum={int(datum)}")
    if window is not None:
        parts.append(f"window={int(window)}")
    if processor is not None:
        parts.append(f"processor={int(processor)}")
    if not parts:
        return ""
    return f" ({', '.join(parts)})"


def code_message(code: str, message: str) -> str:
    """Prefix ``message`` with its diagnostic code: ``[SCH002] ...``."""
    return f"[{code}] {message}"


def severity_exit_code(diagnostics: Iterable[Diagnostic]) -> int:
    """The gate every linter-style report shares: ``0`` clean or info
    only, ``1`` warnings only, ``2`` any error (the worst severity)."""
    return int(max((d.severity for d in diagnostics), default=Severity.INFO))
