"""Cross-validation of decision provenance against the certifier.

A :class:`~repro.obs.provenance.DecisionLog` is a *claim* about a solve:
these are the centers I chose, this is why, and these per-cell costs sum
to the schedule's :class:`~repro.core.evaluate.CostBreakdown` exactly.
:func:`check_provenance_log` audits that claim against independent
ground truth:

1. **identity** — the log's center matrix must equal the schedule's,
   cell for cell (a log explaining a different schedule is worse than
   no log);
2. **action structure** — ``hold`` exactly when the center repeats,
   window 0 only ``place``/``detour``;
3. **live ranges** — the log's run-length encoding must match the
   abstract interpreter's (:func:`repro.verify.abstract.interpret_schedule`)
   residency intervals;
4. **attribution** — the log's reconstructed cost breakdown must equal
   :func:`repro.core.evaluate.evaluate_schedule` **bit-identically**
   (exact float ``==``, no tolerance).

Every divergence is a ``VER012`` :class:`~repro.diagnostics.Diagnostic`
(error severity; the certify CLI convention maps divergence codes to
exit 3).  Per-check emission is capped so a corrupted log cannot flood
a report.
"""

from __future__ import annotations

import numpy as np

from ..core.evaluate import evaluate_schedule
from ..diagnostics import VER012, Diagnostic, Severity
from ..obs.provenance import (
    ACTION_DETOUR,
    ACTION_HOLD,
    ACTION_NAMES,
    ACTION_PLACE,
)
from .abstract import interpret_schedule

__all__ = ["check_provenance_log", "MAX_PROVENANCE_DIAGNOSTICS"]

#: Per-check emission cap — a corrupted log fails loudly, not endlessly.
MAX_PROVENANCE_DIAGNOSTICS = 8

_W0_ACTIONS = (ACTION_PLACE, ACTION_DETOUR)


def _diag(message, datum=None, window=None, hint=None) -> Diagnostic:
    return Diagnostic(
        code=VER012,
        severity=Severity.ERROR,
        message=message,
        datum=datum,
        window=window,
        hint=hint,
    )


def _check_identity(log, schedule, out: list) -> bool:
    """Centers must match the shipped schedule; False = unusable log."""
    centers = np.asarray(schedule.centers)
    if log.centers.shape != centers.shape:
        out.append(
            _diag(
                f"decision log shape {log.centers.shape} does not match "
                f"the schedule's {centers.shape}; the log explains a "
                "different problem",
                hint="re-record provenance for this schedule",
            )
        )
        return False
    diff = np.argwhere(log.centers != centers)
    for d, w in diff[:MAX_PROVENANCE_DIAGNOSTICS]:
        out.append(
            _diag(
                f"decision log claims center {int(log.centers[d, w])} but "
                f"the schedule placed this datum on {int(centers[d, w])}",
                datum=int(d),
                window=int(w),
            )
        )
    return len(diff) == 0


def _check_actions(log, out: list) -> None:
    """Action codes must be consistent with the center matrix itself."""
    emitted = 0
    for d in range(log.n_data):
        if int(log.actions[d, 0]) not in _W0_ACTIONS:
            emitted += 1
            if emitted <= MAX_PROVENANCE_DIAGNOSTICS:
                out.append(
                    _diag(
                        "window 0 must be a placement (or detour), not "
                        f"'{_action_name(log, d, 0)}'",
                        datum=d,
                        window=0,
                    )
                )
        for w in range(1, log.n_windows):
            held = int(log.actions[d, w]) == ACTION_HOLD
            same = log.centers[d, w] == log.centers[d, w - 1]
            if held == bool(same):
                continue
            emitted += 1
            if emitted <= MAX_PROVENANCE_DIAGNOSTICS:
                verb = "claims a hold but the center moved" if held else (
                    f"claims '{_action_name(log, d, w)}' but the center "
                    "did not change"
                )
                out.append(_diag(f"decision log {verb}", datum=d, window=w))


def _action_name(log, d: int, w: int) -> str:
    code = int(log.actions[d, w])
    return ACTION_NAMES[code] if 0 <= code < len(ACTION_NAMES) else str(code)


def _check_live_ranges(log, prediction, out: list) -> None:
    predicted = prediction.live_ranges
    claimed = log.live_ranges()
    emitted = 0
    for d, (want, got) in enumerate(zip(predicted, claimed)):
        if want == got:
            continue
        emitted += 1
        if emitted > MAX_PROVENANCE_DIAGNOSTICS:
            break
        out.append(
            _diag(
                f"residency disagrees with the abstract interpreter: "
                f"log says {got}, interpreter derives {want}",
                datum=d,
            )
        )


def _check_attribution(log, schedule, tensor, model, out: list) -> None:
    truth = evaluate_schedule(schedule, tensor, model)
    claimed = log.attribution()
    for name in ("reference_cost", "movement_cost", "total"):
        want = getattr(truth, name)
        got = getattr(claimed, name)
        if got == want:  # exact — the attribution invariant is bit-level
            continue
        out.append(
            _diag(
                f"attributed {name} {got!r} does not reconstruct the "
                f"evaluator's {want!r} bit-identically "
                f"(delta {got - want:g})",
                hint="the sum of per-datum attributed costs must equal "
                "evaluate_schedule() exactly; see docs/explain.md",
            )
        )


def check_provenance_log(
    log,
    schedule,
    tensor,
    model,
    *,
    prediction=None,
) -> list[Diagnostic]:
    """Audit a decision log against the schedule it claims to explain.

    Parameters
    ----------
    log:
        The :class:`~repro.obs.provenance.DecisionLog` under audit.
    schedule, tensor, model:
        The solve it explains — ground truth for centers, live ranges
        (via the abstract interpreter) and the cost breakdown.
    prediction:
        Optional pre-computed :class:`~repro.verify.abstract.StaticPrediction`
        for the same (schedule, tensor, model); derived internally when
        omitted.

    Returns
    -------
    ``list[Diagnostic]`` — empty when the log checks out, ``VER012``
    entries (error severity) on any divergence.
    """
    diagnostics: list[Diagnostic] = []
    if not _check_identity(log, schedule, diagnostics):
        return diagnostics
    _check_actions(log, diagnostics)
    if prediction is None:
        prediction, _ = interpret_schedule(schedule, tensor, model)
    if prediction is not None:
        _check_live_ranges(log, prediction, diagnostics)
    _check_attribution(log, schedule, tensor, model, diagnostics)
    return diagnostics
