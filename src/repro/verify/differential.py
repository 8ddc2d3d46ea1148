"""The static-vs-dynamic differential gate.

Three independent implementations claim to know what a schedule costs:
the abstract interpreter (:mod:`.abstract`), the analytic evaluator
(:func:`repro.core.evaluate_schedule`) and the replay simulator
(:func:`repro.sim.replay_schedule`).  They share almost no code — the
interpreter routes links, the evaluator gathers a distance matrix, the
simulator executes a machine model — so agreement between all three is
strong evidence the whole stack is consistent, and *any* divergence
means one of them is wrong.  This module steps a bare
:class:`~repro.sim.ReplayCursor` with a
:class:`~repro.obs.SpatialRecorder` attached and compares:

* cost totals (``VER008``): static vs analytic vs replayed, including
  the per-window series and the degraded-mode buckets under faults;
* per-window per-link volumes (``VER009``): the interpreter's x-y
  traffic against the link volumes the replay's recorder charged — these
  must agree to the bit for integer-valued volumes;
* delivery accounting (``VER010``): fetch/local/move/evacuation/retry
  counters and the delivered + dropped + unreachable == fetches
  identity.
"""

from __future__ import annotations

import numpy as np

from ..core import CostModel, evaluate_schedule
from ..diagnostics import VER008, VER009, VER010, Diagnostic, Severity
from ..faults import FaultPlan, RetryPolicy
from ..grid import link_key
from ..mem import CapacityPlan
from ..obs import SpatialRecorder
from ..sim import ReplayCursor
from ..trace import ReferenceTensor, Trace
from .abstract import MAX_DIAGNOSTICS_PER_CHECK, StaticPrediction, _emit

__all__ = ["run_differential"]

#: absolute tolerance for cost comparisons; link volumes are compared
#: exactly (they are sums of the same multiset for integer volumes).
_COST_TOL = 1e-6
_LINK_TOL = 1e-9


def run_differential(
    schedule,
    trace: Trace,
    tensor: ReferenceTensor,
    model: CostModel,
    prediction: StaticPrediction,
    capacity: CapacityPlan | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[list[Diagnostic], dict]:
    """Replay the schedule and fail on any static/dynamic divergence.

    Returns ``(diagnostics, facts)`` where ``facts`` carries the ground
    truth observed (replay totals, delivery counters, link traffic) for
    the certify report.  Under faults the replay runs without runtime
    capacity enforcement — the static layer owns the capacity check
    (``VER001``), and degraded relocation order would otherwise make
    transient occupancy an execution artifact the interpreter cannot
    (and should not) model.
    """
    diagnostics: list[Diagnostic] = []
    faulted = faults is not None and not faults.is_empty

    spatial = SpatialRecorder(
        model.topology, schedule.n_windows, label=schedule.method
    )
    report = ReplayCursor(
        trace,
        schedule,
        model,
        capacity=None if faulted else capacity,
        faults=faults,
        retry=retry,
        spatial=spatial,
    ).run()

    facts = {
        "replay": report.to_dict(),
        "static": prediction.to_dict(),
    }

    _compare_costs(prediction, report, schedule, tensor, model, faulted,
                   diagnostics, facts)
    _compare_links(
        prediction, spatial.window_links, model.topology, diagnostics
    )
    _compare_accounting(prediction, report, trace, faulted, diagnostics)
    return diagnostics, facts


def _cost_diverged(name, static_value, dynamic_value, diagnostics, extra=""):
    if abs(static_value - dynamic_value) <= _COST_TOL * (
        1.0 + abs(dynamic_value)
    ):
        return False
    _emit(
        diagnostics,
        Diagnostic(
            code=VER008,
            severity=Severity.ERROR,
            message=(
                f"static {name} {static_value:g} diverges from the "
                f"replayed ground truth {dynamic_value:g}{extra}"
            ),
        ),
    )
    return True


def _compare_costs(
    prediction, report, schedule, tensor, model, faulted, diagnostics, facts,
):
    """VER008: every implementation must agree on what the run costs."""
    _cost_diverged(
        "reference cost", prediction.reference_cost, report.reference_cost,
        diagnostics,
    )
    _cost_diverged(
        "movement cost", prediction.movement_cost, report.movement_cost,
        diagnostics,
    )
    if faulted:
        _cost_diverged(
            "evacuation cost", prediction.evacuation_cost,
            report.evacuation_cost, diagnostics,
        )
        _cost_diverged(
            "retry cost", prediction.retry_cost, report.retry_cost,
            diagnostics,
        )
    else:
        # the analytic evaluator is a third, independent implementation
        analytic = evaluate_schedule(schedule, tensor, model)
        facts["analytic"] = analytic.to_dict()
        _cost_diverged(
            "total", prediction.total, analytic.total, diagnostics,
            extra=" (analytic evaluator)",
        )
        _cost_diverged(
            "total", prediction.total,
            report.reference_cost + report.movement_cost, diagnostics,
        )

    per_window = np.asarray(report.per_window_cost, dtype=np.float64)
    static_pw = np.asarray(prediction.per_window_cost, dtype=np.float64)
    if static_pw.shape != per_window.shape:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER008,
                severity=Severity.ERROR,
                message=(
                    f"per-window cost series have different lengths "
                    f"({static_pw.shape} static vs {per_window.shape} "
                    "replayed)"
                ),
            ),
        )
        return
    off = np.abs(static_pw - per_window) > _COST_TOL * (1.0 + per_window)
    for w in np.nonzero(off)[0]:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER008,
                severity=Severity.ERROR,
                message=(
                    f"static window cost {static_pw[w]:g} diverges from "
                    f"the replayed {per_window[w]:g}"
                ),
                window=int(w),
            ),
        )


def _compare_links(prediction, replayed_links, topology, diagnostics):
    """VER009: static x-y traffic must equal the replayed, bit for bit."""
    n_windows = max(len(prediction.window_links), len(replayed_links))
    emitted = 0
    for w in range(n_windows):
        static_links = (
            prediction.window_links[w]
            if w < len(prediction.window_links)
            else {}
        )
        dynamic_links = replayed_links[w] if w < len(replayed_links) else {}
        for link in sorted(set(static_links) | set(dynamic_links)):
            lhs = static_links.get(link, 0.0)
            rhs = dynamic_links.get(link, 0.0)
            if abs(lhs - rhs) <= _LINK_TOL:
                continue
            emitted += 1
            if emitted > MAX_DIAGNOSTICS_PER_CHECK:
                return
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER009,
                    severity=Severity.ERROR,
                    message=(
                        f"link {link_key(link, topology.shape)} volume "
                        f"diverges: static {lhs:g} vs replayed {rhs:g}"
                    ),
                    window=w,
                    processor=int(link[0]),
                ),
            )


def _count_diverged(name, static_value, dynamic_value, diagnostics, window=None):
    if int(static_value) == int(dynamic_value):
        return False
    _emit(
        diagnostics,
        Diagnostic(
            code=VER010,
            severity=Severity.ERROR,
            message=(
                f"static {name} count {int(static_value)} diverges from "
                f"the replayed {int(dynamic_value)}"
            ),
            window=window,
        ),
    )
    return True


def _compare_accounting(prediction, report, trace, faulted, diagnostics):
    """VER010: the delivery ledger must balance, statically and dynamically."""
    _count_diverged("fetch", prediction.n_fetches, report.n_fetches,
                    diagnostics)
    _count_diverged("local-fetch", prediction.n_local_fetches,
                    report.n_local_fetches, diagnostics)
    _count_diverged("delivered", prediction.n_delivered, report.n_delivered,
                    diagnostics)
    _count_diverged("movement", prediction.n_moves, report.n_moves,
                    diagnostics)
    if faulted:
        _count_diverged("unreachable", prediction.n_unreachable,
                        report.n_unreachable, diagnostics)
        _count_diverged("dropped", prediction.n_dropped, report.n_dropped,
                        diagnostics)
        _count_diverged("retry", prediction.n_retries, report.n_retries,
                        diagnostics)
        _count_diverged("skipped-move", prediction.n_skipped_moves,
                        report.n_skipped_moves, diagnostics)
        _count_diverged("evacuation", prediction.n_evacuated,
                        report.n_evacuated, diagnostics)
        _count_diverged("lost-datum", prediction.n_lost, report.n_lost,
                        diagnostics)
    if report.n_fetches != len(trace.steps):
        _emit(
            diagnostics,
            Diagnostic(
                code=VER010,
                severity=Severity.ERROR,
                message=(
                    f"replay served {report.n_fetches} fetches but the "
                    f"trace holds {len(trace.steps)} reference events"
                ),
            ),
        )
    if not report.accounts_for_all_fetches():
        _emit(
            diagnostics,
            Diagnostic(
                code=VER010,
                severity=Severity.ERROR,
                message=(
                    "replay delivery ledger does not balance: delivered "
                    f"{report.n_delivered} + dropped {report.n_dropped} "
                    f"+ unreachable {report.n_unreachable} != fetches "
                    f"{report.n_fetches}"
                ),
            ),
        )
