"""Standalone checking of GOMCDS shortest-path optimality certificates.

GOMCDS reduces per-datum scheduling to a shortest ``s -> d`` path in a
layered cost-graph, so its forward DP value tables are shortest-path
*node potentials*.  A certificate attached by ``gomcds(...,
certify=True)`` (or the fault-aware reschedulers) therefore proves
optimality through two classical, solver-independent conditions:

* **dual feasibility** — ``pi[0, k] <= C[0, k]`` and
  ``pi[w, k] <= min_j(pi[w-1, j] + move[j, k]) + C[w, k]`` for every
  admissible cell, which makes ``min_k pi[W-1, k]`` a valid *lower
  bound* on any admissible center path's cost (``VER006`` on failure);
* **tightness** — the schedule's actual path cost, recomputed here from
  the reference tensor and the metric alone, equals the claimed total
  and does not exceed that lower bound, squeezing the path against the
  optimum (``VER007`` on failure).

Together the two conditions certify each datum's center sequence is a
minimum-cost path over its admissible ``(window, processor)`` cells —
no trust in the solver required, and any tampering with potentials,
totals or centers breaks one of them.

The theory cross-check (``VER011``) ties the certificate to the paper's
§4 structure: Lemma 1 / Theorem 2 argue via cost rows that are convex
and separable along the mesh axes, which
:func:`repro.theory.is_separable_convex` verifies on sampled rows.  A
violation does not invalidate the LP-duality proof above, but it means
the cost model left the regime the paper's monotonicity argument (and
the SCDS/LOMCDS heuristics) assume — worth a warning.
"""

from __future__ import annotations

import numpy as np

from ..core import CostModel
from ..core.evaluate import _check_compatible
from ..diagnostics import VER005, VER006, VER007, VER011, Diagnostic, Severity
from ..faults import FaultPlan, alive_window_mask
from ..theory import is_separable_convex
from ..trace import ReferenceTensor
from .abstract import MAX_DIAGNOSTICS_PER_CHECK, _emit

__all__ = ["check_certificate", "certificate_of"]

#: relative tolerance for cost comparisons (costs are hop-count sums).
_TOL = 1e-6
#: cap on separable-convexity spot checks (rows are independent).
_THEORY_SAMPLE = 32


def certificate_of(schedule) -> dict | None:
    """The schedule's attached certificate payload, if any."""
    cert = schedule.meta.get("certificate") if schedule.meta else None
    return cert if isinstance(cert, dict) else None


def _malformed(message: str, hint: str | None = None) -> list[Diagnostic]:
    return [
        Diagnostic(
            code=VER005,
            severity=Severity.ERROR,
            message=f"malformed certificate: {message}",
            hint=hint or "re-emit with gomcds(..., certify=True)",
        )
    ]


def check_certificate(
    schedule,
    tensor: ReferenceTensor,
    model: CostModel,
    faults: FaultPlan | None = None,
    *,
    require: bool = False,
    check_theory: bool = True,
) -> list[Diagnostic]:
    """Verify the schedule's optimality certificate against the inputs.

    Returns coded diagnostics: ``VER005`` for a missing (when
    ``require``) or structurally broken certificate, ``VER006`` for
    dual-infeasible potentials, ``VER007`` for a non-tight certificate
    (claimed total wrong, schedule outside its admissible region, or
    path cost above the certified lower bound), and ``VER011`` for
    theory cross-check warnings.  An empty list means every datum's
    center path is proven optimal.  Raises ``ValueError`` when
    ``tensor`` does not fit the schedule or the model.
    """
    _check_compatible(schedule, tensor, model)
    cert = certificate_of(schedule)
    if cert is None:
        raw = schedule.meta.get("certificate") if schedule.meta else None
        if raw is not None:
            return _malformed(
                f"expected a mapping, got {type(raw).__name__}"
            )
        if not require:
            return []
        return [
            Diagnostic(
                code=VER005,
                severity=Severity.ERROR,
                message=(
                    "no optimality certificate attached to the schedule"
                ),
                hint="schedule with gomcds(..., certify=True) or "
                "reschedule_*(..., certify=True)",
            )
        ]

    if cert.get("kind") != "gomcds-potentials":
        return _malformed(f"unknown kind {cert.get('kind')!r}")

    n_data, n_windows = schedule.centers.shape
    n_procs = model.n_procs
    from_window = int(cert.get("from_window", 0))
    if not 0 <= from_window < n_windows:
        return _malformed(f"from_window {from_window} outside the horizon")
    n_suffix = n_windows - from_window

    potentials = cert.get("potentials")
    totals = cert.get("totals")
    if potentials is None or totals is None:
        return _malformed("potentials/totals missing")
    potentials = np.asarray(potentials, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    if potentials.shape != (n_data, n_suffix, n_procs):
        return _malformed(
            f"potentials have shape {potentials.shape}, expected "
            f"({n_data}, {n_suffix}, {n_procs})"
        )
    if totals.shape != (n_data,):
        return _malformed(f"totals have shape {totals.shape}")

    masks = cert.get("masks")
    if masks is not None:
        masks = np.asarray(masks, dtype=bool)
        if masks.shape != potentials.shape:
            return _malformed(f"masks have shape {masks.shape}")

    placement = cert.get("placement")
    if placement is not None:
        placement = np.asarray(placement, dtype=np.int64)
        if placement.shape != (n_data,):
            return _malformed(f"placement has shape {placement.shape}")
        if placement.size and (
            placement.min() < 0 or placement.max() >= n_procs
        ):
            return _malformed("placement names a pid outside the array")

    diagnostics: list[Diagnostic] = []

    if faults is not None and masks is not None:
        alive = alive_window_mask(faults, n_windows, n_procs)[from_window:]
        leaks = masks & ~alive[None, :, :]
        if leaks.any():
            d, w, p = (int(x[0]) for x in np.nonzero(leaks))
            return _malformed(
                f"admissible mask admits processor {p} in window "
                f"{from_window + w}, which the fault plan takes down "
                f"(first leak: datum {d})",
                hint="re-emit the certificate from "
                "reschedule_around_faults(..., certify=True)",
            )

    # -- the model's read-only cost tensor; pins and masks go on a copy -----
    full_costs = model.all_placement_costs(tensor)  # (D, W, m)
    costs = full_costs[:, from_window:, :].astype(np.float64, copy=True)
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(n_data)
    if placement is not None:
        # the recovery DP pins its first window to the rollback residency
        costs[:, 0, :] += vols[:, None] * dist[placement, :]
    if masks is not None:
        costs[~masks] = np.inf

    _check_dual_feasibility(potentials, costs, dist, vols, diagnostics,
                            from_window)
    _check_tightness(
        schedule, potentials, totals, costs, dist, vols, from_window,
        diagnostics,
    )
    if check_theory:
        _check_theory(full_costs, model.topology, from_window, diagnostics)
    return diagnostics


def _check_dual_feasibility(
    potentials, costs, dist, vols, diagnostics, from_window
):
    """VER006: ``pi`` must never exceed the best incoming value."""
    n_data, n_suffix, _ = potentials.shape
    finite = potentials[np.isfinite(potentials)]
    tol = _TOL * (1.0 + (float(np.abs(finite).max()) if finite.size else 0.0))
    move = vols[:, None, None] * dist[None, :, :]  # (D, m, m)
    lower = costs[:, 0, :]
    for w in range(n_suffix):
        if w > 0:
            lower = (
                potentials[:, w - 1, :, None] + move
            ).min(axis=1) + costs[:, w, :]
        bad = potentials[:, w, :] > lower + tol
        for d, p in zip(*np.nonzero(bad)):
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER006,
                    severity=Severity.ERROR,
                    message=(
                        f"certificate potential {potentials[d, w, p]:g} "
                        f"exceeds the best incoming value "
                        f"{lower[d, p]:g}; the potentials are "
                        "dual-infeasible and certify nothing"
                    ),
                    datum=int(d),
                    window=from_window + int(w),
                    processor=int(p),
                ),
            )


def _check_tightness(
    schedule, potentials, totals, costs, dist, vols, from_window, diagnostics
):
    """VER007: recomputed path cost == claimed total == certified bound."""
    n_data, n_suffix, _ = potentials.shape
    path = schedule.centers[:, from_window:]
    bound = potentials[:, -1, :].min(axis=1)
    tol = _TOL * (1.0 + np.abs(np.where(np.isfinite(bound), bound, 0.0)))

    gathered = np.take_along_axis(costs, path[:, :, None], axis=2)[:, :, 0]
    actual = gathered.sum(axis=1)
    if n_suffix > 1:
        actual = actual + vols * dist[path[:, :-1], path[:, 1:]].sum(axis=1)

    for d in np.nonzero(~np.isfinite(actual))[0]:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER007,
                severity=Severity.ERROR,
                message=(
                    "schedule leaves the certificate's admissible "
                    "(window, processor) region; the certified optimum "
                    "does not cover this path"
                ),
                datum=int(d),
            ),
        )
    finite = np.isfinite(actual)

    for d in np.nonzero(
        finite & (np.abs(actual - totals) > tol)
    )[0]:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER007,
                severity=Severity.ERROR,
                message=(
                    f"recomputed path cost {actual[d]:g} disagrees with "
                    f"the certified total {totals[d]:g}"
                ),
                datum=int(d),
            ),
        )
    for d in np.nonzero(finite & (actual > bound + tol))[0]:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER007,
                severity=Severity.ERROR,
                message=(
                    f"path cost {actual[d]:g} exceeds the certified "
                    f"lower bound {bound[d]:g}; the center sequence is "
                    "not proven optimal"
                ),
                datum=int(d),
                hint="re-solve with gomcds (the schedule may have been "
                "edited after certification)",
            ),
        )
    # a totals vector below its own potentials' bound is a forged claim
    for d in np.nonzero(totals < bound - tol)[0]:
        _emit(
            diagnostics,
            Diagnostic(
                code=VER007,
                severity=Severity.ERROR,
                message=(
                    f"certified total {totals[d]:g} undercuts the "
                    f"potentials' own bound {bound[d]:g} (tampered "
                    "claim)"
                ),
                datum=int(d),
            ),
        )


def _check_theory(costs, topology, from_window, diagnostics):
    """VER011: sampled cost rows must satisfy the Lemma 1 preconditions."""
    referenced = costs.sum(axis=2) > 0  # (D, W): rows with any cost mass
    checked = 0
    for d, w in zip(*np.nonzero(referenced)):
        if int(w) < from_window:
            continue
        if checked >= _THEORY_SAMPLE:
            return
        checked += 1
        if not is_separable_convex(costs[d, w], topology):
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER011,
                    severity=Severity.WARNING,
                    message=(
                        "placement-cost row is not separable convex; the "
                        "certificate still proves optimality, but the "
                        "Lemma 1 / Theorem 2 monotonicity structure does "
                        "not hold for this cost model"
                    ),
                    datum=int(d),
                    window=int(w),
                ),
            )
            if (
                sum(1 for x in diagnostics if x.code == VER011)
                >= MAX_DIAGNOSTICS_PER_CHECK
            ):
                return
