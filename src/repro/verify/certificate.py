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
from ..grid import Mesh1D, Mesh2D
from ..theory import is_separable_convex
from ..trace import ReferenceTensor
from .abstract import MAX_DIAGNOSTICS_PER_CHECK, _emit

__all__ = ["check_certificate", "certificate_of"]

#: relative tolerance for cost comparisons (costs are hop-count sums).
_TOL = 1e-6
#: cap on separable-convexity spot checks (rows are independent).
_THEORY_SAMPLE = 32
#: float64 cells of one buffer of the VER006 envelope (2 MiB)
_ENVELOPE_CELLS = 1 << 18


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

    _check_dual_feasibility(
        potentials, costs, dist, vols, model.topology, diagnostics,
        from_window,
    )
    _check_tightness(
        schedule, potentials, totals, costs, dist, vols, from_window,
        diagnostics,
    )
    if check_theory:
        _check_theory(full_costs, model.topology, from_window, diagnostics)
    return diagnostics


def _check_dual_feasibility(
    potentials, costs, dist, vols, topology, diagnostics, from_window
):
    """VER006: ``pi`` must never exceed the best incoming value.

    ``lower[d, w, k] = min_j pi[d, w-1, j] + vol_d * dist[j, k] + C[d, w, k]``
    depends only on the given potentials, so every window's envelope is
    computed in one pass (:func:`_envelopes`) and compared at once.  The
    value a message prints is recomputed densely at its cell, so it never
    depends on which pass found the cell.
    """
    finite = np.isfinite(potentials)
    largest = max(
        -float(np.min(potentials, where=finite, initial=0.0)),
        float(np.max(potentials, where=finite, initial=0.0)),
    )  # the largest finite |pi|, without a copy of the finite cells
    tol = _TOL * (1.0 + largest)
    bad = np.empty(potentials.shape, dtype=bool)
    np.greater(potentials[:, 0], costs[:, 0] + tol, out=bad[:, 0])
    grid = _chamfer_grid(potentials, largest, dist, vols, topology)
    for rows, envelope in _envelopes(potentials, dist, vols, grid):
        envelope += costs[rows, 1:]
        envelope += tol
        np.greater(potentials[rows, 1:], envelope, out=bad[rows, 1:])
    if not bad.any():
        return

    flagged = np.nonzero(bad.transpose(1, 0, 2))  # window-major
    for w, d, p in zip(
        *(axis[:MAX_DIAGNOSTICS_PER_CHECK].tolist() for axis in flagged)
    ):
        lower = costs[d, w, p]
        if w > 0:
            lower = (
                potentials[d, w - 1] + vols[d] * dist[:, p]
            ).min() + lower
        _emit(
            diagnostics,
            Diagnostic(
                code=VER006,
                severity=Severity.ERROR,
                message=(
                    f"certificate potential {potentials[d, w, p]:g} "
                    f"exceeds the best incoming value {lower:g}; the "
                    "potentials are dual-infeasible and certify nothing"
                ),
                datum=d,
                window=from_window + w,
                processor=p,
            ),
        )


def _chamfer_grid(potentials, largest, dist, vols, topology):
    """The mesh shape when the separable pass equals the dense one, else ``None``.

    The hop metric of a :class:`~repro.grid.Mesh1D` or
    :class:`~repro.grid.Mesh2D` is the unit L1 distance on its row-major
    grid.  The pass adds ``vol`` one hop at a time, so it matches
    ``pi[j] + vol * dist[j, k]`` exactly when the (positive) volumes are
    integers and every potential an integer or infinite, with every sum
    below 2**53 (``largest`` is the largest finite ``|pi|``).  A NaN
    potential takes the dense step.
    """
    if type(topology) not in (Mesh1D, Mesh2D):
        return None
    if (vols != np.floor(vols)).any():
        return None
    if largest + float(vols.max(initial=0.0)) * float(dist.max()) >= 2.0**53:
        return None
    rows = max(1, _ENVELOPE_CELLS // max(1, potentials[:1].size))
    for start in range(0, len(potentials), rows):
        part = potentials[start : start + rows]
        if not (np.floor(part) == part).all():  # NaN fails too
            return None
    return topology.shape


def _envelopes(potentials, dist, vols, grid):
    """Yield ``(rows, envelope)`` over blocks of data.

    ``envelope[i, w - 1, k] = min_j pi[rows[i], w - 1, j] + vol * dist[j, k]``
    for windows ``1 .. S-1``, as a fresh ``(k, S-1, m)`` array.  Every
    buffer of a block holds at most ``min(_ENVELOPE_CELLS, D * m * m)``
    cells, the size of one dense window step capped, unless one datum's
    ``(S-1, m)`` or ``(m, m)`` alone is larger; then a block is one
    datum.  With a ``grid`` (:func:`_chamfer_grid`) the envelope is the
    L1 distance transform of :func:`_chamfer`; without, the dense
    min-plus broadcast, window by window.
    """
    n_data, n_suffix, n_procs = potentials.shape
    if n_suffix < 2 or n_data == 0:
        return
    budget = min(_ENVELOPE_CELLS, n_data * n_procs * n_procs)
    if grid is not None:
        step = max(1, budget // ((n_suffix - 1) * n_procs))
        for start in range(0, n_data, step):
            rows = slice(start, start + step)
            yield rows, _chamfer(potentials[rows, :-1], vols[rows], grid)
        return
    step = max(1, budget // (n_procs * max(n_procs, n_suffix - 1)))
    for start in range(0, n_data, step):
        rows = slice(start, start + step)
        move = vols[rows, None, None] * dist  # (k, m, m)
        envelope = np.empty((len(move), n_suffix - 1, n_procs))
        for w in range(n_suffix - 1):
            envelope[:, w] = (
                potentials[rows, w, :, None] + move
            ).min(axis=1)
        yield rows, envelope


def _chamfer(potentials, vols, grid):
    """L1 distance transform of ``(k, S', m)`` potentials, as ``(k, S', m)``.

    The potentials are copied once, data-last, into a ``(*grid, k, S')``
    buffer; then one forward and one backward pass per grid axis,
    ``g[c] = min(g[c], g[c -/+ 1] + vol)``, each step over a whole
    ``(..., k, S')`` slab (Felzenszwalb & Huttenlocher, "Distance
    Transforms of Sampled Functions").
    """
    n_rows, n_windows, n_procs = potentials.shape
    g = np.empty((n_procs, n_rows, n_windows))
    g[...] = potentials.transpose(2, 0, 1)
    vol = vols[:, None]
    cells = g.reshape(*grid, n_rows, n_windows)
    for axis in range(len(grid)):
        line = np.moveaxis(cells, axis, 0)
        step = np.empty_like(line[0])
        for c in range(1, len(line)):
            np.add(line[c - 1], vol, out=step)
            np.minimum(line[c], step, out=line[c])
        for c in range(len(line) - 2, -1, -1):
            np.add(line[c + 1], vol, out=step)
            np.minimum(line[c], step, out=line[c])
    return np.ascontiguousarray(g.transpose(1, 2, 0))


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
    """VER011: sampled cost rows must satisfy the Lemma 1 preconditions.

    The sample is the first ``_THEORY_SAMPLE`` referenced ``(d, w)`` rows
    of the suffix, datum-major, checked at once.  Lemma 1 is stated for
    1-D and 2-D meshes only, so other topologies are not sampled.
    """
    if not isinstance(topology, (Mesh1D, Mesh2D)):
        return
    referenced = costs[:, from_window:].sum(axis=2) > 0  # rows with mass
    data, windows = np.nonzero(referenced)
    data = data[:_THEORY_SAMPLE]
    windows = windows[:_THEORY_SAMPLE] + from_window
    if not len(data):
        return
    convex = is_separable_convex(costs[data, windows], topology)
    for d, w in zip(data[~convex].tolist(), windows[~convex].tolist()):
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
                datum=d,
                window=w,
            ),
        )
