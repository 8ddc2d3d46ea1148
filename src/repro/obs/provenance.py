"""Decision provenance: why every datum landed where it did.

Spans answer "how long", metrics "how much", the flight recorder "what
just happened" — this module answers **why**.  When a session is started
with ``Instrumentation.started(provenance=True)``, every scheduler solve
derives a :class:`DecisionLog`: for each ``(datum, window)`` cell the
chosen center, the action taken (place / hold / move / evict / detour),
the number of admissible candidate placements, the counterfactual
second-best center and its cost delta, whether the choice was a
tie-break (lowest processor id wins, everywhere in the codebase), and an
exact per-cell cost attribution.

The attribution invariant (``docs/explain.md``) is the load-bearing
contract: summing the attributed reference costs and movement costs with
*exactly* the reduction order of
:func:`repro.core.evaluate.per_datum_costs` reconstructs the schedule's
:class:`~repro.core.evaluate.CostBreakdown` **bit-identically** — so an
explanation can never drift from the cost it explains, and
``repro explain --check`` / ``VER012`` gate on exact float equality.

Like the spatial store, provenance is opt-in on top of a recording
session and strictly observational: schedules solved with provenance on
are bit-identical to dark runs (tested by property tests).  The dark
default costs one attribute read per solve: the ``recording`` flag of
the session's store, False on ``NOOP`` and on sessions started without
``provenance=True``.

Solves derive their logs with :func:`derive_decisions` (vectorized);
:func:`derive_decisions_python` (scalar loops) is its bit-identical test
reference, run on a solve's recorded inputs.  Logs are plain dataclasses
of ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .recorder import record_event

__all__ = [
    "ACTION_NAMES",
    "ACTION_PLACE",
    "ACTION_HOLD",
    "ACTION_MOVE",
    "ACTION_EVICT",
    "ACTION_DETOUR",
    "DecisionLog",
    "ProvenanceStore",
    "derive_decisions",
    "derive_decisions_python",
    "record_decisions",
]

#: Action vocabulary, indexed by the codes below.
ACTION_NAMES = ("place", "hold", "move", "evict", "detour")
ACTION_PLACE = 0  #: initial placement (window 0)
ACTION_HOLD = 1  #: stayed at the previous window's center
ACTION_MOVE = 2  #: relocated because a cheaper admissible center existed
ACTION_EVICT = 3  #: idle hold denied — the held slot went to a higher-priority datum
ACTION_DETOUR = 4  #: the locally cheapest center was inadmissible (full or dead)


@dataclass
class DecisionLog:
    """One solve's complete decision record, cell by cell.

    All per-cell arrays are ``(n_data, n_windows)``.  ``ref_costs`` holds
    the reference cost the chosen center accrues in that window (a gather
    from the solver's own cost tensor); ``move_hops`` holds the metric
    distance from the previous window's center (0 in window 0), kept
    *unweighted* so :meth:`attributed_costs` can reproduce the evaluator's
    ``sum(hops) * volume`` reduction order exactly.  ``runner_up`` /
    ``runner_up_delta`` are the per-window counterfactual: the second
    cheapest admissible center and how much worse it would have been
    (``-1`` / ``inf`` when no alternative existed).  For path-coupled
    solvers (GOMCDS and the reschedulers) the counterfactual is local to
    the window — the DP couples windows, so it reads as "the next-best
    host for this window", not "the next-best whole path".
    """

    method: str
    n_procs: int
    centers: np.ndarray  #: (D, W) chosen center per cell
    actions: np.ndarray  #: (D, W) int8 codes into ACTION_NAMES
    ref_costs: np.ndarray  #: (D, W) reference cost of the chosen center
    move_hops: np.ndarray  #: (D, W) unweighted hop distance from previous center
    volumes: np.ndarray  #: (D,) per-datum movement volume
    n_candidates: np.ndarray  #: (D, W) admissible centers considered
    runner_up: np.ndarray  #: (D, W) second-best admissible center (-1 = none)
    runner_up_delta: np.ndarray  #: (D, W) runner-up cost minus chosen cost
    tie: np.ndarray  #: (D, W) chosen cost tied with another candidate
    forced: np.ndarray  #: (D, W) the unconstrained argmin was inadmissible
    label: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_data(self) -> int:
        return int(self.centers.shape[0])

    @property
    def n_windows(self) -> int:
        return int(self.centers.shape[1])

    # -- the attribution invariant ------------------------------------------

    def attributed_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-datum ``(reference_cost, movement_cost)`` vectors.

        Mirrors :func:`repro.core.evaluate.per_datum_costs` operation by
        operation: the reference vector sums the per-window gathers, the
        movement vector sums the unweighted hop distances over window
        boundaries *first* and multiplies by the volume *after* — same
        arrays, same axis, same order, hence the same bits.
        """
        ref = self.ref_costs.sum(axis=1)
        hops = self.move_hops[:, 1:].sum(axis=1)
        move = hops * self.volumes
        return ref.astype(np.float64), move.astype(np.float64)

    def attribution(self):
        """The reconstructed :class:`~repro.core.evaluate.CostBreakdown`.

        Bit-identical to ``evaluate_schedule(schedule, tensor, model)``
        for the schedule this log explains — the contract ``repro
        explain --check`` and ``VER012`` enforce with exact ``==``.
        """
        from ..core.evaluate import CostBreakdown  # leaf-ward: no cycle at import time

        ref, move = self.attributed_costs()
        return CostBreakdown(float(ref.sum()), float(move.sum()))

    # -- views ---------------------------------------------------------------

    def live_ranges(self) -> list[list[tuple[int, int, int]]]:
        """Run-length encode each datum's centers into residency intervals.

        Same ``(processor, first_window, last_window)`` segments the
        abstract interpreter derives — :mod:`repro.verify.provenance`
        cross-checks the two encodings and raises ``VER012`` on any
        divergence.
        """
        ranges: list[list[tuple[int, int, int]]] = []
        for row in self.centers:
            segments: list[tuple[int, int, int]] = []
            start = 0
            for w in range(1, len(row)):
                if row[w] != row[w - 1]:
                    segments.append((int(row[start]), start, w - 1))
                    start = w
            segments.append((int(row[start]), start, len(row) - 1))
            ranges.append(segments)
        return ranges

    def action_counts(self) -> dict[str, int]:
        """``{action name: number of cells}`` over the whole log."""
        counts = np.bincount(
            self.actions.ravel().astype(np.int64), minlength=len(ACTION_NAMES)
        )
        return {name: int(counts[i]) for i, name in enumerate(ACTION_NAMES)}

    def decision(self, d: int, w: int) -> dict:
        """One cell as a JSON-ready record."""
        vol = float(self.volumes[d])
        hops = float(self.move_hops[d, w])
        return {
            "type": "decision",
            "datum": int(d),
            "window": int(w),
            "center": int(self.centers[d, w]),
            "action": ACTION_NAMES[int(self.actions[d, w])],
            "ref_cost": float(self.ref_costs[d, w]),
            "move_hops": hops,
            "move_cost": hops * vol,
            "n_candidates": int(self.n_candidates[d, w]),
            "runner_up": int(self.runner_up[d, w]),
            "runner_up_delta": float(self.runner_up_delta[d, w]),
            "tie": bool(self.tie[d, w]),
            "forced": bool(self.forced[d, w]),
        }

    def timeline(self, d: int) -> list[dict]:
        """Datum ``d``'s residency story: one record per segment.

        Each segment carries the entering decision (action, counter-
        factual) plus the reference cost accrued and the movement cost
        paid to get there — a per-datum EXPLAIN plan.
        """
        out = []
        vol = float(self.volumes[d])
        for proc, first, last in self.live_ranges()[d]:
            entry = self.decision(d, first)
            out.append(
                {
                    "type": "segment",
                    "datum": int(d),
                    "center": proc,
                    "first_window": first,
                    "last_window": last,
                    "action": entry["action"],
                    "move_cost": entry["move_hops"] * vol,
                    "ref_cost": float(self.ref_costs[d, first : last + 1].sum()),
                    "n_candidates": entry["n_candidates"],
                    "runner_up": entry["runner_up"],
                    "runner_up_delta": entry["runner_up_delta"],
                    "tie": entry["tie"],
                    "forced": entry["forced"],
                }
            )
        return out

    def to_dict(self) -> dict:
        """Summary header (the JSONL exporters' ``provenance`` record)."""
        ref, move = self.attributed_costs()
        return {
            "type": "provenance",
            "method": self.method,
            "label": self.label,
            "n_data": self.n_data,
            "n_windows": self.n_windows,
            "n_procs": int(self.n_procs),
            "actions": self.action_counts(),
            "ties": int(self.tie.sum()),
            "forced": int(self.forced.sum()),
            "attributed_reference_cost": float(ref.sum()),
            "attributed_movement_cost": float(move.sum()),
            "attributed_total": float(ref.sum()) + float(move.sum()),
            "meta": {
                k: v for k, v in self.meta.items() if isinstance(v, (int, float, str))
            },
        }

    def to_records(self, data=None, windows=None):
        """Yield the header plus per-cell decision records (JSONL body).

        ``data`` / ``windows`` filter to specific datum / window ids;
        ``None`` means all of them.
        """
        yield self.to_dict()
        d_ids = range(self.n_data) if data is None else data
        w_ids = range(self.n_windows) if windows is None else windows
        for d in d_ids:
            for w in w_ids:
                yield self.decision(d, w)

    def summary(self) -> str:
        """One-line human summary (observability exporters)."""
        counts = self.action_counts()
        acted = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
        label = f" [{self.label}]" if self.label else ""
        return (
            f"{self.method}{label}: "
            f"{self.n_data}x{self.n_windows} decisions — {acted or 'none'}"
        )


# ---------------------------------------------------------------------------
# Derivation (the vectorized path and its scalar test reference)
# ---------------------------------------------------------------------------


def _empty_log(method, n_procs, centers, volumes, label, meta) -> DecisionLog:
    shape = centers.shape
    return DecisionLog(
        method=method,
        n_procs=int(n_procs),
        centers=centers.astype(np.int64),
        actions=np.zeros(shape, dtype=np.int8),
        ref_costs=np.zeros(shape),
        move_hops=np.zeros(shape),
        volumes=np.asarray(volumes, dtype=np.float64),
        n_candidates=np.zeros(shape, dtype=np.int64),
        runner_up=np.full(shape, -1, dtype=np.int64),
        runner_up_delta=np.full(shape, np.inf),
        tie=np.zeros(shape, dtype=bool),
        forced=np.zeros(shape, dtype=bool),
        label=label,
        meta=dict(meta or {}),
    )


def _normalize(costs, centers, dist, volumes, masks):
    costs = np.asarray(costs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.int64)
    dist = np.asarray(dist, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    if masks is not None:
        masks = np.broadcast_to(np.asarray(masks, dtype=bool), costs.shape)
    return costs, centers, dist, volumes, masks


def _apply_actions(log: DecisionLog, masks, evictions) -> None:
    """Fill ``log.actions`` from centers / forced flags / eviction coords."""
    centers, actions = log.centers, log.actions
    actions[:, 0] = ACTION_PLACE
    if log.n_windows > 1:
        same = centers[:, 1:] == centers[:, :-1]
        actions[:, 1:] = np.where(same, ACTION_HOLD, ACTION_MOVE)
    if masks is not None:
        # a placement or move whose unconstrained optimum was masked out
        # is a detour; a hold stays a hold even when its argmin is blocked
        actions[log.forced & (actions != ACTION_HOLD)] = ACTION_DETOUR
    for d, w in evictions or ():
        actions[d, w] = ACTION_EVICT


def derive_decisions(
    costs: np.ndarray,
    centers: np.ndarray,
    dist: np.ndarray,
    volumes: np.ndarray,
    *,
    method: str,
    masks: np.ndarray | None = None,
    evictions=None,
    label: str | None = None,
    meta: dict | None = None,
) -> DecisionLog:
    """Vectorized decision derivation for one solve.

    Parameters
    ----------
    costs:
        The solver's own ``(D, W, m)`` placement-cost tensor.
    centers:
        The solved ``(D, W)`` center matrix.
    dist:
        ``(m, m)`` metric distances (unweighted).
    volumes:
        ``(D,)`` per-datum movement volumes.
    masks:
        Optional admissibility: ``(D, W, m)`` (or ``(D, 1, m)``, broadcast
        across windows) boolean cells the solver was allowed to use.
    evictions:
        Iterable of ``(datum, window)`` coordinates where an idle hold
        was denied (LOMCDS capacity walk).
    """
    costs, centers, dist, volumes, masks = _normalize(
        costs, centers, dist, volumes, masks
    )
    n_data, n_windows, n_procs = costs.shape
    log = _empty_log(method, n_procs, centers, volumes, label, meta)
    if n_data == 0 or n_windows == 0:
        return log
    d_idx = np.arange(n_data)[:, None]
    w_idx = np.arange(n_windows)[None, :]
    log.ref_costs = costs[d_idx, w_idx, centers]
    if n_windows > 1:
        log.move_hops[:, 1:] = dist[centers[:, :-1], centers[:, 1:]]
    if masks is None:
        log.n_candidates[:] = n_procs
        admissible_costs = costs
    else:
        log.n_candidates = masks.sum(axis=2).astype(np.int64)
        best_all = costs.argmin(axis=2)
        log.forced = ~masks[d_idx, w_idx, best_all]
        admissible_costs = np.where(masks, costs, np.inf)
    contenders = admissible_costs.copy()
    contenders[d_idx, w_idx, centers] = np.inf
    runner_up = contenders.argmin(axis=2).astype(np.int64)
    ru_cost = contenders[d_idx, w_idx, runner_up]
    has_alternative = np.isfinite(ru_cost)
    log.runner_up = np.where(has_alternative, runner_up, -1)
    log.runner_up_delta = np.where(has_alternative, ru_cost - log.ref_costs, np.inf)
    log.tie = has_alternative & (ru_cost == log.ref_costs)
    _apply_actions(log, masks, evictions)
    return log


def derive_decisions_python(
    costs: np.ndarray,
    centers: np.ndarray,
    dist: np.ndarray,
    volumes: np.ndarray,
    *,
    method: str,
    masks: np.ndarray | None = None,
    evictions=None,
    label: str | None = None,
    meta: dict | None = None,
) -> DecisionLog:
    """Test reference for :func:`derive_decisions`, bit-identical to it.

    Loops cell by cell with strict ``<`` scans (first minimum wins, the
    codebase-wide lowest-pid tie-break); tests run it on a solve's
    recorded inputs as an oracle for the vectorized path.
    """
    costs, centers, dist, volumes, masks = _normalize(
        costs, centers, dist, volumes, masks
    )
    n_data, n_windows, n_procs = costs.shape
    log = _empty_log(method, n_procs, centers, volumes, label, meta)
    for d in range(n_data):
        for w in range(n_windows):
            chosen = int(centers[d, w])
            chosen_cost = float(costs[d, w, chosen])
            log.ref_costs[d, w] = chosen_cost
            if w > 0:
                log.move_hops[d, w] = dist[int(centers[d, w - 1]), chosen]
            n_adm = 0
            best_second = -1
            best_second_cost = np.inf
            for p in range(n_procs):
                if masks is not None and not masks[d, w, p]:
                    continue
                n_adm += 1
                if p == chosen:
                    continue
                value = float(costs[d, w, p])
                if value < best_second_cost:
                    best_second_cost = value
                    best_second = p
            log.n_candidates[d, w] = n_adm if masks is not None else n_procs
            if best_second >= 0 and np.isfinite(best_second_cost):
                log.runner_up[d, w] = best_second
                log.runner_up_delta[d, w] = best_second_cost - chosen_cost
                log.tie[d, w] = best_second_cost == chosen_cost
            if masks is not None:
                best_all = 0
                best_all_cost = float(costs[d, w, 0])
                for p in range(1, n_procs):
                    value = float(costs[d, w, p])
                    if value < best_all_cost:
                        best_all_cost = value
                        best_all = p
                log.forced[d, w] = not masks[d, w, best_all]
    _apply_actions(log, masks, evictions)
    return log


def record_decisions(
    obs,
    *,
    costs: np.ndarray,
    centers: np.ndarray,
    model,
    method: str,
    masks: np.ndarray | None = None,
    evictions=None,
    meta: dict | None = None,
) -> DecisionLog | None:
    """Derive and store a :class:`DecisionLog` when provenance is on.

    The single hook the schedulers call: a no-op (``None``) unless the
    resolved session's provenance store is recording.  Mirrors the
    evaluator's distance/volume conventions and records the solve as a
    ``provenance.solve`` flight event.
    """
    if not obs.provenance.recording:
        return None
    centers = np.asarray(centers)
    log = derive_decisions(
        costs,
        centers,
        np.asarray(model.distances, dtype=np.float64),
        model.volume_vector(centers.shape[0]),
        method=method,
        masks=masks,
        evictions=evictions,
        meta=meta,
    )
    obs.provenance.add(log)
    return log


# ---------------------------------------------------------------------------
# Session store (mirrors SpatialStore)
# ---------------------------------------------------------------------------


class ProvenanceStore:
    """Per-session holder of the decision logs recorded so far.

    ``recording`` gates the whole subsystem — schedulers check one
    attribute per solve and skip every derivation when it is off.
    """

    def __init__(self, recording: bool = False):
        self.recording = bool(recording)
        self.logs: list[DecisionLog] = []

    def add(self, log: DecisionLog) -> None:
        """Store a freshly derived log (and flight-record the solve)."""
        self.logs.append(log)
        record_event(
            "provenance.solve",
            method=log.method,
            label=log.label,
            n_data=log.n_data,
            n_windows=log.n_windows,
        )

    def clear(self) -> None:
        self.logs.clear()

    def __len__(self) -> int:
        return len(self.logs)
