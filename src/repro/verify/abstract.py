"""Abstract interpretation of schedules: exact static semantics.

The interpreter walks the schedule window by window with a product of
three abstract domains:

* **residency intervals** — per-datum live ranges ``(processor, first
  window, last window)``, the interval abstraction of where each datum
  lives;
* **occupancy counts** — per ``(window, processor)`` resident totals,
  the counting abstraction the capacity check (``VER001``) consumes;
* **link-volume accumulation** — per-window, per-directed-link traffic
  derived by routing every fetch and relocation through the same x-y
  router the simulator uses.

Because residency and x-y routing are deterministic, every domain is
*exact*: the abstraction equals the collecting semantics of the replay,
which is what entitles the differential gate (:mod:`.differential`) to
demand bit-agreement with :class:`~repro.obs.SpatialTrace` ground truth
rather than mere bounds.

Under a :class:`~repro.faults.FaultPlan` the interpreter mirrors the
degraded replay semantics step for step — evacuation of a failed node's
residents, skipped relocations, fault-aware detour routes, deterministic
transient drops with retries — so the faulted differential gate is just
as strict.  The faulted model assumes the replay runs without runtime
capacity enforcement (degraded relocation is sequential, so transient
occupancy is an execution-order artifact the static layer deliberately
does not model); capacity itself is checked statically via ``VER001``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.evaluate import _check_compatible
from ..diagnostics import VER001, VER002, VER003, VER004, Diagnostic, Severity
from ..faults import FaultInjector, FaultPlan, RetryPolicy, plan_evacuation
from ..grid import Link, XYRouter, link_key, mesh_links
from ..mem import CapacityPlan
from ..trace import ReferenceTensor, Trace

__all__ = ["StaticPrediction", "interpret_schedule"]

#: cap on diagnostics emitted per check (mirrors the lint engine's cap).
MAX_DIAGNOSTICS_PER_CHECK = 25


@dataclass
class StaticPrediction:
    """What the abstract interpreter claims the replay will observe.

    Cost totals, per-window link volumes and delivery counters follow
    the exact accounting conventions of
    :func:`repro.sim.replay_schedule`, so every field can be compared
    against its dynamic counterpart without translation.
    """

    reference_cost: float = 0.0
    movement_cost: float = 0.0
    evacuation_cost: float = 0.0
    retry_cost: float = 0.0
    per_window_cost: np.ndarray = field(default_factory=lambda: np.zeros(0))
    window_links: list[dict[Link, float]] = field(default_factory=list)
    occupancy: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    live_ranges: list[list[tuple[int, int, int]]] = field(default_factory=list)
    n_fetches: int = 0
    n_local_fetches: int = 0
    n_delivered: int = 0
    n_moves: int = 0
    n_skipped_moves: int = 0
    n_evacuated: int = 0
    n_lost: int = 0
    n_unreachable: int = 0
    n_dropped: int = 0
    n_retries: int = 0
    faulted: bool = False

    @property
    def total(self) -> float:
        """Fault-free objective: reference + movement (paper's metric)."""
        return self.reference_cost + self.movement_cost

    def link_totals(self) -> dict[Link, float]:
        """Total predicted volume per directed link over all windows."""
        totals: dict[Link, float] = {}
        for per_window in self.window_links:
            for link, volume in per_window.items():
                totals[link] = totals.get(link, 0.0) + volume
        return totals

    def to_dict(self) -> dict:
        return {
            "reference_cost": self.reference_cost,
            "movement_cost": self.movement_cost,
            "evacuation_cost": self.evacuation_cost,
            "retry_cost": self.retry_cost,
            "total": self.total,
            "n_fetches": self.n_fetches,
            "n_local_fetches": self.n_local_fetches,
            "n_delivered": self.n_delivered,
            "n_moves": self.n_moves,
            "n_skipped_moves": self.n_skipped_moves,
            "n_evacuated": self.n_evacuated,
            "n_lost": self.n_lost,
            "n_unreachable": self.n_unreachable,
            "n_dropped": self.n_dropped,
            "link_traffic": float(sum(self.link_totals().values())),
            "faulted": self.faulted,
        }


def _live_ranges(centers: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """Run-length encode each datum's center row into residency intervals."""
    n_data, n_windows = centers.shape
    starts = np.ones(centers.shape, dtype=bool)
    starts[:, 1:] = centers[:, 1:] != centers[:, :-1]
    data, first = np.nonzero(starts)  # datum-major, windows ascending
    last = np.full(len(first), n_windows - 1)
    same_datum = data[1:] == data[:-1]
    last[:-1][same_datum] = first[1:][same_datum] - 1
    ranges: list[list[tuple[int, int, int]]] = [[] for _ in range(n_data)]
    for d, p, a, b in zip(
        data.tolist(), centers[data, first].tolist(), first.tolist(),
        last.tolist(),
    ):
        ranges[d].append((p, a, b))
    return ranges


def _add_links(bucket: dict[Link, float], links: list[Link], volume: float):
    for link in links:
        bucket[link] = bucket.get(link, 0.0) + volume


def interpret_schedule(
    schedule,
    tensor: ReferenceTensor,
    model,
    trace: Trace | None = None,
    capacity: CapacityPlan | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    *,
    link_budget: float | None = None,
    hotspot_factor: float | None = None,
) -> tuple[StaticPrediction | None, list[Diagnostic]]:
    """Statically derive the replay's observable behaviour, with checks.

    Returns ``(prediction, diagnostics)``.  ``prediction`` is ``None``
    only when the schedule cannot be interpreted at all (centers outside
    the array), in which case a ``VER002`` error explains why.

    The checks emitted here are the abstract-interpretation pillar of
    ``repro certify``:

    * ``VER001`` — abstract occupancy exceeds a processor's capacity;
    * ``VER002`` — unreachable placement: center outside the array, a
      center/endpoint down in its window, an unroutable relocation, or
      an evacuation that strands a datum;
    * ``VER003`` — a directed link's total predicted volume exceeds the
      configured budget (or ``hotspot_factor``× the all-wires mean);
    * ``VER004`` — dead data movement: a relocation serving no reference
      that is *strictly* costlier than bypassing the stop.

    Raises ``ValueError`` when ``tensor`` does not fit the schedule or
    the model.
    """
    _check_compatible(schedule, tensor, model)
    diagnostics: list[Diagnostic] = []
    n_procs = model.n_procs
    centers = schedule.centers
    if centers.size and int(centers.max()) >= n_procs:
        d, w = (
            int(x)
            for x in np.unravel_index(int(centers.argmax()), centers.shape)
        )
        diagnostics.append(
            Diagnostic(
                code=VER002,
                severity=Severity.ERROR,
                message=(
                    f"center {int(centers[d, w])} is outside the "
                    f"{n_procs}-processor array; the schedule cannot be "
                    "interpreted"
                ),
                datum=d,
                window=w,
                processor=int(centers[d, w]),
                hint="regenerate the schedule for this topology",
            )
        )
        return None, diagnostics

    if faults is not None and not faults.is_empty:
        prediction = _interpret_faulted(
            schedule, tensor, model, trace, faults, retry or RetryPolicy(),
            diagnostics,
        )
    else:
        prediction = _interpret_fault_free(
            schedule, tensor, model, trace, diagnostics
        )

    _check_occupancy(prediction.occupancy, capacity, diagnostics)
    _check_hotspots(
        prediction, model.topology, link_budget, hotspot_factor, diagnostics
    )
    return prediction, diagnostics


# ---------------------------------------------------------------------------
# Fault-free interpretation (vectorized)
# ---------------------------------------------------------------------------


def _interpret_fault_free(
    schedule, tensor, model, trace, diagnostics
) -> StaticPrediction:
    centers = schedule.centers
    n_data, n_windows = centers.shape
    counts = tensor.counts  # (D, W, m)
    dist = model.distances
    vols = model.volume_vector(n_data)

    # reference cost: for every (d, w) the schedule picks one row of the
    # distance matrix; movement cost prices each center transition
    ref_dw = (dist[centers] * counts).sum(axis=2) * vols[:, None]  # (D, W)
    per_window = ref_dw.sum(axis=0)
    reference_cost = float(per_window.sum())

    # movement cost, charged to the window moved *into*; np.add.at and
    # cumsum add in move order, as a per-move loop would
    moves = schedule.movement_array()
    cost = dist[moves[:, 2], moves[:, 3]] * vols[moves[:, 0]]
    per_window = per_window.copy()
    np.add.at(per_window, moves[:, 1], cost)
    movement_cost = float(np.cumsum(cost)[-1]) if len(cost) else 0.0

    window_links = _fault_free_links(
        model.topology, centers, counts, vols, moves
    )

    _check_dead_movements(moves, centers, counts, dist, diagnostics)

    n_fetches = n_local = 0
    if trace is not None:
        event_windows = schedule.windows.assign(trace.steps)
        n_fetches = int(len(trace.steps))
        n_local = int(
            (centers[trace.data, event_windows] == trace.procs).sum()
        )

    return StaticPrediction(
        reference_cost=reference_cost,
        movement_cost=movement_cost,
        per_window_cost=per_window,
        window_links=window_links,
        occupancy=schedule.occupancy(model.n_procs),
        live_ranges=_live_ranges(centers),
        n_fetches=n_fetches,
        n_local_fetches=n_local,
        n_delivered=n_fetches,
        n_moves=len(moves),
        faulted=False,
    )


def _fault_free_links(topology, centers, counts, vols, moves):
    """Per-window link volumes of every fetch and move on a healthy array.

    Fetches are charged to their own window, moves to the window moved
    into.  Integer volumes are binned in numpy (:func:`_bin_links`); any
    other volume takes the per-transfer loop, whose order the replay
    shares.
    """
    n_windows = centers.shape[1]
    d, w, p = np.nonzero(counts)
    c = centers[d, w]
    remote = c != p
    d, w, p, c = d[remote], w[remote], p[remote], c[remote]
    win = np.concatenate([w, moves[:, 1]])
    src = np.concatenate([c, moves[:, 2]])
    dst = np.concatenate([p, moves[:, 3]])
    vol = np.concatenate(
        [counts[d, w, p].astype(np.float64) * vols[d], vols[moves[:, 0]]]
    )

    router = XYRouter(topology)
    window_links: list[dict[Link, float]] = [{} for _ in range(n_windows)]
    if not len(vol):
        return window_links
    if not (np.all(np.floor(vol) == vol) and np.abs(vol).sum() < 2.0**53):
        for t, a, b, v in zip(
            win.tolist(), src.tolist(), dst.tolist(), vol.tolist()
        ):
            _add_links(window_links[t], router.links(a, b), v)
        return window_links
    _bin_links(window_links, _link_ids(topology), router.links, win, src,
               dst, vol)
    return window_links


def _link_ids(topology) -> dict[Link, int]:
    """Each directed mesh link's index in the sorted :func:`mesh_links`."""
    return {link: i for i, link in enumerate(mesh_links(topology))}


def _bin_links(window_links, link_id, route, win, src, dst, vol):
    """Add integer transfer volumes to the links of their routes.

    Transfer ``i`` carries ``vol[i]`` from ``src[i]`` to ``dst[i]`` in
    window ``win[i]``.  Transfers are grouped by ``(window, src, dst)``,
    each distinct ``(src, dst)`` pair is routed once with ``route``, its
    route is expanded from CSR arrays of link ids, and the link ids are
    binned onto ``(window, link)`` with one bincount.  Integer sums below
    2**53 are exact in any order, so ``window_links`` ends equal to the
    per-transfer sum bit for bit.

    Returns each transfer's hop count, ``-1`` where ``route`` gives
    ``None`` (those transfers add nothing).
    """
    links = list(link_id)
    m = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    groups, group_of = np.unique((win * m + src) * m + dst, return_inverse=True)
    group_vol = np.bincount(group_of, weights=vol, minlength=len(groups))
    pairs, pair_of = np.unique(groups % (m * m), return_inverse=True)
    routes = [route(pair // m, pair % m) for pair in pairs.tolist()]
    lengths = np.fromiter(
        (-1 if r is None else len(r) for r in routes), dtype=np.int64,
        count=len(routes),
    )
    route_links = np.fromiter(
        (link_id[link] for r in routes if r is not None for link in r),
        dtype=np.int64, count=int(lengths[lengths > 0].sum()),
    )
    hops = np.maximum(lengths, 0)
    starts = np.cumsum(hops) - hops

    reps = hops[pair_of]  # hops of each group's route
    first = np.cumsum(reps) - reps
    hop = np.arange(int(reps.sum())) - np.repeat(first, reps)
    link = route_links[np.repeat(starts[pair_of], reps) + hop]
    cell = np.repeat(groups // (m * m), reps) * len(links) + link
    volume = np.bincount(cell, weights=np.repeat(group_vol, reps))
    touched = np.flatnonzero(volume)  # volumes are positive
    for t, i, v in zip(
        *(x.tolist() for x in np.divmod(touched, len(links))),
        volume[touched].tolist(),
    ):
        bucket = window_links[t]
        bucket[links[i]] = bucket.get(links[i], 0.0) + v
    return lengths[pair_of][group_of]


# ---------------------------------------------------------------------------
# Faulted interpretation (mirrors the degraded replay event by event)
# ---------------------------------------------------------------------------


def _interpret_faulted(
    schedule, tensor, model, trace, faults, retry, diagnostics
) -> StaticPrediction:
    if trace is None:
        raise ValueError(
            "faulted interpretation needs the trace (drops and retries "
            "are per-event)"
        )
    centers = schedule.centers
    n_data, n_windows = centers.shape
    n_procs = model.n_procs
    dist = model.distances
    vols = model.volume_vector(n_data)
    injector = FaultInjector(faults, model.topology, n_windows)

    pred = StaticPrediction(
        per_window_cost=np.zeros(n_windows),
        window_links=[{} for _ in range(n_windows)],
        occupancy=np.zeros((n_windows, n_procs), dtype=np.int64),
        live_ranges=_live_ranges(centers),
        faulted=True,
    )

    _check_dead_placements(schedule, injector, diagnostics)

    event_windows = schedule.windows.assign(trace.steps)
    order = np.argsort(event_windows, kind="stable")
    boundaries = np.searchsorted(
        event_windows[order], np.arange(n_windows + 1)
    )
    # without drops every fetch is delivered on its first attempt or never,
    # so the fetches are served in numpy after the walk.  Integer costs keep
    # the reordered sums exact: every fetch, plus at most one evacuation and
    # one relocation per datum in a window, each under n_procs hops
    fetched = float((trace.counts * vols[trace.data]).sum())
    served = None
    if (
        faults.drop_rate <= 0.0
        and (vols == np.floor(vols)).all()
        and (fetched + 2.0 * n_data * float(vols.max(initial=0.0)))
        * n_procs < 2.0**53
    ):
        served = []

    loc = schedule.initial_placement()
    for w in range(n_windows):
        router = injector.router(w)
        alive = injector.alive_mask(w)

        newly_down = injector.newly_down(w)
        if newly_down:
            _model_evacuation(
                pred, schedule, model, injector, w, newly_down, loc, vols,
                dist, diagnostics,
            )
        if w > 0:
            _model_relocation(
                pred, centers, w, alive, router, loc, vols, diagnostics
            )

        pred.occupancy[w] = np.bincount(loc, minlength=n_procs)

        events = order[boundaries[w] : boundaries[w + 1]]
        if served is not None:
            served.append((w, router, events, loc[trace.data[events]]))
            continue
        for i in events:
            i = int(i)
            p = int(trace.procs[i])
            d = int(trace.data[i])
            volume = float(trace.counts[i]) * float(vols[d])
            center = int(loc[d])
            pred.n_fetches += 1
            if not alive[p] or not alive[center]:
                pred.n_unreachable += 1
                pred.n_retries += retry.max_retries
                continue
            links = router.links(center, p)
            if links is None:
                pred.n_unreachable += 1
                pred.n_retries += retry.max_retries
                continue
            _model_fetch(pred, injector, retry, w, i, links, volume)

    if served:
        _model_fetches(pred, model.topology, retry, trace, vols, served)
    return pred


def _model_evacuation(
    pred, schedule, model, injector, w, newly_down, loc, vols, dist,
    diagnostics,
):
    """Mirror :meth:`repro.sim.ReplayCursor._evacuate_nodes` (unbounded memory)."""
    moves, stranded = plan_evacuation(
        loc,
        np.bincount(loc, minlength=model.n_procs),
        None,
        newly_down,
        injector.alive_mask(w),
        dist,
        preferred=schedule.centers[:, w],
    )
    for datum in stranded:
        pred.n_lost += 1
        _emit(
            diagnostics,
            Diagnostic(
                code=VER002,
                severity=Severity.ERROR,
                message=(
                    "evacuation strands this datum: no surviving node can "
                    "take it"
                ),
                datum=int(datum),
                window=w,
                processor=int(loc[datum]),
                hint="add memory headroom or shrink the fault plan",
            ),
        )
    for move in moves:
        links = injector.recovery_router(w, move.src).links(move.src, move.dst)
        if links is None:
            pred.n_lost += 1
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER002,
                    severity=Severity.ERROR,
                    message=(
                        f"evacuation of this datum from {move.src} to "
                        f"{move.dst} has no surviving route"
                    ),
                    datum=move.datum,
                    window=w,
                    processor=move.src,
                ),
            )
            continue
        loc[move.datum] = move.dst
        volume = float(vols[move.datum])
        cost = len(links) * volume
        pred.evacuation_cost += cost
        pred.per_window_cost[w] += cost
        pred.n_evacuated += 1
        _add_links(pred.window_links[w], links, volume)


def _model_relocation(pred, centers, w, alive, router, loc, vols, diagnostics):
    """Mirror :meth:`repro.sim.ReplayCursor._relocate_degraded` (no capacity)."""
    for d in np.nonzero(loc != centers[:, w])[0]:
        d = int(d)
        src, dst = int(loc[d]), int(centers[d, w])
        links = None
        if alive[src] and alive[dst]:
            links = router.links(src, dst)
        if links is None:
            pred.n_skipped_moves += 1
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER002,
                    severity=Severity.ERROR,
                    message=(
                        f"scheduled relocation {src} -> {dst} cannot be "
                        "realized (dead endpoint or severed route); the "
                        "datum stays put and residency diverges from the "
                        "schedule"
                    ),
                    datum=d,
                    window=w,
                    processor=dst,
                    hint="recompute the schedule with "
                    "reschedule_around_faults",
                ),
            )
            continue
        loc[d] = dst
        volume = float(vols[d])
        cost = len(links) * volume
        pred.movement_cost += cost
        pred.per_window_cost[w] += cost
        pred.n_moves += 1
        _add_links(pred.window_links[w], links, volume)


def _model_fetches(pred, topology, retry, trace, vols, served):
    """Every drop-free fetch of the run, served at once.

    The per-event loop with :func:`_model_fetch` for a plan without drops:
    a fetch with a dead endpoint or no surviving route is unreachable
    (all its retries time out), any other is delivered on the first try.
    ``served`` holds ``(window, router, events, sources)`` per window:
    its fetch events and where each fetched datum resides.  The fetches
    of one fault epoch share its router, whose ``links`` is ``None`` for a
    dead endpoint or a cut-off pair, and are routed and binned by one
    :func:`_bin_links`.
    """
    win = np.concatenate([np.full(len(x[2]), x[0]) for x in served])
    events = np.concatenate([x[2] for x in served])
    sources = np.concatenate([x[3] for x in served])
    procs = trace.procs[events]
    volume = trace.counts[events] * vols[trace.data[events]]
    link_id = _link_ids(topology)
    hops = np.empty(len(events), dtype=np.int64)
    for router in dict.fromkeys(x[1] for x in served):
        epoch = np.isin(win, [x[0] for x in served if x[1] is router])
        if epoch.any():
            hops[epoch] = _bin_links(
                pred.window_links, link_id, router.links, win[epoch],
                sources[epoch], procs[epoch], volume[epoch],
            )
    unreachable = int((hops < 0).sum())
    local = int((hops == 0).sum())
    cost = np.where(hops > 0, hops * volume, 0.0)
    pred.n_fetches += len(events)
    pred.n_unreachable += unreachable
    pred.n_retries += unreachable * retry.max_retries
    pred.n_local_fetches += local
    pred.n_delivered += len(events) - unreachable
    pred.reference_cost += float(cost.sum())
    pred.per_window_cost += np.bincount(
        win, weights=cost, minlength=len(pred.per_window_cost)
    )


def _model_fetch(pred, injector, retry, w, event, links, volume):
    """Mirror :meth:`repro.sim.ReplayCursor._attempt_fetch` (deterministic drops)."""
    hops = len(links)
    if hops == 0:
        pred.n_local_fetches += 1
        pred.n_delivered += 1
        return
    for attempt in range(retry.max_attempts):
        dropped = injector.drops(w, event, attempt)
        _add_links(pred.window_links[w], links, volume)
        if not dropped:
            cost = hops * volume
            pred.reference_cost += cost
            pred.per_window_cost[w] += cost
            pred.n_delivered += 1
            return
        pred.retry_cost += hops * volume
        if attempt < retry.max_retries:
            pred.n_retries += 1
    pred.n_dropped += 1


def _check_dead_placements(schedule, injector, diagnostics):
    """VER002: the schedule stores a datum on a node down in that window."""
    centers = schedule.centers
    emitted = 0
    for w in range(schedule.n_windows):
        down = injector.down_nodes(w)
        if not down:
            continue
        for d in np.nonzero(np.isin(centers[:, w], list(down)))[0]:
            emitted += 1
            if emitted > MAX_DIAGNOSTICS_PER_CHECK:
                return
            diagnostics.append(
                Diagnostic(
                    code=VER002,
                    severity=Severity.ERROR,
                    message=(
                        f"scheduled center {int(centers[d, w])} is down "
                        "during this window (unreachable placement)"
                    ),
                    datum=int(d),
                    window=w,
                    processor=int(centers[d, w]),
                    hint="recompute the schedule with "
                    "reschedule_around_faults",
                )
            )


# ---------------------------------------------------------------------------
# Checks over the derived domains
# ---------------------------------------------------------------------------


def _emit(diagnostics: list, diag: Diagnostic) -> None:
    same_code = sum(1 for d in diagnostics if d.code == diag.code)
    if same_code < MAX_DIAGNOSTICS_PER_CHECK:
        diagnostics.append(diag)


def _check_occupancy(occupancy, capacity, diagnostics):
    """VER001: abstract occupancy exceeds a processor's memory capacity."""
    if capacity is None:
        return
    capacities = capacity.capacities
    if occupancy.shape[1] != len(capacities):
        return
    for w, p in zip(*np.nonzero(occupancy > capacities[None, :])):
        _emit(
            diagnostics,
            Diagnostic(
                code=VER001,
                severity=Severity.ERROR,
                message=(
                    f"abstract occupancy {int(occupancy[w, p])} exceeds "
                    f"the capacity of {int(capacities[p])} data items"
                ),
                window=int(w),
                processor=int(p),
                hint="re-solve with the capacity-constrained scheduler",
            ),
        )


def _check_hotspots(
    prediction, topology, link_budget, hotspot_factor, diagnostics
):
    """VER003: statically derived per-link volume exceeds the budget.

    Disabled unless a budget (absolute) or hotspot factor (relative to
    the all-wires mean) is configured — hot links are a property of the
    workload, not a defect, so the threshold is the caller's call.
    """
    if link_budget is None and hotspot_factor is None:
        return
    totals = prediction.link_totals()
    if not totals:
        return
    budget = link_budget
    if budget is None:
        n_wires = max(1, len(mesh_links(topology)))
        budget = hotspot_factor * (sum(totals.values()) / n_wires)
    # ties break by link, so the order (and the capped set) is stable
    for link, volume in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
        if volume <= budget:
            break
        _emit(
            diagnostics,
            Diagnostic(
                code=VER003,
                severity=Severity.WARNING,
                message=(
                    f"link {link_key(link, topology.shape)} carries a "
                    f"predicted volume of {volume:g}, above the budget "
                    f"of {budget:g}"
                ),
                processor=int(link[0]),
                hint="spread hot data with a congestion-aware capacity "
                "plan or larger array",
            ),
        )


def _check_dead_movements(moves, centers, counts, dist, diagnostics):
    """VER004: a move that serves no reference and strictly wastes cost.

    A relocation into window ``w`` is *dead* when the datum is never
    referenced before its next move (or the end of the run).  Dead moves
    are only flagged when strictly wasteful — the triangle inequality
    made strict — so an optimal schedule can never trigger this.  The
    references between two moves come from per-datum prefix sums of the
    referenced counts over windows; ``moves`` is
    :meth:`Schedule.movement_array`, datum-major, so diagnostics come out
    in the order of :meth:`Schedule.movements`.
    """
    if not len(moves):
        return
    n_windows = centers.shape[1]
    datum, w, src, dst = moves.T
    w_next = np.full(len(moves), n_windows)
    same = datum[1:] == datum[:-1]
    w_next[:-1][same] = w[1:][same]
    refs = counts.sum(axis=2)  # (D, W) references per window
    prefix = np.zeros((len(refs), n_windows + 1), dtype=refs.dtype)
    np.cumsum(refs, axis=1, out=prefix[:, 1:])
    dead = prefix[datum, w_next] == prefix[datum, w]
    final = w_next == n_windows
    nxt = centers[datum, np.minimum(w_next, n_windows - 1)]
    wasted = np.where(
        final,
        dist[src, dst] > 0,
        dist[src, dst] + dist[dst, nxt] > dist[src, nxt],
    )
    flagged = np.flatnonzero(dead & wasted)[:MAX_DIAGNOSTICS_PER_CHECK]
    for i in flagged.tolist():
        d, s, t = int(datum[i]), int(src[i]), int(dst[i])
        if final[i]:
            hint = "drop the final relocation; nothing reads the datum"
        else:
            hint = f"route {s} -> {int(nxt[i])} directly"
        _emit(
            diagnostics,
            Diagnostic(
                code=VER004,
                severity=Severity.WARNING,
                message=(
                    f"dead data movement: the relocation "
                    f"{s} -> {t} serves no reference before "
                    "the datum moves again and strictly wastes "
                    "volume"
                ),
                datum=d,
                window=int(w[i]),
                processor=t,
                hint=hint,
            ),
        )
