"""Replay a schedule over a trace, hop by hop, one window at a time.

The analytic evaluator (:mod:`repro.core.evaluate`) computes the paper's
objective from the distance matrix; this module *executes* the schedule
on a :class:`~repro.sim.machine.PIMArray`: data are loaded at their
initial centers, relocated through the x-y router at every window
boundary, and every reference is serviced by a fetch message routed from
the datum's center to the referencing processor.

Because the metric is hop-additive and x-y routes realize the metric
distance, the replayed cost must equal the analytic cost *exactly* —
an end-to-end differential test of the whole stack (scheduler, allocator,
evaluator, router), enforced by the integration tests.

With ``track_links=True`` the report also carries per-link traffic, which
the paper's metric abstracts away (total volume per directed mesh link,
max link load) — used by the congestion extension bench.

With a non-empty :class:`~repro.faults.FaultPlan` the replay degrades
gracefully instead of crashing (see ``docs/fault-model.md``): residents
of a failed node are evacuated to surviving memories (charged to the
cost model), fetches are routed around dead links/nodes, transiently
dropped fetches are retried with exponential backoff up to a retry
budget, and every reference is accounted as delivered, dropped or
unreachable in the :class:`~repro.sim.SimReport`.  An *empty* plan takes
the exact fault-free code path, bit for bit.

One loop executes every window: :meth:`ReplayCursor.step`.  It serves a
healthy window vectorized and a faulted window event by event, and it
is all :func:`replay_schedule` runs — a cursor stepped to completion
inside the replay's spans.  The cursor also checkpoints, which is what
online recovery (:mod:`repro.faults.online`) builds on: ``snapshot()``
captures machine residency and every report accumulator as an immutable
:class:`Checkpoint` stamped with a sha256 content digest, ``restore()``
rewinds to one (a restore followed by a snapshot reproduces the digest
exactly), and ``rebind()`` swaps the schedule and/or fault plan mid-run.
The cursor records no spans of its own: its callers own the
observability story, and span emission never influences the report.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..core import CostModel, Schedule
from ..faults import FaultInjector, FaultPlan, RetryPolicy, plan_evacuation
from ..grid import FaultAwareRouter, XYRouter
from ..mem import CapacityError, CapacityPlan
from ..obs import Instrumentation, SpatialRecorder, resolve
from ..trace import Trace
from .machine import PIMArray, ResidencyError
from .stats import SimReport

__all__ = ["Checkpoint", "ReplayCursor", "replay_schedule"]


def replay_schedule(
    trace: Trace,
    schedule: Schedule,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    track_links: bool = False,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    evacuate: bool = True,
    instrument: Instrumentation | None = None,
) -> SimReport:
    """Execute ``schedule`` against ``trace`` and report observed costs.

    Parameters
    ----------
    trace:
        The access-event trace (its steps must span the schedule's
        windows).
    schedule:
        Per-datum, per-window centers to execute.
    model:
        Metric + per-datum volumes (must match the trace's array).
    capacity:
        When given, the machine enforces it at every instant; an
        over-committed schedule raises
        :class:`~repro.mem.CapacityError`.
    track_links:
        Route every transfer hop-by-hop and record per-link volumes
        (slower; off by default).
    faults:
        Optional :class:`~repro.faults.FaultPlan` to inject.  ``None`` or
        an empty plan replays the fault-free path unchanged.
    retry:
        Timeout/retry semantics for degraded fetches; defaults to
        :class:`~repro.faults.RetryPolicy`'s defaults.  Ignored without
        faults.
    evacuate:
        Whether a node failure triggers data evacuation to surviving
        memories.  With ``False`` the victims stay stranded and their
        references become unreachable (used to quantify what recovery
        buys).  Ignored without faults.
    instrument:
        Optional :class:`~repro.obs.Instrumentation`; defaults to the
        active (usually no-op) handle.  Tracing is strictly read-only —
        a replay is bit-identical with or without it.
    """
    obs = resolve(instrument)
    spatial, all_vols = _spatial_recorder(obs, schedule, model)
    cursor = ReplayCursor(
        trace, schedule, model, capacity=capacity, faults=faults,
        retry=retry, evacuate=evacuate, track_links=track_links,
        spatial=spatial,
    )
    report = cursor.report
    injector = cursor.injector
    with obs.span(
        "sim.replay",
        n_windows=cursor.n_windows,
        n_steps=trace.n_steps,
        method=schedule.method,
        faults=injector is not None,
    ):
        while not cursor.done:
            w = cursor.window
            with obs.span("sim.window", window=w) as window_span:
                local_before = report.n_local_fetches
                delivered_before = report.n_delivered
                hops = cursor.step()
                if spatial is not None:
                    spatial.close_window(
                        w, obs.tracer.now_us(), cursor.machine.locations(),
                        all_vols,
                    )
                if not obs.enabled:
                    continue
                fetches = int(len(cursor.window_events(w)))
                cost = float(report.per_window_cost[w])
                if injector is None:
                    obs.observe("sim.window_hops", hops)
                    obs.observe("sim.window_cost", cost)
                    window_span.set(
                        fetches=fetches,
                        local=report.n_local_fetches - local_before,
                        hops=hops,
                        cost=cost,
                    )
                else:
                    delivered = report.n_delivered - delivered_before
                    obs.observe("sim.window_cost", cost)
                    obs.observe("sim.window_delivered", delivered)
                    window_span.set(
                        fetches=fetches,
                        delivered=delivered,
                        down_nodes=len(injector.down_nodes(w)),
                        cost=cost,
                    )
        obs.count("sim.fetches", report.n_fetches)
        if injector is None:
            obs.count("sim.local_fetches", report.n_local_fetches)
            obs.count("sim.moves", report.n_moves)
            obs.count("sim.movement_volume", report.movement_cost)
        else:
            obs.count("sim.moves", report.n_moves)
            obs.count("faults.delivered", report.n_delivered)
            obs.count("faults.retries", report.n_retries)
            obs.count("faults.dropped", report.n_dropped)
            obs.count("faults.unreachable", report.n_unreachable)
            obs.count("faults.evacuated", report.n_evacuated)
            obs.count("faults.lost", report.n_lost)
            obs.count("faults.skipped_moves", report.n_skipped_moves)
    if spatial is not None:
        obs.spatial.add(spatial.finish())
    return cursor.finish()


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of a replay at a window boundary.

    ``window`` is the next window the restored cursor will execute; the
    state is everything accumulated by windows ``0 .. window-1``.  The
    ``digest`` is a content hash of residency + report, so rollback
    fidelity is checkable without field-by-field comparison.
    """

    window: int
    locations: np.ndarray
    report: SimReport
    digest: str

    def to_dict(self) -> dict:
        """Serializable record (diagnostic artifact, not a restore path)."""
        return {
            "kind": "checkpoint",
            "window": self.window,
            "locations": [int(p) for p in self.locations],
            "digest": self.digest,
            "report": self.report.to_dict(),
        }


def _state_digest(window: int, locations: np.ndarray, report: SimReport) -> str:
    """Content hash of the complete replay state at a window boundary."""
    h = hashlib.sha256()
    h.update(str(window).encode())
    h.update(np.ascontiguousarray(locations).tobytes())
    h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


class ReplayCursor:
    """Window-stepping replay of a schedule with snapshot/rollback.

    Construction mirrors :func:`replay_schedule`'s signature; ``faults``
    here is the plan the cursor *injects* (for online runs: the faults
    discovered so far, not the full ground-truth plan).  An empty plan
    takes the vectorized fault-free path; any non-empty plan takes the
    degraded per-event path.  ``on_unreachable``/``on_stranded`` are the
    degraded path's recovery hooks (see :meth:`_execute_faulted_window`);
    ``spatial`` is an optional :class:`~repro.obs.SpatialRecorder` every
    executed transfer is charged to (the caller closes its windows).
    """

    def __init__(
        self,
        trace: Trace,
        schedule: Schedule,
        model: CostModel,
        capacity=None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        evacuate: bool = True,
        track_links: bool = False,
        on_unreachable=None,
        on_stranded=None,
        spatial: SpatialRecorder | None = None,
    ) -> None:
        windows = schedule.windows
        if windows.n_steps != trace.n_steps:
            raise ValueError("schedule windows do not span the trace")
        if trace.n_data != schedule.n_data:
            raise ValueError("schedule and trace disagree on n_data")
        if trace.n_procs != model.n_procs:
            raise ValueError("trace and cost model disagree on the array size")
        self.trace = trace
        self.model = model
        self.capacity = capacity
        self.retry = retry or RetryPolicy()
        self.evacuate = evacuate
        self.track_links = track_links
        self.on_unreachable = on_unreachable
        self.on_stranded = on_stranded
        self.spatial = spatial
        self.n_windows = windows.n_windows

        self.machine = PIMArray(model.topology, capacity)
        self.machine.load_initial(schedule.initial_placement())
        self.report = SimReport(
            per_window_cost=np.zeros(self.n_windows),
            topology_shape=tuple(model.topology.shape),
        )
        event_windows = windows.assign(trace.steps)
        self._order = np.argsort(event_windows, kind="stable")
        self._boundaries = np.searchsorted(
            event_windows[self._order], np.arange(self.n_windows + 1)
        )
        self.window = 0
        # routes lazily: a dark healthy replay never asks it for links
        self._router = XYRouter(model.topology)
        self.schedule = schedule
        self.faults = FaultPlan()
        self.injector: FaultInjector | None = None
        self.rebind(schedule=schedule, faults=faults)

    # -- binding -------------------------------------------------------------

    def rebind(
        self,
        schedule: Schedule | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        """Swap the schedule and/or injected fault plan mid-run.

        The new schedule must cover the same trace/window horizon; past
        windows are history and are never re-validated.  Passing a fault
        plan replaces the injected set wholesale (the controller passes
        the full known-so-far plan each time, so window epochs stay
        consistent with ``newly_down`` accounting).
        """
        if schedule is not None:
            if schedule.n_windows != self.n_windows:
                raise ValueError("rebound schedule changes the window horizon")
            if schedule.n_data != self.trace.n_data:
                raise ValueError("rebound schedule changes the datum universe")
            self.schedule = schedule
        if faults is not None:
            self.faults = faults
            self.injector = (
                None
                if faults.is_empty
                else FaultInjector(faults, self.model.topology, self.n_windows)
            )

    # -- execution -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.window >= self.n_windows

    def window_events(self, w: int) -> np.ndarray:
        """Trace-event indices served by window ``w``."""
        return self._order[self._boundaries[w] : self._boundaries[w + 1]]

    def step(self) -> float:
        """Execute the next window and advance the cursor.

        Returns the window's unweighted fetch hops on a healthy array
        (``0.0`` under faults, where fetches are served one by one).
        """
        if self.done:
            raise RuntimeError("replay cursor already ran past the last window")
        w = self.window
        idx = self.window_events(w)
        hops = 0.0
        if self.injector is None:
            if w > 0:
                self._relocate_for_window(w)
            hops = self._serve_window_plain(w, idx)
            # a healthy array delivers every fetch it serves
            self.report.n_delivered += int(len(idx))
        else:
            self._execute_faulted_window(w, idx)
        self.window = w + 1
        return hops

    def run(self) -> SimReport:
        """Step through every remaining window and finish."""
        while not self.done:
            self.step()
        return self.finish()

    def finish(self) -> SimReport:
        """The completed report (call after the last window)."""
        if not self.done:
            raise RuntimeError(
                f"replay incomplete: {self.window}/{self.n_windows} windows"
            )
        return self.report

    # -- transfers -----------------------------------------------------------

    def _charge(self, w: int, links, volume: float) -> None:
        """Charge one routed transfer to the link accumulators that are on."""
        if self.track_links:
            self.report.add_link_traffic(links, volume)
        if self.spatial is not None:
            self.spatial.record(w, links, volume)

    def _serve_window_plain(self, w: int, idx: np.ndarray) -> float:
        """Serve window ``w``'s fetches on a healthy array (vectorized).

        The single source of truth for fault-free fetch accounting.
        Returns the window's unweighted fetch hops.  Each fetch is routed
        only when ``track_links`` or ``spatial`` asks for its links.
        """
        trace, model, report = self.trace, self.model, self.report
        procs = trace.procs[idx]
        data = trace.data[idx]
        counts = trace.counts[idx]
        centers = self.machine.locations()[data]
        expected = self.schedule.centers[data, w]
        diverged = np.nonzero(centers != expected)[0]
        if len(diverged):
            i = int(diverged[0])
            raise ResidencyError(
                f"machine residency diverged from the schedule: datum "
                f"{int(data[i])} resides at {int(centers[i])}, "
                f"scheduled at {int(expected[i])}",
                datum=int(data[i]),
                claimed=int(expected[i]),
                actual=int(centers[i]),
                window=w,
            )
        vols = (
            np.ones(len(idx))
            if model.volumes is None
            else np.asarray(model.volumes)[data]
        )
        hops = model.distances[centers, procs] * counts
        hop_costs = hops * vols
        report.reference_cost += float(hop_costs.sum())
        report.per_window_cost[w] += float(hop_costs.sum())
        report.n_fetches += int(len(idx))
        report.n_local_fetches += int((centers == procs).sum())
        if self.track_links or self.spatial is not None:
            for c, p, volume in zip(centers, procs, counts * vols):
                if c != p:
                    self._charge(
                        w, self._router.links(int(c), int(p)), float(volume)
                    )
        return float(hops.sum())

    def _relocate_for_window(self, w: int) -> None:
        """Perform all movements into window ``w`` and charge their cost."""
        model, report = self.model, self.report
        prev_centers = self.schedule.centers[:, w - 1]
        next_centers = self.schedule.centers[:, w]
        moved = np.nonzero(prev_centers != next_centers)[0]
        self.machine.relocate_batch(moved, next_centers[moved])
        for d in moved:
            src, dst = int(prev_centers[d]), int(next_centers[d])
            volume = model.volume(int(d))
            cost = float(model.distances[src, dst]) * volume
            report.movement_cost += cost
            report.per_window_cost[w] += cost
            report.n_moves += 1
            if self.track_links or self.spatial is not None:
                self._charge(w, self._router.links(src, dst), volume)

    def _execute_faulted_window(self, w: int, idx: np.ndarray) -> None:
        """Execute one window of a degraded replay (evacuate, move, fetch).

        The two optional hooks are the seams the ``replicate`` recovery
        mode plugs into:

        * ``on_unreachable(w, datum, proc, router, alive)`` may return
          the links of a replica fetch for a reference whose primary
          center is unreachable; the cursor serves it like any fetch,
          and ``None`` records the reference as unreachable;
        * ``on_stranded(datum, src, w)`` may salvage a datum evacuation
          could not place; return ``True`` to suppress the loss record.
        """
        trace, model, report = self.trace, self.model, self.report
        router = self.injector.router(w)
        alive = self.injector.alive_mask(w)

        newly_down = self.injector.newly_down(w)
        if newly_down:
            if self.evacuate:
                self._evacuate_nodes(w, newly_down)
            else:
                for pid in newly_down:
                    report.n_lost += len(self.machine.residents(pid))

        if w > 0:
            self._relocate_degraded(w, alive, router)

        locations = self.machine.locations()
        for i in idx:
            i = int(i)
            p = int(trace.procs[i])
            d = int(trace.data[i])
            volume = float(trace.counts[i]) * model.volume(d)
            center = int(locations[d])
            report.n_fetches += 1
            links = None
            if alive[p] and alive[center]:
                links = router.links(center, p)
            if links is None and self.on_unreachable is not None:
                links = self.on_unreachable(w, d, p, router, alive)
            if links is None:
                self._record_unreachable()
            else:
                self._attempt_fetch(w, i, links, volume)

    def _record_unreachable(self) -> None:
        """A reference whose center cannot be reached at all: the requester
        burns its full timeout/backoff budget, then gives up."""
        self.report.n_unreachable += 1
        self.report.n_retries += self.retry.max_retries
        self.report.retry_wait_cycles += self.retry.total_timeout_cycles()

    def _attempt_fetch(self, w: int, event: int, links, volume: float) -> None:
        """Deliver one fetch over ``links``, retrying transient drops."""
        report, retry = self.report, self.retry
        hops = len(links)
        if hops == 0:
            # local memory access: no wire, nothing to drop
            report.n_local_fetches += 1
            report.n_delivered += 1
            return
        for attempt in range(retry.max_attempts):
            dropped = self.injector.drops(w, event, attempt)
            # the message occupies the wires whether or not it survives
            self._charge(w, links, volume)
            if not dropped:
                cost = hops * volume
                report.reference_cost += cost
                report.per_window_cost[w] += cost
                report.n_delivered += 1
                return
            report.retry_cost += hops * volume
            report.retry_wait_cycles += retry.wait_cycles(attempt)
            if attempt < retry.max_retries:
                report.n_retries += 1
        report.n_dropped += 1

    def _evacuate_nodes(self, w: int, newly_down: frozenset[int]) -> None:
        """Relocate every resident of the just-failed nodes to survivors.

        Victims go to their scheduled center for window ``w`` when it is
        alive with headroom, otherwise to the nearest surviving node with
        a free slot; relocation traffic is charged to ``evacuation_cost``
        at the surviving-route hop count.  ``on_stranded(datum, src, w)``
        may salvage a victim no survivor can hold (replica promotion);
        returning ``True`` suppresses the ``n_lost`` record.
        """
        machine, report, on_stranded = self.machine, self.report, self.on_stranded
        capacities = (
            None if machine.capacity is None else machine.capacity.capacities
        )
        locations = machine.locations()
        moves, stranded = plan_evacuation(
            locations,
            machine.memory_load(),
            capacities,
            newly_down,
            self.injector.alive_mask(w),
            self.model.distances,
            preferred=self.schedule.centers[:, w],
        )
        for datum in stranded:
            if on_stranded is None or not on_stranded(
                int(datum), int(locations[datum]), w
            ):
                report.n_lost += 1
        for move in moves:
            router = self.injector.recovery_router(w, move.src)
            links = router.links(move.src, move.dst)
            if links is None:
                if on_stranded is None or not on_stranded(
                    move.datum, move.src, w
                ):
                    report.n_lost += 1
                continue
            machine.relocate(move.datum, move.src, move.dst)
            volume = self.model.volume(move.datum)
            cost = len(links) * volume
            report.evacuation_cost += cost
            report.per_window_cost[w] += cost
            report.n_evacuated += 1
            self._charge(w, links, volume)

    def _relocate_degraded(
        self, w: int, alive: np.ndarray, router: FaultAwareRouter
    ) -> None:
        """Scheduled movements into window ``w`` on a degraded array.

        A move is skipped — the datum stays put — when its source or
        target node is dead, when faults partition the mesh between them,
        or when the target memory is full (degraded relocation is
        sequential, so the fault-free batch-swap guarantee does not
        apply).
        """
        report = self.report
        current = self.machine.locations()
        targets = self.schedule.centers[:, w]
        for d in np.nonzero(current != targets)[0]:
            d = int(d)
            src, dst = int(current[d]), int(targets[d])
            if not alive[src] or not alive[dst]:
                report.n_skipped_moves += 1
                continue
            links = router.links(src, dst)
            if links is None:
                report.n_skipped_moves += 1
                continue
            try:
                self.machine.relocate(d, src, dst)
            except CapacityError:
                report.n_skipped_moves += 1
                continue
            volume = self.model.volume(d)
            cost = len(links) * volume
            report.movement_cost += cost
            report.per_window_cost[w] += cost
            report.n_moves += 1
            self._charge(w, links, volume)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> Checkpoint:
        """Capture the full replay state at the current window boundary."""
        locations = self.machine.locations()
        report = copy.deepcopy(self.report)
        return Checkpoint(
            window=self.window,
            locations=locations,
            report=report,
            digest=_state_digest(self.window, locations, self.report),
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rewind to ``checkpoint``: residency, report and window index.

        The checkpoint's own arrays stay untouched (copies are installed),
        so one checkpoint can be restored any number of times.
        """
        self.machine.load_initial(checkpoint.locations)
        self.report = copy.deepcopy(checkpoint.report)
        self.window = checkpoint.window

    def state_digest(self) -> str:
        """Digest of the live state; equals ``snapshot().digest``."""
        return _state_digest(self.window, self.machine.locations(), self.report)


def _spatial_recorder(obs, schedule, model, label: str | None = None):
    """A recorder (and per-datum volume vector) when the session asks for
    spatial telemetry; ``(None, None)`` on every uninstrumented path."""
    if not (obs.enabled and obs.spatial.recording):
        return None, None
    vols = model.volume_vector(schedule.n_data)
    recorder = SpatialRecorder(
        model.topology,
        schedule.windows.n_windows,
        label=schedule.method if label is None else label,
    )
    return recorder, vols
