"""Batch fan-out: solve many scheduling requests as one operation.

``schedule_many`` is the throughput face of the :func:`repro.schedule`
facade.  It takes a list of :class:`ScheduleRequest` descriptions and
returns one schedule per request, in request order, with three
optimizations stacked underneath:

* **dedup** — requests that canonicalize to the same content address
  (:func:`repro.engine.cache.solve_key`) are solved once;
* **cache** — an optional shared :class:`~repro.engine.cache.SolveCache`
  answers repeats across batches (and across processes, via its disk
  store) without running a solver;
* **fan-out** — remaining unique solves dispatch over a process pool
  when ``workers > 1``.

Result ordering is deterministic and *independent of worker count*:
outputs are keyed by content address and re-assembled in request order,
so ``workers=8`` returns exactly what ``workers=1`` returns.

Telemetry is harvested across the process boundary: when the parent
runs under a recording :class:`~repro.obs.Instrumentation`, each pool
worker solves with its *own* recording session, flattens it into a
picklable :class:`~repro.obs.TelemetrySnapshot` (spans, counters,
histograms, flight-recorder events) returned alongside the result, and
the parent merges every snapshot back with per-worker ``worker``/
``worker_pid`` attribution — one unified timeline, whole-batch
``engine.cache.*`` counters.  Telemetry never changes schedules: the
worker session is observational and the cache key excludes
``instrument`` by construction.  The inline ``workers=1`` path records
the same ``engine.*`` counter set, so summaries are comparable across
worker counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

from ..core import Schedule, scheduler_spec
from ..obs import (
    Instrumentation,
    flight_recorder,
    merge_snapshot,
    record_event,
    resolve,
    snapshot,
)
from ..obs.recorder import dump_on_error
from .cache import SolveCache, solve_key

__all__ = ["ScheduleRequest", "schedule_many"]


@dataclass(frozen=True)
class ScheduleRequest:
    """One unit of batch work: a problem plus how to solve it.

    ``options`` holds algorithm-specific keywords exactly as
    :func:`repro.schedule` accepts them (``certify``, ``kernel``,
    ``hysteresis``); ``label`` is free-form and only used for spans and
    human-readable output — it does not participate in the cache key.
    """

    tensor: object
    model: object
    capacity: object = None
    algorithm: str = "gomcds"
    options: Mapping = field(default_factory=dict)
    label: str | None = None

    def solve_key(self) -> str:
        """Content address of this request (see :mod:`repro.engine.cache`)."""
        return solve_key(
            self.tensor,
            self.model,
            self.capacity,
            self.algorithm,
            dict(self.options),
        )


def _effective_options(request: ScheduleRequest, kernel: str | None) -> dict:
    """Request options with the batch-level kernel default applied.

    A kernel named by the request itself wins; the batch default only
    fills the gap, and only for algorithms that accept one.
    """
    options = dict(request.options)
    if kernel is not None and "kernel" not in options:
        spec = scheduler_spec(request.algorithm)
        if "kernel" in spec.supported_kwargs:
            options["kernel"] = kernel
    return options


def _solve_one(
    request: ScheduleRequest,
    kernel: str | None,
    instrument: Instrumentation | None = None,
):
    """Solve a single request under ``instrument`` (None = no-op)."""
    from ..api import schedule

    start = perf_counter()
    solved = schedule(
        request.tensor,
        request.model,
        algorithm=request.algorithm,
        capacity=request.capacity,
        instrument=instrument,
        **_effective_options(request, kernel),
    )
    return solved, perf_counter() - start


def _label_decisions(store, request: ScheduleRequest, start: int = 0) -> None:
    """Stamp the request label onto decision logs it produced."""
    for log in store.logs[start:]:
        if log.label is None:
            log.label = request.label


def _solve_in_worker(
    request: ScheduleRequest,
    kernel: str | None,
    collect: bool,
    provenance: bool = False,
):
    """Pool-worker entry: solve, optionally harvesting telemetry.

    With ``collect`` the solve runs under a fresh recording session —
    solver phase spans, counters, decision logs (when the parent session
    records provenance) and the worker's flight-recorder events for
    *this task* are flattened into a snapshot and shipped home with the
    result.  Handles never cross the boundary; snapshots do.
    """
    if not collect:
        solved, elapsed = _solve_one(request, kernel)
        return solved, elapsed, None
    instr = Instrumentation.started(provenance=provenance)
    ring = flight_recorder()
    watermark = ring.next_seq
    record_event(
        "solve.start", algorithm=request.algorithm, label=request.label
    )
    with instr.span(
        "engine.request", algorithm=request.algorithm, label=request.label
    ):
        solved, elapsed = _solve_one(request, kernel, instrument=instr)
    record_event(
        "solve.end",
        algorithm=request.algorithm,
        label=request.label,
        elapsed_us=elapsed * 1e6,
    )
    _label_decisions(instr.provenance, request)
    snap = snapshot(
        instr, label=request.label, events=ring.events_since(watermark)
    )
    return solved, elapsed, snap


def schedule_many(
    requests: Sequence[ScheduleRequest],
    *,
    workers: int = 1,
    cache: SolveCache | None = None,
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> list[Schedule]:
    """Solve every request, in order, with dedup + cache + fan-out.

    Parameters
    ----------
    requests:
        The batch; duplicates (same content address) are solved once.
    workers:
        Process-pool width for the unique cache misses.  ``1`` (the
        default) solves inline; any value returns identical results.
    cache:
        Optional shared :class:`SolveCache`.  When given, results are
        the cache's deep-frozen copies (read-only arrays) and repeats
        across calls are answered without solving.
    kernel:
        Batch-wide default solver kernel, overridable per request via
        ``options["kernel"]``.
    instrument:
        Parent-side instrumentation; counters land under ``engine.*``
        and, when recording, worker telemetry is harvested and merged
        with per-worker attribution (``docs/observability.md``).

    Returns
    -------
    ``list[Schedule]`` aligned with ``requests``.
    """
    obs = resolve(instrument)
    requests = list(requests)
    for i, request in enumerate(requests):
        if not isinstance(request, ScheduleRequest):
            raise TypeError(
                f"requests[{i}] is {type(request).__name__}, expected "
                "ScheduleRequest"
            )
    if workers < 1:
        raise ValueError("workers must be positive")
    if not requests:
        return []

    with obs.span(
        "engine.batch",
        n_requests=len(requests),
        workers=workers,
        cached=cache is not None,
    ):
        record_event(
            "batch.start", n_requests=len(requests), workers=workers
        )
        keys = [request.solve_key() for request in requests]
        solved: dict[str, Schedule] = {}
        pending: list[tuple[str, ScheduleRequest]] = []
        pending_keys: set[str] = set()
        for key, request in zip(keys, requests):
            if key in solved or key in pending_keys:
                continue
            hit = cache.get(key, instrument=obs) if cache is not None else None
            if hit is not None:
                solved[key] = hit
            else:
                pending.append((key, request))
                pending_keys.add(key)
        # the same counter set is recorded on the inline and pooled
        # paths, so summaries are comparable across worker counts
        obs.count("engine.batch.requests", len(requests))
        obs.count(
            "engine.batch.dedup_hits",
            len(requests) - len(solved) - len(pending),
        )
        obs.count("engine.pool.requests", len(pending))
        obs.count("engine.pool.dedup_hits", len(requests) - len(pending))
        obs.gauge("engine.pool.workers", 1 if len(pending) <= 1 else workers)
        obs.gauge("engine.pool.queue_depth", len(pending))

        try:
            outcomes = _run_pending(pending, workers, kernel, obs)
        except Exception:
            dump_on_error(
                f"schedule_many({len(requests)} requests, workers={workers})"
            )
            raise

        for (key, request), (schedule_result, elapsed) in zip(
            pending, outcomes
        ):
            obs.observe("engine.request_us", elapsed * 1e6)
            if cache is not None:
                schedule_result = cache.put(
                    key, schedule_result, instrument=obs
                )
            solved[key] = schedule_result
        obs.count("engine.batch.solved", len(pending))
        record_event(
            "batch.end", n_requests=len(requests), solved=len(pending)
        )
    return [solved[key] for key in keys]


def _run_pending(pending, workers, kernel, obs):
    """Execute the unique solves; returns ``(schedule, elapsed)`` pairs.

    Inline (``workers=1`` or a single pending solve) records straight
    into the parent session — same spans, same counters as a worker
    would produce.  The pooled path harvests one
    :class:`~repro.obs.TelemetrySnapshot` per solve and merges it with
    a stable per-worker lane id (first-seen order of worker pids).
    """
    if workers == 1 or len(pending) <= 1:
        outcomes = []
        for key, request in pending:
            record_event(
                "solve.start", algorithm=request.algorithm, label=request.label
            )
            logged = len(obs.provenance)
            with obs.span(
                "engine.request",
                algorithm=request.algorithm,
                label=request.label,
            ):
                solved, elapsed = _solve_one(request, kernel, instrument=obs)
            record_event(
                "solve.end",
                algorithm=request.algorithm,
                label=request.label,
                elapsed_us=elapsed * 1e6,
            )
            _label_decisions(obs.provenance, request, start=logged)
            outcomes.append((solved, elapsed))
        return outcomes

    collect = obs.enabled
    provenance = obs.provenance.recording
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_solve_in_worker, request, kernel, collect, provenance)
            for _, request in pending
        ]
        results = [future.result() for future in futures]
    lanes: dict[int, int] = {}  # worker pid -> stable worker id
    outcomes = []
    for solved, elapsed, snap in results:
        if snap is not None:
            worker_id = lanes.setdefault(snap.pid, len(lanes) + 1)
            merge_snapshot(obs, snap, worker_id=worker_id)
        outcomes.append((solved, elapsed))
    return outcomes
