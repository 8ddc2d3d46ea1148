"""Batch solving: many scheduling requests as one operation.

``schedule_many`` is the throughput face of the :func:`repro.schedule`
facade.  It takes a list of :class:`ScheduleRequest` descriptions and
returns one schedule per request, in request order, with two
optimizations stacked underneath:

* **dedup** — requests that canonicalize to the same content address
  (:func:`repro.engine.cache.solve_key`) are solved once;
* **cache** — an optional shared :class:`~repro.engine.cache.SolveCache`
  answers repeats across batches (and across processes, via its disk
  store) without running a solver.

The remaining unique solves run one after another in the caller's
process, under the caller's instrumentation session, so a recording
session sees every solver span, counter and decision log directly.
Telemetry never changes schedules: the cache key excludes
``instrument`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

from ..core import Schedule
from ..obs import Instrumentation, record_event, resolve
from ..obs.recorder import dump_on_error
from .cache import SolveCache, solve_key

__all__ = ["ScheduleRequest", "schedule_many"]


@dataclass(frozen=True)
class ScheduleRequest:
    """One unit of batch work: a problem plus how to solve it.

    ``options`` holds algorithm-specific keywords exactly as
    :func:`repro.schedule` accepts them (``certify``, ``hysteresis``);
    ``label`` is free-form and only used for spans and human-readable
    output — it does not participate in the cache key.
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


def _run_request(request: ScheduleRequest, obs):
    """Solve one request under the per-request protocol; ``(schedule, elapsed)``.

    Every solve records a ``solve.start``/``solve.end`` flight-event
    pair, one ``engine.request`` span around the :func:`repro.schedule`
    call, and stamps the request label onto the decision logs the solve
    added.
    """
    from ..api import schedule

    tags = {"algorithm": request.algorithm, "label": request.label}
    record_event("solve.start", **tags)
    logged = len(obs.provenance)
    with obs.span("engine.request", **tags):
        start = perf_counter()
        solved = schedule(
            request.tensor,
            request.model,
            algorithm=request.algorithm,
            capacity=request.capacity,
            instrument=obs,
            **request.options,
        )
        elapsed = perf_counter() - start
    record_event("solve.end", **tags, elapsed_us=elapsed * 1e6)
    for log in obs.provenance.logs[logged:]:
        if log.label is None:
            log.label = request.label
    return solved, elapsed


def schedule_many(
    requests: Sequence[ScheduleRequest],
    *,
    workers: int = 1,
    cache: SolveCache | None = None,
    instrument: Instrumentation | None = None,
) -> list[Schedule]:
    """Solve every request, in order, with dedup + cache.

    Parameters
    ----------
    requests:
        The batch; duplicates (same content address) are solved once.
    workers:
        Accepted for compatibility and ignored: every unique cache miss
        is solved inline, in this process.  Must still be ``>= 1``.
    cache:
        Optional shared :class:`SolveCache`.  When given, results are
        the cache's deep-frozen copies (read-only arrays) and repeats
        across calls are answered without solving.
    instrument:
        Instrumentation session; counters land under ``engine.*`` and
        every solve records into it (``docs/observability.md``).

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
        "engine.batch", n_requests=len(requests), cached=cache is not None
    ):
        record_event("batch.start", n_requests=len(requests))
        keys = [request.solve_key() for request in requests]
        solved: dict[str, Schedule] = {}
        pending: dict[str, ScheduleRequest] = {}  # unique misses, in order
        for key, request in zip(keys, requests):
            if key in solved or key in pending:
                continue
            hit = cache.get(key, instrument=obs) if cache is not None else None
            if hit is not None:
                solved[key] = hit
            else:
                pending[key] = request
        obs.count("engine.batch.requests", len(requests))
        obs.count(
            "engine.batch.dedup_hits",
            len(requests) - len(solved) - len(pending),
        )

        for key, request in pending.items():
            try:
                schedule_result, elapsed = _run_request(request, obs)
            except Exception:
                dump_on_error(f"schedule_many({len(requests)} requests)")
                raise
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
