"""The batch solving engine: cache and fan-out.

This package is the throughput layer over :func:`repro.schedule`:

* :mod:`repro.engine.cache` content-addresses solve requests so equal
  problems are solved once (in memory, optionally on disk);
* :mod:`repro.engine.pool` fans batches out over a process pool with
  deterministic, worker-count-independent result ordering.

See ``docs/performance.md`` for the full story.
"""

from .cache import CACHE_KEY_VERSION, SolveCache, deep_freeze, solve_key
from .pool import ScheduleRequest, schedule_many

__all__ = [
    "CACHE_KEY_VERSION",
    "SolveCache",
    "deep_freeze",
    "solve_key",
    "ScheduleRequest",
    "schedule_many",
]
