"""The batch solving engine: content-addressed cache and batch solves.

This package is the throughput layer over :func:`repro.schedule`:

* :mod:`repro.engine.cache` content-addresses solve requests so equal
  problems are solved once (in memory, optionally on disk);
* :mod:`repro.engine.pool` solves a batch of requests inline, deduped
  and cached, returning results in request order.

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
