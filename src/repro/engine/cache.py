"""Content-addressed solve cache: hash the problem, reuse the schedule.

Two solve requests that describe the *same mathematical problem* — same
reference counts, same windowing, same cost metric and volumes, same
capacity plan, same algorithm and options — produce the same schedule,
so the second one need not run the solver at all.  :func:`solve_key`
canonicalizes a request into a sha256 content address:

* array inputs are digested from their canonical bytes (C-contiguous
  int64/float64), so two tensors that are *equal* but live in different
  memory orders or integer dtypes hash alike;
* the cost model is digested through its realized distance matrix, not
  the topology object, so two topology classes inducing the same metric
  share entries;
* algorithm names are case-folded and options are JSON-canonicalized
  (sorted keys).  ``instrument`` never participates.

:class:`SolveCache` fronts an in-memory LRU with an optional on-disk
store (one pickle per key, written atomically).  Cached schedules are
deep-frozen — center and certificate arrays are read-only — so a hit
can be shared between callers without defensive copies.  Hit/miss/
eviction counters flow through the ``obs`` metrics registry under
``engine.cache.*``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..core import Schedule
from ..obs import Instrumentation, record_event, resolve

__all__ = ["SolveCache", "solve_key", "deep_freeze", "CACHE_KEY_VERSION"]

#: Bump when the key derivation changes so stale disk entries can never
#: be confused with current ones.
CACHE_KEY_VERSION = 1

#: Options that never change the solved schedule and are therefore left
#: out of the content address.
_NON_SEMANTIC_OPTIONS = frozenset({"instrument"})


def _array_bytes(array: np.ndarray, dtype) -> bytes:
    """Canonical bytes: C-contiguous in the given dtype."""
    return np.ascontiguousarray(array, dtype=dtype).tobytes()


def _digest_tensor(hasher, tensor) -> None:
    hasher.update(b"tensor")
    hasher.update(repr(tensor.counts.shape).encode())
    hasher.update(_array_bytes(tensor.counts, np.int64))
    hasher.update(b"windows")
    hasher.update(_array_bytes(tensor.windows.starts, np.int64))
    hasher.update(str(int(tensor.windows.n_steps)).encode())


def _digest_model(hasher, model) -> None:
    hasher.update(b"distances")
    hasher.update(repr(model.distances.shape).encode())
    hasher.update(_array_bytes(model.distances, np.int64))
    hasher.update(b"volumes")
    if model.volumes is None:
        hasher.update(b"unit")
    else:
        hasher.update(_array_bytes(np.asarray(model.volumes), np.float64))


def _digest_capacity(hasher, capacity) -> None:
    hasher.update(b"capacity")
    if capacity is None:
        hasher.update(b"none")
    else:
        hasher.update(_array_bytes(capacity.capacities, np.int64))


def solve_key(
    tensor,
    model,
    capacity=None,
    algorithm: str = "gomcds",
    options: dict | None = None,
) -> str:
    """Sha256 content address of one solve request (hex digest).

    Raises ``TypeError`` when an option value is not JSON-serializable —
    an option the key cannot see must not silently alias cache entries.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-solve-v{CACHE_KEY_VERSION}".encode())
    _digest_tensor(hasher, tensor)
    _digest_model(hasher, model)
    _digest_capacity(hasher, capacity)
    name = algorithm if isinstance(algorithm, str) else algorithm.name
    hasher.update(b"algorithm")
    hasher.update(name.upper().encode())
    semantic = {
        k: v
        for k, v in (options or {}).items()
        if k not in _NON_SEMANTIC_OPTIONS
    }
    try:
        canonical = json.dumps(semantic, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"solve options are not content-addressable: {exc}"
        ) from exc
    hasher.update(b"options")
    hasher.update(canonical.encode())
    return hasher.hexdigest()


def _frozen_array(value: np.ndarray) -> np.ndarray:
    out = np.array(value, copy=True)
    out.setflags(write=False)
    return out


def _freeze_value(value):
    if isinstance(value, np.ndarray):
        return _frozen_array(value)
    if isinstance(value, dict):
        return {k: _freeze_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def deep_freeze(schedule: Schedule) -> Schedule:
    """Read-only copy of a schedule, certificates included.

    The centers array and every array nested in ``meta`` (certificate
    potentials, masks, …) come back with ``writeable=False``, so cache
    hits can be handed to many callers without aliasing hazards.
    """
    return Schedule(
        centers=_frozen_array(schedule.centers),
        windows=schedule.windows,
        method=schedule.method,
        meta=_freeze_value(schedule.meta),
    )


class SolveCache:
    """LRU of solved schedules keyed by content address.

    Parameters
    ----------
    maxsize:
        In-memory entry cap; least-recently-used entries are evicted
        (they remain on disk when a disk store is configured).
    disk_dir:
        Optional directory for a persistent second level — one pickle
        per key, written atomically so a crashed writer never leaves a
        truncated entry behind.  Unreadable files are treated as misses.
    """

    def __init__(self, maxsize: int = 256, disk_dir: str | Path | None = None):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, Schedule] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}.pkl"

    def get(
        self, key: str, *, instrument: Instrumentation | None = None
    ) -> Schedule | None:
        """Frozen schedule for ``key``, or ``None`` on a miss."""
        obs = resolve(instrument)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            obs.count("engine.cache.hits")
            record_event("cache.hit", key=key[:12])
            return entry
        if self.disk_dir is not None:
            path = self._disk_path(key)
            try:
                with path.open("rb") as fh:
                    schedule = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError, ValueError):
                schedule = None
            if isinstance(schedule, Schedule):
                frozen = deep_freeze(schedule)
                self._remember(key, frozen, instrument=obs)
                self.hits += 1
                self.disk_hits += 1
                obs.count("engine.cache.hits")
                obs.count("engine.cache.disk_hits")
                record_event("cache.hit", key=key[:12], disk=True)
                return frozen
        self.misses += 1
        obs.count("engine.cache.misses")
        record_event("cache.miss", key=key[:12])
        return None

    def put(
        self,
        key: str,
        schedule: Schedule,
        *,
        instrument: Instrumentation | None = None,
    ) -> Schedule:
        """Store ``schedule`` under ``key``; returns the frozen copy."""
        obs = resolve(instrument)
        frozen = deep_freeze(schedule)
        self._remember(key, frozen, instrument=obs)
        if self.disk_dir is not None:
            path = self._disk_path(key)
            fd, tmp = tempfile.mkstemp(
                dir=self.disk_dir, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(frozen, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except OSError:
                # A read-only or full disk store degrades to memory-only.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        obs.count("engine.cache.puts")
        record_event("cache.put", key=key[:12])
        return frozen

    def _remember(
        self,
        key: str,
        schedule: Schedule,
        instrument: Instrumentation | None = None,
    ) -> None:
        obs = resolve(instrument)
        self._entries[key] = schedule
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            obs.count("engine.cache.evictions")
            record_event("cache.evict", key=evicted[:12])
        obs.gauge("engine.cache.entries", len(self._entries))

    def stats(self) -> dict:
        """Counter snapshot (also exported via ``engine.cache.*``)."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "disk": str(self.disk_dir) if self.disk_dir is not None else None,
        }

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are kept)."""
        self._entries.clear()
