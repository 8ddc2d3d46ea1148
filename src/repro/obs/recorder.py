"""The flight recorder: an always-on ring buffer of recent events.

Spans and metrics answer "how long and how much" — the flight recorder
answers "what just happened".  It keeps the last ``capacity`` structured
events (solve start/end, cache hit/miss/eviction, recovery cycles) in a
bounded deque, so the recording costs one dict build and one append per
event regardless of run length, and a crash can always explain itself:
:meth:`FlightRecorder.dump` writes the ring as JSON-lines, and
``repro tail`` renders the last N events of any telemetry file.

Unlike :class:`~repro.obs.instrument.Instrumentation` sessions — which
are opt-in and scoped — the recorder is process-global and *always on*:
:func:`record_event` writes to the shared ring even when observability
is otherwise dark.  Events are deliberately coarse (per solve, per cache
operation, per recovery cycle — never per window or per hop), so the
always-on cost stays far below the probe-overhead budget.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from pathlib import Path

from ..diagnostics import OBS003, code_message

__all__ = [
    "FlightRecorder",
    "flight_recorder",
    "record_event",
    "DEFAULT_CAPACITY",
    "DUMP_ENV_VAR",
    "CAPACITY_ENV_VAR",
]

#: Ring size of the process-global recorder; roughly one mid-sized batch
#: (requests + cache traffic) of history.
DEFAULT_CAPACITY = 512

#: When set, :func:`dump_on_error` writes the ring to this path instead
#: of stderr.
DUMP_ENV_VAR = "REPRO_FLIGHT_DUMP"

#: When set, sizes the process-global ring (a positive integer); long
#: campaigns can keep more history, embedded runs less.
CAPACITY_ENV_VAR = "REPRO_FLIGHT_CAPACITY"


def _env_capacity() -> int:
    """The configured global-ring capacity (``REPRO_FLIGHT_CAPACITY``).

    Raises a coded ``OBS003`` :class:`ValueError` when the override is
    not a positive integer, so a typo'd deployment fails loudly at the
    first recorded event instead of silently truncating history.
    """
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            code_message(
                OBS003,
                f"{CAPACITY_ENV_VAR}={raw!r} is not an integer",
            )
        ) from None
    if capacity < 1:
        raise ValueError(
            code_message(
                OBS003,
                f"{CAPACITY_ENV_VAR}={raw!r} must be a positive ring size",
            )
        )
    return capacity


class FlightRecorder:
    """Bounded ring of structured events, oldest evicted first.

    Every event is a plain dict carrying a monotonically increasing
    ``seq``, a wall-clock ``t_unix_us`` stamp, the event ``kind`` and
    the caller's keyword payload — nothing that cannot round-trip
    through JSON or a pickle.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(
                code_message(OBS003, "ring capacity must be positive")
            )
        self.capacity = int(capacity)
        self._events: deque[dict] = deque(maxlen=self.capacity)
        self._seq = 0
        self.dropped = 0

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the stored record."""
        event = {
            "seq": self._seq,
            "t_unix_us": time.time() * 1e6,
            "kind": str(kind),
        }
        event.update(fields)
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    def events(self) -> list[dict]:
        """Every retained event, oldest first (copies of the records)."""
        return [dict(e) for e in self._events]

    def tail(self, n: int = 20) -> list[dict]:
        """The most recent ``n`` events, oldest of those first."""
        if n <= 0:
            return []
        return [dict(e) for e in list(self._events)[-n:]]

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def to_jsonl(self) -> str:
        """The ring as JSON-lines (``{"type": "event", ...}`` records)."""
        return "\n".join(
            json.dumps({"type": "event", **e}, sort_keys=True)
            for e in self._events
        )

    def dump(self, target=None) -> str:
        """Write the ring as JSON-lines to ``target`` and return the text.

        ``target`` may be a path, an open file object, or ``None`` for
        stderr — the error path's last resort.
        """
        text = self.to_jsonl()
        if not text:
            return text
        if target is None:
            print(text, file=sys.stderr)
        elif hasattr(target, "write"):
            target.write(text + "\n")
        else:
            Path(target).write_text(text + "\n")
        return text


#: The process-global ring every :func:`record_event` call lands in;
#: created lazily so ``REPRO_FLIGHT_CAPACITY`` is read (and validated)
#: at first use, not at import time.
_FLIGHT: FlightRecorder | None = None


def flight_recorder() -> FlightRecorder:
    """The process-global flight recorder (always recording)."""
    global _FLIGHT
    if _FLIGHT is None:
        _FLIGHT = FlightRecorder(_env_capacity())
    return _FLIGHT


def record_event(kind: str, **fields) -> dict:
    """Record one event on the process-global ring."""
    return flight_recorder().record(kind, **fields)


def dump_on_error(context: str) -> None:
    """Best-effort ring dump for a failing operation.

    Records a terminal ``error`` event, then writes the ring to the
    ``REPRO_FLIGHT_DUMP`` path when that variable is set.  Without the
    variable the ring is kept in memory only — callers that want the
    events on disk opt in, so expected failures (validation errors in
    tests, probing CLIs) do not spray stderr.
    """
    ring = flight_recorder()
    ring.record("error", context=str(context))
    path = os.environ.get(DUMP_ENV_VAR)
    if path:
        try:
            ring.dump(path)
        except OSError:  # pragma: no cover - unwritable dump path
            pass
