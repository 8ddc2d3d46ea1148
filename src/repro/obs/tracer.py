"""Span tracing: nested, wall-clock-timed phases with attribute payloads.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
instrumented phase — with microsecond start offsets and durations
relative to the tracer's creation.  Spans nest through an explicit
stack, so exporters can rebuild the tree (human summary) or emit flat
Chrome trace events (``ph: "X"``) without bookkeeping of their own.

A disabled :class:`~repro.obs.instrument.Instrumentation` never reaches
its tracer: its ``span()`` hands back :data:`NULL_SPAN`, a shared
singleton whose ``__enter__``/``__exit__``/``set`` do nothing, so
instrumented hot paths cost one method call and one kwargs dict when
observability is off.
"""

from __future__ import annotations

from time import perf_counter_ns

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed phase.  Used as a context manager; ``set()`` attaches
    attributes discovered mid-phase (counts, sizes, outcomes)."""

    __slots__ = ("name", "attrs", "depth", "start_us", "duration_us", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict, depth: int):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = depth
        self.start_us = 0.0
        self.duration_us = 0.0

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attribute payloads on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit(self, failed=exc_type is not None)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_us": round(self.start_us, 3),
            "duration_us": round(self.duration_us, 3),
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """Shared do-nothing span: the disabled-instrumentation fast path."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans in pre-order (parents before children).

    ``spans`` holds every *entered* span; durations are patched in on
    exit, so an exporter running mid-trace sees open spans with a zero
    duration rather than missing them.
    """

    def __init__(self) -> None:
        self._t0_ns = perf_counter_ns()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def now_us(self) -> float:
        """Microseconds since the tracer was created."""
        return (perf_counter_ns() - self._t0_ns) / 1_000.0

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs, depth=len(self._stack))

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _enter(self, span: Span) -> None:
        span.depth = len(self._stack)
        self._stack.append(span)
        self.spans.append(span)
        span.start_us = self.now_us()

    def _exit(self, span: Span, failed: bool) -> None:
        span.duration_us = self.now_us() - span.start_us
        if failed:
            span.attrs["error"] = True
        # tolerate mis-nested exits instead of corrupting the stack
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            while self._stack and self._stack.pop() is not span:
                pass

    def __len__(self) -> int:
        return len(self.spans)
