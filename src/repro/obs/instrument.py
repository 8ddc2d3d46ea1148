"""The instrumentation handle: tracer + metrics behind one facade.

Every instrumented function in the codebase takes an optional
``instrument`` argument and resolves it with :func:`resolve`:

* an explicit :class:`Instrumentation` wins;
* otherwise the *active* instrumentation is used — the process-wide
  default installed by :func:`instrumented` (the CLI's ``--metrics``
  flag and ``repro profile`` use this so deep call chains need no
  plumbing);
* with nothing active, the shared :data:`NOOP` handle is returned: a
  session with ``enabled=False``.

``enabled`` is the one off switch.  On a disabled session the probe
helpers return at once (``span`` hands back the shared
:data:`~repro.obs.tracer.NULL_SPAN`), and every store write elsewhere
sits behind ``enabled`` or a store's ``recording`` flag, so ``NOOP``'s
components stay empty.  Uninstrumented runs pay one method call and one
``enabled`` check per probe — measured at well under the 5 % overhead
budget by ``benchmarks/bench_profile.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .provenance import ProvenanceStore
from .spatial import SpatialStore
from .tracer import NULL_SPAN, Tracer

__all__ = ["Instrumentation", "NOOP", "resolve", "instrumented", "active"]


@dataclass
class Instrumentation:
    """One observability session: span tracer, metrics registry, and the
    (opt-in) spatial-telemetry and decision-provenance stores."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spatial: SpatialStore = field(default_factory=SpatialStore)
    provenance: ProvenanceStore = field(default_factory=ProvenanceStore)
    enabled: bool = True

    @classmethod
    def started(
        cls, spatial: bool = False, provenance: bool = False
    ) -> "Instrumentation":
        """A fresh, recording instrumentation session.

        ``spatial=True`` additionally records per-link/per-processor
        mesh telemetry during replays (routes every fetch hop-by-hop —
        measurably slower, so it is a separate opt-in).

        ``provenance=True`` additionally derives a per-solve
        :class:`~repro.obs.provenance.DecisionLog` explaining every
        placement decision (``docs/explain.md``) — also a separate
        opt-in, because the derivation re-reads the cost tensor.
        """
        return cls(
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            spatial=SpatialStore(recording=spatial),
            provenance=ProvenanceStore(recording=provenance),
            enabled=True,
        )

    # -- probe helpers (what instrumented code actually calls) --------------

    def span(self, name: str, **attrs):
        """A context-managed phase span (``NULL_SPAN`` when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Histogram sample stamped with the tracer's clock, so exporters
        can render it as a time series alongside the spans."""
        if self.enabled:
            self.metrics.histogram(name).observe(value, ts=self.tracer.now_us())


#: The dark default: a disabled session whose components stay empty.
NOOP = Instrumentation(enabled=False)

_active: Instrumentation = NOOP


def active() -> Instrumentation:
    """The process-wide instrumentation default (``NOOP`` unless one was
    installed with :func:`instrumented`)."""
    return _active


def resolve(instrument: Instrumentation | None) -> Instrumentation:
    """The handle an instrumented function should record against."""
    return _active if instrument is None else instrument


@contextmanager
def instrumented(instrument: Instrumentation | None = None):
    """Install ``instrument`` (or a fresh session) as the active default.

    Used by the CLI so that existing analysis entry points — which do not
    thread an ``instrument`` argument — still record when the user asks
    for ``--metrics``/``repro profile``.  Restores the previous default
    on exit, so nesting is safe.
    """
    global _active
    session = instrument if instrument is not None else Instrumentation.started()
    previous = _active
    _active = session
    try:
        yield session
    finally:
        _active = previous
