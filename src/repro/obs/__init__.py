"""Observability: span tracing, metrics and exporters (docs/observability.md).

The subsystem is dark by default: every instrumented function resolves
its ``instrument`` argument to ``NOOP``, the shared disabled session
(``Instrumentation(enabled=False)``), unless a caller passes an
:class:`Instrumentation` or installs one process-wide with
:func:`instrumented` (what ``repro profile`` and ``--metrics`` do).

Quickstart::

    from repro.obs import Instrumentation, render_summary
    from repro import schedule

    instr = Instrumentation.started()
    sched = schedule(tensor, model, algorithm="gomcds", instrument=instr)
    print(render_summary(instr))
"""

from .instrument import NOOP, Instrumentation, active, instrumented, resolve
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spatial import (
    SpatialRecorder,
    SpatialReport,
    SpatialStore,
    SpatialTrace,
    analyze_spatial,
    gini_coefficient,
)
from .tracer import NULL_SPAN, Span, Tracer
from .provenance import (
    ACTION_NAMES,
    DecisionLog,
    ProvenanceStore,
    derive_decisions,
    derive_decisions_python,
    record_decisions,
)
from .recorder import (
    FlightRecorder,
    flight_recorder,
    record_event,
)
from .remote import TelemetrySnapshot, merge_snapshot, snapshot
from .export import (
    EXPORT_FORMATS,
    chrome_trace,
    render_chrome,
    render_summary,
    to_jsonl,
    to_prometheus,
    write_export,
)

__all__ = [
    "Instrumentation",
    "NOOP",
    "resolve",
    "active",
    "instrumented",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpatialTrace",
    "SpatialRecorder",
    "SpatialStore",
    "SpatialReport",
    "analyze_spatial",
    "gini_coefficient",
    "render_summary",
    "to_jsonl",
    "chrome_trace",
    "render_chrome",
    "to_prometheus",
    "write_export",
    "EXPORT_FORMATS",
    # cross-process telemetry (docs/observability.md)
    "TelemetrySnapshot",
    "snapshot",
    "merge_snapshot",
    "FlightRecorder",
    "flight_recorder",
    "record_event",
    # decision provenance (docs/explain.md)
    "ACTION_NAMES",
    "DecisionLog",
    "ProvenanceStore",
    "derive_decisions",
    "derive_decisions_python",
    "record_decisions",
]
