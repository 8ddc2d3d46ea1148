"""Exporters: human summary, JSON-lines, Chrome trace, Prometheus text.

Four consumers, four formats:

* :func:`render_summary` — indented span tree with durations plus a
  metrics table, for terminal reading;
* :func:`to_jsonl` — one self-describing JSON object per line
  (``{"type": "span" | "counter" | "gauge" | "histogram" | "result"}``),
  the format written by the CLI's ``--metrics <path>`` flag;
* :func:`chrome_trace` — the Chrome trace-event format (`ph: "X"`
  complete events for spans, ``ph: "C"`` counter series for timestamped
  histogram samples) loadable in ``chrome://tracing`` and Perfetto;
* :func:`to_prometheus` — the Prometheus exposition text format:
  counters as ``*_total``, gauges verbatim, histograms as summaries
  with exact ``quantile`` series (we keep raw samples) or, given bucket
  boundaries, as cumulative ``le`` histogram series.

Exporters also accept *result* objects — anything implementing the
unified ``to_dict()`` / ``summary()`` protocol shared by
:class:`~repro.core.CostBreakdown`, :class:`~repro.sim.SimReport` and
:class:`~repro.lint.LintReport` — and embed them alongside spans and
metrics, so a profile run carries its answers next to its timings.

Sessions that recorded spatial telemetry (``repro.obs.spatial``)
additionally export it in every format: ASCII heatmaps + congestion
analytics in the summary, ``{"type": "spatial"}`` records in JSON-lines,
and per-link ``ph:"C"`` counter tracks in the Chrome trace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from ..grid import link_key
from .instrument import Instrumentation
from .spatial import analyze_spatial

__all__ = [
    "render_summary",
    "to_jsonl",
    "chrome_trace",
    "render_chrome",
    "to_prometheus",
    "write_export",
    "EXPORT_FORMATS",
]

EXPORT_FORMATS = ("summary", "jsonl", "chrome", "prometheus")

#: Chrome counter tracks are emitted for at most this many links per
#: spatial trace (heaviest first); the cap is recorded in ``otherData``.
CHROME_LINK_SERIES_CAP = 32


@dataclass(frozen=True)
class _Grid:
    """Duck-typed stand-in for a topology: exactly what the ASCII heatmap
    renderers read (``shape`` + ``n_procs``), rebuilt from a trace."""

    shape: tuple[int, ...]
    n_procs: int


def _jsonable(value):
    """Coerce numpy scalars / arrays and other odd values to JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def _result_records(results) -> list[dict]:
    records = []
    for result in results or ():
        record = {"type": "result", "summary": result.summary()}
        record.update(_jsonable(result.to_dict()))
        records.append(record)
    return records


def render_summary(instrument: Instrumentation, results=()) -> str:
    """Human-readable profile: span tree, metrics table, result lines."""
    lines = []
    spans = instrument.tracer.spans
    if spans:
        lines.append("Spans (wall time):")
        for span in spans:
            attrs = ", ".join(
                f"{k}={_fmt(v)}" for k, v in span.attrs.items()
            )
            suffix = f"  [{attrs}]" if attrs else ""
            lines.append(
                f"  {'  ' * span.depth}{span.name}: "
                f"{span.duration_us / 1000.0:.3f} ms{suffix}"
            )
    metric_records = instrument.metrics.to_dicts()
    if metric_records:
        lines.append("Metrics:")
        for rec in metric_records:
            if rec["kind"] == "histogram":
                detail = (
                    f"count={rec['count']} total={_fmt(rec['total'])} "
                    f"mean={_fmt(rec['mean'])}"
                )
                if "max" in rec:
                    detail += (
                        f" p50={_fmt(rec['p50'])} p90={_fmt(rec['p90'])} "
                        f"p99={_fmt(rec['p99'])} max={_fmt(rec['max'])}"
                    )
                lines.append(f"  {rec['name']} ({rec['kind']}): {detail}")
            else:
                lines.append(
                    f"  {rec['name']} ({rec['kind']}): {_fmt(rec['value'])}"
                )
    spatial_traces = instrument.spatial.traces
    if spatial_traces:
        lines.append("Spatial telemetry:")
        for trace in spatial_traces:
            lines.append(_render_spatial_section(trace))
    decision_logs = instrument.provenance.logs
    if decision_logs:
        lines.append("Decision provenance:")
        for log in decision_logs:
            breakdown = log.attribution()
            lines.append(f"  {log.summary()}")
            lines.append(f"    attributed {breakdown.summary()}")
    for result in results or ():
        lines.append(result.summary())
    if not lines:
        lines.append("(no spans or metrics recorded)")
    return "\n".join(lines)


def _render_spatial_section(trace) -> str:
    """Heatmaps + congestion analytics of one spatial trace, indented."""
    # deferred import: repro.analysis pulls in repro.core, which imports
    # repro.obs — at call time the cycle is long resolved
    from ..analysis.heatmap import render_heatmap, render_link_heatmap

    report = analyze_spatial(trace)
    lines = [trace.summary()]
    if len(trace.shape) <= 2:
        grid = _Grid(shape=trace.shape, n_procs=trace.n_procs)
        traffic = trace.per_proc_send() + trace.per_proc_recv()
        lines.append(
            render_heatmap(traffic, grid, title="processor traffic (send+recv):")
        )
        lines.append(
            render_heatmap(
                trace.per_proc_peak_storage(), grid, title="peak storage:"
            )
        )
        lines.append(
            render_link_heatmap(
                trace.link_totals(), grid, title="link load:"
            )
        )
    lines.append(report.render())
    return "\n".join("  " + line for text in lines for line in text.splitlines())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def to_jsonl(instrument: Instrumentation, results=()) -> str:
    """One JSON object per line: spans, then metrics, then results."""
    records = []
    for span in instrument.tracer.spans:
        rec = {"type": "span"}
        rec.update(_jsonable(span.to_dict()))
        records.append(rec)
    for metric in instrument.metrics.to_dicts():
        rec = {"type": metric["kind"]}
        rec.update(_jsonable({k: v for k, v in metric.items() if k != "kind"}))
        records.append(rec)
    for trace in instrument.spatial.traces:
        rec = {"type": "spatial"}
        rec.update(_jsonable(trace.to_dict()))
        rec["analytics"] = _jsonable(analyze_spatial(trace).to_dict())
        records.append(rec)
    # decision logs export their summary header here; the full per-cell
    # decision stream is ``repro explain``'s JSONL output
    for log in instrument.provenance.logs:
        records.append(_jsonable(log.to_dict()))
    records.extend(_result_records(results))
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in records)


def chrome_trace(instrument: Instrumentation, results=()) -> dict:
    """Chrome trace-event JSON object (``chrome://tracing`` / Perfetto).

    Spans become complete events (``ph: "X"``, microsecond ``ts`` /
    ``dur``); histogram samples that carry a timestamp become counter
    series (``ph: "C"``), which Perfetto renders as per-window charts —
    this is where the replay's per-window hop metrics surface.  Result
    objects ride along as instant events at the end of the trace.
    Every span is on one lane, ``tid`` 0.
    """
    events = [
        {
            "name": "repro",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "cat": "__metadata",
            "args": {"name": "repro profile"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "cat": "__metadata",
            "args": {"name": "main"},
        },
    ]
    last_ts = 0.0
    for span in instrument.tracer.spans:
        last_ts = max(last_ts, span.start_us + span.duration_us)
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_us,
                "dur": span.duration_us,
                "pid": 0,
                "tid": 0,
                "args": _jsonable(span.attrs),
            }
        )
    for hist in instrument.metrics.histograms.values():
        for ts, value in hist.timed_samples():
            last_ts = max(last_ts, ts)
            events.append(
                {
                    "name": hist.name,
                    "cat": "repro.metrics",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "args": {"value": value},
                }
            )
    capped_links = 0
    for strace in instrument.spatial.traces:
        totals = strace.link_totals()
        ranked = sorted(totals, key=lambda link: (-totals[link], link))
        capped_links += max(0, len(ranked) - CHROME_LINK_SERIES_CAP)
        for link in ranked[:CHROME_LINK_SERIES_CAP]:
            name = f"link {link_key(link, strace.shape)} [{strace.label}]"
            for w, ts in enumerate(strace.window_ts):
                last_ts = max(last_ts, ts)
                events.append(
                    {
                        "name": name,
                        "cat": "repro.spatial",
                        "ph": "C",
                        "ts": ts,
                        "pid": 0,
                        "args": {
                            "volume": strace.window_links[w].get(link, 0.0)
                        },
                    }
                )
    for record in _result_records(results):
        events.append(
            {
                "name": record.get("kind", "result"),
                "cat": "repro.results",
                "ph": "i",
                "s": "g",
                "ts": last_ts,
                "pid": 0,
                "tid": 0,
                "args": record,
            }
        )
    counters = {
        name: counter.value
        for name, counter in instrument.metrics.counters.items()
    }
    gauges = {
        name: gauge.value for name, gauge in instrument.metrics.gauges.items()
    }
    other = {"counters": counters, "gauges": gauges}
    if capped_links:
        other["spatial_links_not_exported"] = capped_links
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _jsonable(other),
    }


def render_chrome(instrument: Instrumentation, results=()) -> str:
    return json.dumps(chrome_trace(instrument, results))


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Summary quantiles emitted for histograms without bucket boundaries.
PROMETHEUS_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _prom_name(name: str, prefix: str) -> str:
    """A legal exposition-format metric name for a dotted repro metric."""
    base = _PROM_INVALID.sub("_", name)
    full = f"{prefix}_{base}" if prefix else base
    if full[0].isdigit():
        full = f"_{full}"
    return full


def _prom_value(value: float) -> str:
    as_float = float(value)
    if as_float != as_float:  # NaN
        return "NaN"
    if as_float in (float("inf"), float("-inf")):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _prom_help(name: str, prom: str, kind: str) -> list[str]:
    # HELP text escapes: backslash and line feed
    text = f"repro metric {name}".replace("\\", r"\\").replace("\n", r"\n")
    return [f"# HELP {prom} {text}", f"# TYPE {prom} {kind}"]


def _histogram_buckets(hist, boundaries) -> list[str]:
    """Cumulative ``le`` bucket series from the exact sample list."""
    bounds = sorted(float(b) for b in boundaries)
    lines = []
    for bound in bounds:
        count = sum(1 for s in hist.samples if s <= bound)
        lines.append((_prom_value(bound), count))
    lines.append(("+Inf", hist.count))
    return lines


def to_prometheus(
    instrument: Instrumentation,
    results=(),
    *,
    prefix: str = "repro",
    buckets=None,
    quantiles=PROMETHEUS_QUANTILES,
) -> str:
    """The session's metrics in the Prometheus exposition text format.

    Counters become ``<prefix>_<name>_total`` (``TYPE counter``), gauges
    map verbatim (``TYPE gauge``).  Histograms keep their raw samples,
    so by default they export as ``TYPE summary`` with *exact* quantile
    series (nearest-rank, not estimates) plus ``_sum``/``_count``.  Pass
    ``buckets`` — a sequence of upper bounds applied to every histogram,
    or a ``{metric name: sequence}`` mapping — to export cumulative
    ``le`` bucket series (``TYPE histogram``) instead.

    ``results`` is accepted (and ignored) so the function slots into
    :func:`write_export`'s renderer table; scrape output carries
    metrics only.
    """
    del results  # metrics-only format
    lines: list[str] = []
    metrics = instrument.metrics
    for name, counter in metrics.counters.items():
        prom = _prom_name(name, prefix) + "_total"
        lines += _prom_help(name, prom, "counter")
        lines.append(f"{prom} {_prom_value(counter.value)}")
    for name, gauge in metrics.gauges.items():
        prom = _prom_name(name, prefix)
        lines += _prom_help(name, prom, "gauge")
        lines.append(f"{prom} {_prom_value(gauge.value)}")
    for name, hist in metrics.histograms.items():
        prom = _prom_name(name, prefix)
        bounds = (
            buckets.get(name) if isinstance(buckets, dict) else buckets
        )
        if bounds:
            lines += _prom_help(name, prom, "histogram")
            for le, count in _histogram_buckets(hist, bounds):
                lines.append(f'{prom}_bucket{{le="{le}"}} {count}')
        else:
            lines += _prom_help(name, prom, "summary")
            for q in quantiles:
                value = hist.percentile(100.0 * q)
                lines.append(
                    f'{prom}{{quantile="{_prom_value(q)}"}} '
                    f"{_prom_value(value)}"
                )
        lines.append(f"{prom}_sum {_prom_value(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")
    # no trailing newline: write_export/print append it, matching the
    # other renderers (the exposition format wants the file to end in
    # exactly one line feed)
    return "\n".join(lines)


def write_export(
    instrument: Instrumentation,
    fmt: str,
    path: str | Path | None,
    results=(),
) -> str:
    """Render ``fmt`` and write it to ``path`` (or return it for stdout)."""
    renderer = {
        "summary": render_summary,
        "jsonl": to_jsonl,
        "chrome": render_chrome,
        "prometheus": to_prometheus,
    }
    try:
        text = renderer[fmt](instrument, results)
    except KeyError:
        raise ValueError(
            f"unknown export format {fmt!r}; known: {', '.join(EXPORT_FORMATS)}"
        ) from None
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
