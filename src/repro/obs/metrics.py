"""Metrics registry: counters, gauges and histograms for the hot paths.

Three instrument kinds cover everything the schedulers, the replay
simulator, the fault machinery and the lint engine need to report:

* :class:`Counter` — monotonically accumulating totals (delivered
  fetches, capacity-walk fallbacks, retries);
* :class:`Gauge` — last-written values (problem sizes, DP cell counts);
* :class:`Histogram` — streaming distributions with optional
  per-sample timestamps, so exporters can render both summary
  statistics and Chrome ``ph: "C"`` counter series (per-window hops).
"""

from __future__ import annotations

import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """A streaming distribution; keeps every sample (bounded use only).

    Samples may carry a timestamp (microseconds on the owning tracer's
    clock) so exporters can plot them as a time series; ``ts=None``
    samples still contribute to the summary statistics.
    """

    __slots__ = ("name", "samples", "timestamps")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []
        self.timestamps: list[float | None] = []

    def observe(self, value: float, ts: float | None = None) -> None:
        self.samples.append(float(value))
        self.timestamps.append(ts)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def timed_samples(self) -> list[tuple[float, float]]:
        """The ``(ts, value)`` pairs that carry a timestamp, in order."""
        return [
            (ts, v)
            for ts, v in zip(self.timestamps, self.samples)
            if ts is not None
        ]

    def to_dict(self) -> dict:
        out = {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }
        if self.samples:
            out["min"] = float(min(self.samples))
            out["max"] = float(max(self.samples))
            out["p50"] = self.percentile(50)
            out["p90"] = self.percentile(90)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
        return out


class MetricsRegistry:
    """Get-or-create keyed instruments, preserved in creation order."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def to_dicts(self) -> list[dict]:
        """Every instrument as a serializable record (stable order)."""
        records = [c.to_dict() for c in self.counters.values()]
        records += [g.to_dict() for g in self.gauges.values()]
        records += [h.to_dict() for h in self.histograms.values()]
        return records

    def merge(
        self,
        counters=(),
        gauges=(),
        histograms=(),
        ts_offset_us: float = 0.0,
    ) -> None:
        """Fold serialized instrument values into this registry.

        The arguments are the flat shapes a
        :class:`~repro.obs.remote.TelemetrySnapshot` carries across the
        process boundary: ``(name, value)`` pairs for counters (summed)
        and gauges (last write wins), ``(name, samples, timestamps)``
        triples for histograms.  Histogram timestamps are shifted by
        ``ts_offset_us`` so a worker's samples land on the merged
        timeline; stamp-less samples stay stamp-less.
        """
        for name, value in counters:
            self.counter(name).inc(value)
        for name, value in gauges:
            self.gauge(name).set(value)
        for name, samples, timestamps in histograms:
            hist = self.histogram(name)
            for value, ts in zip(samples, timestamps):
                hist.observe(
                    value, ts=None if ts is None else ts + ts_offset_us
                )

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)
