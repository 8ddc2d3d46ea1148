"""Metrics registry unit tests."""

from repro.obs import NOOP, Counter, Gauge, Histogram, MetricsRegistry


def test_counter_accumulates():
    c = Counter("hits")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert c.to_dict() == {"kind": "counter", "name": "hits", "value": 3.5}


def test_gauge_is_last_value_wins():
    g = Gauge("size")
    g.set(4)
    g.set(9)
    assert g.value == 9.0
    assert g.to_dict()["value"] == 9.0


def test_histogram_statistics():
    h = Histogram("lat")
    for v in (1, 2, 3, 4, 10):
        h.observe(v)
    assert h.count == 5
    assert h.total == 20.0
    assert h.mean == 4.0
    assert h.percentile(50) == 3
    assert h.percentile(100) == 10
    assert h.percentile(0) == 1
    d = h.to_dict()
    assert d["min"] == 1.0
    assert d["max"] == 10.0
    assert d["p95"] == 10


def test_empty_histogram_is_safe():
    h = Histogram("empty")
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentile(95) == 0.0
    assert "max" not in h.to_dict()


def test_histogram_timed_samples_keep_only_stamped_points():
    h = Histogram("hops")
    h.observe(5.0, ts=10.0)
    h.observe(7.0)  # no timestamp: stats only
    h.observe(3.0, ts=30.0)
    assert h.timed_samples() == [(10.0, 5.0), (30.0, 3.0)]
    assert h.count == 3


def test_registry_get_or_create_is_stable():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.gauge("b") is reg.gauge("b")
    assert reg.histogram("c") is reg.histogram("c")
    assert len(reg) == 3
    kinds = [rec["kind"] for rec in reg.to_dicts()]
    assert kinds == ["counter", "gauge", "histogram"]


def test_null_registry_swallows_everything():
    # a disabled session's probes never reach its registry
    NOOP.count("x", 100)
    NOOP.gauge("y", 5)
    NOOP.observe("z", 1.0)
    assert len(NOOP.metrics) == 0
    assert NOOP.metrics.to_dicts() == []
    assert not NOOP.metrics.counters
    assert not NOOP.metrics.gauges
    assert not NOOP.metrics.histograms


def test_histogram_percentile_summaries():
    h = Histogram("lat")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    d = h.to_dict()
    assert d["p50"] == 50.0
    assert d["p90"] == 90.0
    assert d["p95"] == 95.0
    assert d["p99"] == 99.0
    assert d["max"] == 100.0


def test_single_sample_percentiles_collapse():
    h = Histogram("one")
    h.observe(7.0)
    d = h.to_dict()
    assert d["p50"] == d["p90"] == d["p99"] == d["max"] == 7.0
