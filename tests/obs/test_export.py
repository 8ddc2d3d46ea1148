"""Exporter tests: summary, JSON-lines and Chrome trace-event output."""

import json

import numpy as np
import pytest

from repro.obs import (
    EXPORT_FORMATS,
    Instrumentation,
    NOOP,
    chrome_trace,
    render_chrome,
    render_summary,
    to_jsonl,
    write_export,
)


class FakeResult:
    """Minimal object implementing the unified result protocol."""

    def to_dict(self):
        return {"kind": "fake", "total": np.float64(7.0)}

    def summary(self):
        return "fake: total 7"


def session():
    instr = Instrumentation.started()
    with instr.span("outer", workload="lu"):
        with instr.span("inner"):
            instr.count("events", 3)
        instr.gauge("size", 16)
        instr.observe("hops", 5.0)
        instr.observe("hops", 9.0)
    return instr


def test_render_summary_contains_spans_metrics_results():
    text = render_summary(session(), results=[FakeResult()])
    assert "outer" in text and "inner" in text
    assert "workload=lu" in text
    assert "events (counter): 3" in text
    assert "hops (histogram)" in text
    assert "fake: total 7" in text


def test_render_summary_empty_session():
    assert "no spans" in render_summary(Instrumentation.started())


def test_jsonl_lines_are_valid_and_typed():
    text = to_jsonl(session(), results=[FakeResult()])
    records = [json.loads(line) for line in text.splitlines()]
    types = {rec["type"] for rec in records}
    assert {"span", "counter", "gauge", "histogram", "result"} <= types
    result = next(r for r in records if r["type"] == "result")
    assert result["total"] == 7.0  # numpy scalar sanitized
    assert result["summary"] == "fake: total 7"
    span = next(r for r in records if r["type"] == "span")
    assert {"name", "start_us", "duration_us", "depth", "attrs"} <= set(span)


def test_chrome_trace_structure():
    trace = chrome_trace(session(), results=[FakeResult()])
    # round-trips through JSON
    trace = json.loads(json.dumps(trace))
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C", "i"} <= phases
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"outer", "inner"}
    for e in spans:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["tid"] == 0  # one lane: every span runs in this process
    counters = [e for e in events if e["ph"] == "C"]
    assert [e["args"]["value"] for e in counters] == [5.0, 9.0]
    assert trace["otherData"]["counters"]["events"] == 3.0
    assert trace["otherData"]["gauges"]["size"] == 16.0


def test_render_chrome_is_parseable_json():
    assert json.loads(render_chrome(session()))["displayTimeUnit"] == "ms"


def test_write_export_to_file(tmp_path):
    path = tmp_path / "out.jsonl"
    text = write_export(session(), "jsonl", path)
    assert path.read_text() == text + "\n"


def test_write_export_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown export format"):
        write_export(session(), "xml", None)
    assert set(EXPORT_FORMATS) == {"summary", "jsonl", "chrome", "prometheus"}


def test_noop_session_exports_cleanly():
    # NOOP records nothing but still exports without error
    assert json.loads(render_chrome(NOOP))["traceEvents"][0]["ph"] == "M"
    assert to_jsonl(NOOP) == ""


def spatial_session():
    """A session holding one hand-built spatial trace."""
    from repro.grid import Mesh2D
    from repro.obs import SpatialRecorder

    instr = Instrumentation.started(spatial=True)
    rec = SpatialRecorder(Mesh2D(2, 2), n_windows=2, label="demo")
    rec.record(0, [(0, 1)], 4.0)
    rec.record(1, [(0, 2), (2, 3)], 2.0)
    rec.close_window(0, 10.0, np.array([0, 1]), np.ones(2))
    rec.close_window(1, 20.0, np.array([1, 1]), np.ones(2))
    instr.spatial.add(rec.finish())
    return instr


def test_summary_renders_spatial_section():
    text = render_summary(spatial_session())
    assert "Spatial telemetry:" in text
    assert "spatial[demo]" in text
    assert "processor traffic (send+recv):" in text
    assert "peak storage:" in text
    assert "link load:" in text
    assert "congestion[demo]" in text


def test_jsonl_emits_spatial_records_with_analytics():
    text = to_jsonl(spatial_session())
    records = [json.loads(line) for line in text.splitlines()]
    (spatial,) = [r for r in records if r["type"] == "spatial"]
    assert spatial["label"] == "demo"
    assert spatial["link_totals"] == {
        "0,0->0,1": 4.0, "0,0->1,0": 2.0, "1,0->1,1": 2.0,
    }
    assert spatial["analytics"]["kind"] == "spatial_report"
    assert spatial["analytics"]["max_link_load"] == 4.0


def test_chrome_trace_emits_per_link_counter_series():
    trace = json.loads(render_chrome(spatial_session()))
    spatial = [
        e for e in trace["traceEvents"] if e["cat"] == "repro.spatial"
    ]
    # 3 loaded links x 2 windows
    assert len(spatial) == 6
    assert all(e["ph"] == "C" for e in spatial)
    series = {e["name"] for e in spatial}
    assert "link 0,0->0,1 [demo]" in series
    by_ts = sorted(
        (e["ts"], e["args"]["volume"])
        for e in spatial
        if e["name"] == "link 0,0->0,1 [demo]"
    )
    assert by_ts == [(10.0, 4.0), (20.0, 0.0)]
    assert "spatial_links_not_exported" not in trace["otherData"]


def test_chrome_trace_caps_link_series():
    from repro.grid import Mesh2D
    from repro.obs import SpatialRecorder
    from repro.obs.export import CHROME_LINK_SERIES_CAP

    instr = Instrumentation.started(spatial=True)
    rec = SpatialRecorder(Mesh2D(4, 4), n_windows=1, label="big")
    for link in rec.links:  # load all 48 wires
        rec.record(0, [link], 1.0)
    rec.close_window(0, 1.0, np.zeros(1, dtype=int), np.zeros(1))
    instr.spatial.add(rec.finish())
    trace = chrome_trace(instr)
    spatial = [
        e for e in trace["traceEvents"] if e["cat"] == "repro.spatial"
    ]
    assert len(spatial) == CHROME_LINK_SERIES_CAP
    assert trace["otherData"]["spatial_links_not_exported"] == (
        48 - CHROME_LINK_SERIES_CAP
    )


def test_summary_and_jsonl_surface_decision_logs():
    from repro import schedule
    from repro.core import CostModel
    from repro.grid import Mesh2D
    from repro.workloads import benchmark as make_benchmark

    workload = make_benchmark(1, 8, Mesh2D(2, 4), seed=1998)
    tensor = workload.reference_tensor()
    instr = Instrumentation.started(provenance=True)
    schedule(tensor, CostModel(workload.topology), instrument=instr)
    assert "Decision provenance:" in render_summary(instr)
    records = [json.loads(line) for line in to_jsonl(instr).splitlines()]
    (header,) = [r for r in records if r["type"] == "provenance"]
    assert header["method"] == "GOMCDS"
    assert header["n_data"] == tensor.n_data
