"""Spatial telemetry unit tests: recorder, trace analytics, diagnostics."""

import numpy as np
import pytest

from repro.diagnostics import OBS001, OBS002
from repro.grid import Mesh2D, Torus2D, mesh_links
from repro.obs import (
    Instrumentation,
    NOOP,
    SpatialRecorder,
    SpatialStore,
    analyze_spatial,
    gini_coefficient,
)


class TestGini:
    def test_uniform_load_is_zero(self):
        assert gini_coefficient([3.0, 3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_concentrated_load_approaches_one(self):
        loads = [0.0] * 99 + [100.0]
        assert gini_coefficient(loads) == pytest.approx(0.99)

    def test_empty_and_zero_vectors_are_even(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_order_invariant(self):
        assert gini_coefficient([1, 5, 2]) == gini_coefficient([5, 1, 2])


@pytest.fixture
def recorder(mesh44):
    return SpatialRecorder(mesh44, n_windows=3, label="test")


class TestRecorder:
    def test_links_are_the_structural_wires(self, recorder, mesh44):
        assert recorder.links == mesh_links(mesh44)
        # 4x4 mesh: 2 * (3*4 + 3*4) directed wires
        assert len(recorder.links) == 48

    def test_torus_counts_wrap_wires(self):
        rec = SpatialRecorder(Torus2D(4, 4), n_windows=1, label="t")
        assert len(rec.links) == 64  # every node has degree 4

    def test_record_accumulates_links_and_endpoints(self, recorder):
        links = [(0, 1), (1, 2)]  # a route 0 -> 2
        recorder.record(0, links, 2.0)
        recorder.record(0, [(1, 2)], 1.0)
        trace = recorder.finish()
        assert trace.window_links[0] == {(0, 1): 2.0, (1, 2): 3.0}
        assert trace.send[0, 0] == 2.0 and trace.send[0, 1] == 1.0
        assert trace.recv[0, 2] == 3.0

    def test_empty_route_is_a_noop(self, recorder):
        recorder.record(0, [], 5.0)
        assert recorder.window_links[0] == {}

    def test_close_window_snapshots_storage(self, recorder):
        locations = np.array([0, 0, 5, 5, 5])
        volumes = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        recorder.close_window(1, 42.0, locations, volumes)
        trace = recorder.finish()
        assert trace.window_ts[1] == 42.0
        assert trace.storage[1, 0] == 3.0
        assert trace.storage[1, 5] == 3.0
        assert trace.storage[1].sum() == volumes.sum()


def make_trace(volumes_by_window, topology=None):
    topology = topology or Mesh2D(4, 4)
    rec = SpatialRecorder(topology, len(volumes_by_window), label="t")
    for w, charges in enumerate(volumes_by_window):
        for links, volume in charges:
            rec.record(w, links, volume)
        rec.close_window(w, float(w), np.zeros(1, dtype=int), np.zeros(1))
    return rec.finish()


class TestTraceAnalytics:
    def test_totals_and_extremes(self):
        trace = make_trace(
            [
                [([(0, 1)], 4.0)],
                [([(0, 1), (1, 2)], 1.0)],
            ]
        )
        assert trace.link_totals() == {(0, 1): 5.0, (1, 2): 1.0}
        assert trace.total_link_traffic == 6.0
        assert trace.max_link_load == 5.0
        assert trace.mean_link_load == pytest.approx(6.0 / 48)

    def test_top_links_ranked_and_tie_broken(self):
        trace = make_trace(
            [[([(0, 1)], 2.0), ([(1, 2)], 2.0), ([(2, 3)], 9.0)]]
        )
        assert trace.top_links(2) == [((2, 3), 9.0), ((0, 1), 2.0)]

    def test_hotspot_drift_pinned_vs_moving(self):
        pinned = make_trace(
            [[([(0, 1)], 3.0)], [([(0, 1)], 3.0)], [([(0, 1)], 3.0)]]
        )
        assert pinned.hotspot_drift() == 0.0
        moving = make_trace(
            [[([(0, 1)], 3.0)], [([(1, 2)], 3.0)], [([(2, 3)], 3.0)]]
        )
        assert moving.hotspot_drift() == 1.0

    def test_drift_skips_empty_windows(self):
        trace = make_trace([[([(0, 1)], 1.0)], [], [([(0, 1)], 1.0)]])
        assert trace.hotspot_drift() == 0.0

    def test_gini_counts_idle_wires(self):
        trace = make_trace([[([(0, 1)], 10.0)]])
        # one loaded wire out of 48 is heavily unequal
        assert trace.gini() > 0.9

    def test_to_dict_uses_coordinate_link_keys(self):
        trace = make_trace([[([(0, 1)], 2.0)]])
        d = trace.to_dict()
        assert d["kind"] == "spatial_trace"
        assert d["link_totals"] == {"0,0->0,1": 2.0}
        assert d["window_links"][0] == {"0,0->0,1": 2.0}
        assert len(d["send"]) == trace.n_windows

    def test_summary_handles_no_traffic(self):
        trace = make_trace([[]])
        assert "no link traffic" in trace.summary()


class TestAnalyzeSpatial:
    def test_hot_link_fires_obs001_with_source_processor(self):
        trace = make_trace([[([(5, 6)], 40.0), ([(0, 1)], 1.0)]])
        report = analyze_spatial(trace, hotspot_factor=4.0)
        hot = [d for d in report.diagnostics if d.code == OBS001]
        assert hot and hot[0].processor == 5
        assert "1,1->1,2" in hot[0].message

    def test_balanced_traffic_is_clean(self, mesh44):
        charges = [([link], 1.0) for link in mesh_links(mesh44)]
        report = analyze_spatial(make_trace([charges]))
        assert report.diagnostics == []
        assert report.exit_code == 0
        assert report.gini == pytest.approx(0.0)

    def test_imbalance_fires_obs002(self):
        report = analyze_spatial(
            make_trace([[([(0, 1)], 10.0)]]), gini_threshold=0.6
        )
        assert any(d.code == OBS002 for d in report.diagnostics)
        assert report.exit_code == 1  # warnings only

    def test_report_serializes_with_thresholds(self):
        report = analyze_spatial(make_trace([[([(0, 1)], 1.0)]]), top_k=1)
        d = report.to_dict()
        assert d["kind"] == "spatial_report"
        assert d["thresholds"] == {
            "hotspot_factor": 4.0,
            "gini_threshold": 0.6,
        }
        assert d["top_links"] == [{"link": "0,0->0,1", "volume": 1.0}]

    def test_render_lists_hot_links_and_diagnostics(self):
        report = analyze_spatial(make_trace([[([(0, 1)], 10.0)]]))
        text = report.render()
        assert "hot link 0,0->0,1" in text
        assert "OBS002" in text


class TestStores:
    def test_started_spatial_opt_in(self):
        assert Instrumentation.started().spatial.recording is False
        assert Instrumentation.started(spatial=True).spatial.recording is True

    def test_store_collects(self):
        store = SpatialStore(recording=True)
        store.add(make_trace([[]]))
        assert len(store) == 1

    def test_noop_store_is_dark(self):
        assert isinstance(NOOP.spatial, SpatialStore)
        assert NOOP.spatial.recording is False
        assert len(NOOP.spatial) == 0
