"""Flight recorder: bounded ring, watermarks, dumps, global hookup."""

import json

import pytest

from repro.obs import FlightRecorder, flight_recorder, record_event
from repro.obs.recorder import DEFAULT_CAPACITY, DUMP_ENV_VAR, dump_on_error


def test_record_stamps_seq_time_and_kind():
    ring = FlightRecorder()
    event = ring.record("solve.start", algorithm="GOMCDS")
    assert event["seq"] == 0
    assert event["kind"] == "solve.start"
    assert event["algorithm"] == "GOMCDS"
    assert event["t_unix_us"] > 0
    assert ring.record("solve.end")["seq"] == 1


def test_ring_is_bounded_and_counts_drops():
    ring = FlightRecorder(capacity=3)
    for i in range(5):
        ring.record("tick", i=i)
    assert len(ring) == 3
    assert ring.dropped == 2
    assert [e["i"] for e in ring.events()] == [2, 3, 4]
    # seq keeps climbing even after eviction
    assert ring.next_seq == 5


def test_events_since_slices_one_tasks_events():
    ring = FlightRecorder()
    ring.record("before")
    watermark = ring.next_seq
    ring.record("during", n=1)
    ring.record("during", n=2)
    kinds = [e["kind"] for e in ring.events_since(watermark)]
    assert kinds == ["during", "during"]
    assert ring.events_since(ring.next_seq) == []


def test_append_adopts_and_restamps_seq():
    ring = FlightRecorder()
    ring.record("local")
    ring.append({"seq": 99, "kind": "remote", "worker": 1})
    events = ring.events()
    assert [e["seq"] for e in events] == [0, 1]
    assert events[1]["kind"] == "remote"
    assert events[1]["worker"] == 1


def test_tail_returns_most_recent_first_in_order():
    ring = FlightRecorder()
    for i in range(5):
        ring.record("tick", i=i)
    assert [e["i"] for e in ring.tail(2)] == [3, 4]
    assert ring.tail(0) == []
    assert len(ring.tail(100)) == 5


def test_to_jsonl_records_are_typed_events():
    ring = FlightRecorder()
    ring.record("cache.hit", key="abc")
    records = [json.loads(line) for line in ring.to_jsonl().splitlines()]
    assert records == [
        {
            "type": "event",
            "seq": 0,
            "t_unix_us": records[0]["t_unix_us"],
            "kind": "cache.hit",
            "key": "abc",
        }
    ]


def test_dump_to_path_and_file_and_stderr(tmp_path, capsys):
    ring = FlightRecorder()
    ring.record("tick")
    path = tmp_path / "flight.jsonl"
    text = ring.dump(path)
    assert path.read_text() == text + "\n"
    with (tmp_path / "second.jsonl").open("w") as fh:
        ring.dump(fh)
    ring.dump()  # stderr fallback
    assert "tick" in capsys.readouterr().err


def test_dump_empty_ring_writes_nothing(tmp_path):
    path = tmp_path / "flight.jsonl"
    assert FlightRecorder().dump(path) == ""
    assert not path.exists()


def test_clear_resets_events_and_drops():
    ring = FlightRecorder(capacity=1)
    ring.record("a")
    ring.record("b")
    ring.clear()
    assert len(ring) == 0
    assert ring.dropped == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_record_event_lands_on_the_global_ring():
    ring = flight_recorder()
    watermark = ring.next_seq
    record_event("test.global", marker=True)
    (event,) = ring.events_since(watermark)
    assert event["kind"] == "test.global"
    assert event["marker"] is True
    assert ring.capacity == DEFAULT_CAPACITY


def test_dump_on_error_records_and_writes_when_env_set(
    tmp_path, monkeypatch
):
    path = tmp_path / "crash.jsonl"
    monkeypatch.setenv(DUMP_ENV_VAR, str(path))
    dump_on_error("test failure context")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    error = records[-1]
    assert error["kind"] == "error"
    assert error["context"] == "test failure context"


def test_dump_on_error_without_env_keeps_ring_in_memory(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv(DUMP_ENV_VAR, raising=False)
    watermark = flight_recorder().next_seq
    dump_on_error("quiet failure")
    # the error event is recorded but nothing is printed or written
    (event,) = flight_recorder().events_since(watermark)
    assert event["kind"] == "error"
    assert capsys.readouterr().err == ""


def test_env_capacity_sizes_the_lazy_global_ring(monkeypatch):
    import repro.obs.recorder as recorder

    monkeypatch.setenv(recorder.CAPACITY_ENV_VAR, "7")
    monkeypatch.setattr(recorder, "_FLIGHT", None)
    ring = flight_recorder()
    assert ring.capacity == 7
    # created once; later env changes do not resize the live ring
    monkeypatch.setenv(recorder.CAPACITY_ENV_VAR, "9")
    assert flight_recorder() is ring


@pytest.mark.parametrize("raw", ["0", "-3", "huge", "2.5", ""])
def test_env_capacity_rejects_bad_overrides(monkeypatch, raw):
    import repro.obs.recorder as recorder

    monkeypatch.setenv(recorder.CAPACITY_ENV_VAR, raw)
    monkeypatch.setattr(recorder, "_FLIGHT", None)
    with pytest.raises(ValueError, match=r"\[OBS003\]"):
        flight_recorder()
    # the global stays unset, so a fixed env heals the process
    monkeypatch.setenv(recorder.CAPACITY_ENV_VAR, "5")
    assert flight_recorder().capacity == 5


def test_constructor_rejects_nonpositive_with_coded_error():
    with pytest.raises(ValueError, match=r"\[OBS003\]"):
        FlightRecorder(capacity=-1)


def test_provenance_solves_flight_record():
    from repro.core import CostModel
    from repro.grid import Mesh1D
    from repro.obs import Instrumentation
    from repro.obs.provenance import ProvenanceStore, record_decisions
    import numpy as np

    ring = flight_recorder()
    watermark = ring.next_seq
    obs = Instrumentation.started(provenance=True)
    assert isinstance(obs.provenance, ProvenanceStore)
    costs = np.zeros((1, 1, 2))
    record_decisions(
        obs,
        costs=costs,
        centers=np.zeros((1, 1), dtype=np.int64),
        model=CostModel(Mesh1D(2)),
        method="SCDS",
    )
    kinds = [e["kind"] for e in ring.events_since(watermark)]
    assert kinds == ["provenance.solve"]
