"""Span tracer unit tests."""

import pytest

from repro.obs import NOOP, NULL_SPAN, Tracer


def test_spans_record_in_preorder_with_depth():
    t = Tracer()
    with t.span("outer", key="v"):
        with t.span("inner"):
            pass
        with t.span("sibling"):
            pass
    names = [(s.name, s.depth) for s in t.spans]
    assert names == [("outer", 0), ("inner", 1), ("sibling", 1)]
    assert len(t) == 3


def test_durations_are_positive_and_nested():
    t = Tracer()
    with t.span("outer") as outer:
        with t.span("inner") as inner:
            pass
    assert outer.duration_us >= inner.duration_us >= 0.0
    assert inner.start_us >= outer.start_us


def test_set_attaches_attributes_mid_span():
    t = Tracer()
    with t.span("phase", a=1) as span:
        span.set(b=2, a=3)
    assert span.attrs == {"a": 3, "b": 2}
    d = span.to_dict()
    assert d["name"] == "phase"
    assert d["attrs"] == {"a": 3, "b": 2}
    assert d["depth"] == 0


def test_exception_marks_span_as_error():
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.span("doomed"):
            raise RuntimeError("boom")
    assert t.spans[0].attrs["error"] is True
    assert t.depth == 0  # stack unwound


def test_mis_nested_exit_does_not_corrupt_stack():
    t = Tracer()
    outer = t.span("outer")
    inner = t.span("inner")
    outer.__enter__()
    inner.__enter__()
    # exit outer first: inner is popped along the way
    outer.__exit__(None, None, None)
    assert t.depth == 0
    inner.__exit__(None, None, None)
    assert t.depth == 0


def test_now_us_is_monotonic():
    t = Tracer()
    a = t.now_us()
    b = t.now_us()
    assert b >= a >= 0.0


def test_noop_span_is_the_null_span():
    span = NOOP.span("anything", k=1)
    assert span is NULL_SPAN
    with span as s:
        assert s.set(x=1) is s
    assert len(NOOP.tracer) == 0
    assert NOOP.tracer.spans == []
