"""Instrumentation handle, active-session and resolve() tests."""

from repro.obs import NOOP, Instrumentation, active, instrumented, resolve


def test_noop_is_disabled_and_records_nothing():
    assert NOOP.enabled is False
    with NOOP.span("phase", k=1):
        NOOP.count("c")
        NOOP.gauge("g", 1.0)
        NOOP.observe("h", 2.0)
    assert len(NOOP.tracer) == 0
    assert len(NOOP.metrics) == 0
    assert NOOP.metrics.to_dicts() == []


def test_started_session_records():
    instr = Instrumentation.started()
    assert instr.enabled
    with instr.span("phase"):
        instr.count("c", 2)
        instr.observe("h", 4.0)
    assert [s.name for s in instr.tracer.spans] == ["phase"]
    assert instr.metrics.counters["c"].value == 2.0
    # observe() stamps the tracer clock on the sample
    (ts, value), = instr.metrics.histograms["h"].timed_samples()
    assert value == 4.0
    assert ts > 0.0


def test_resolve_prefers_explicit_argument():
    mine = Instrumentation.started()
    assert resolve(mine) is mine
    assert resolve(None) is NOOP  # nothing active


def test_instrumented_installs_and_restores_active():
    assert active() is NOOP
    with instrumented() as session:
        assert active() is session
        assert resolve(None) is session
        # nesting restores the outer session, not NOOP
        inner = Instrumentation.started()
        with instrumented(inner):
            assert active() is inner
        assert active() is session
    assert active() is NOOP


def test_instrumented_restores_on_exception():
    try:
        with instrumented():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert active() is NOOP


def test_instrumented_nesting_resolves_to_inner_session():
    # regression guard for the pool inline path: a solve running inside
    # instrumented(inner) while an outer session is active must record
    # into the inner session, and the outer must come back on exit
    outer = Instrumentation.started()
    inner = Instrumentation.started()
    with instrumented(outer):
        with instrumented(inner):
            resolve(None).count("nested.counter", 1)
            with resolve(None).span("nested.phase"):
                pass
        assert active() is outer
        resolve(None).count("outer.counter", 1)
    assert inner.metrics.counters["nested.counter"].value == 1.0
    assert [s.name for s in inner.tracer.spans] == ["nested.phase"]
    assert "nested.counter" not in outer.metrics.counters
    assert outer.metrics.counters["outer.counter"].value == 1.0
    assert active() is NOOP


def test_instrumented_nesting_restores_outer_on_inner_exception():
    outer = Instrumentation.started()
    with instrumented(outer):
        try:
            with instrumented(Instrumentation.started()):
                raise RuntimeError("inner boom")
        except RuntimeError:
            pass
        assert active() is outer
    assert active() is NOOP


def test_nested_sessions_keep_separate_provenance_stores():
    assert NOOP.provenance.recording is False
    outer = Instrumentation.started(provenance=True)
    inner = Instrumentation.started()  # recording, provenance off
    with instrumented(outer):
        assert resolve(None).provenance.recording is True
        with instrumented(inner):
            assert resolve(None).provenance.recording is False
            assert resolve(None).provenance is not outer.provenance
        assert resolve(None).provenance is outer.provenance
