"""Prometheus exposition output: grammar, types, quantiles, buckets."""

import re

import pytest

from repro.obs import Instrumentation, NOOP, to_prometheus, write_export
from repro.obs.export import PROMETHEUS_QUANTILES

#: One exposition sample line: name, optional {labels}, value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9.e+-]+)$"
)
COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def assert_valid_exposition(text: str) -> None:
    """Every line is a well-formed comment or sample line."""
    for line in text.splitlines():
        assert COMMENT_RE.match(line) or SAMPLE_RE.match(line), line


def session():
    instr = Instrumentation.started()
    instr.count("engine.cache.hits", 3)
    instr.gauge("engine.cache.entries", 2)
    for v in (1.0, 2.0, 3.0, 10.0):
        instr.observe("engine.request_us", v)
    return instr


def test_output_is_grammar_valid():
    assert_valid_exposition(to_prometheus(session()))


def test_counters_become_total_with_type_lines():
    text = to_prometheus(session())
    assert "# TYPE repro_engine_cache_hits_total counter" in text
    assert "repro_engine_cache_hits_total 3" in text
    assert "# HELP repro_engine_cache_hits_total" in text


def test_gauges_map_verbatim():
    text = to_prometheus(session())
    assert "# TYPE repro_engine_cache_entries gauge" in text
    assert "repro_engine_cache_entries 2" in text


def test_histograms_default_to_exact_quantile_summaries():
    text = to_prometheus(session())
    assert "# TYPE repro_engine_request_us summary" in text
    # nearest-rank on [1, 2, 3, 10]
    assert 'repro_engine_request_us{quantile="0.5"} 2' in text
    assert 'repro_engine_request_us{quantile="0.99"} 10' in text
    assert "repro_engine_request_us_sum 16" in text
    assert "repro_engine_request_us_count 4" in text
    assert len(PROMETHEUS_QUANTILES) == 4


def test_bucket_boundaries_switch_to_histogram_type():
    text = to_prometheus(session(), buckets=(2.0, 5.0))
    assert "# TYPE repro_engine_request_us histogram" in text
    assert 'repro_engine_request_us_bucket{le="2"} 2' in text
    assert 'repro_engine_request_us_bucket{le="5"} 3' in text
    assert 'repro_engine_request_us_bucket{le="+Inf"} 4' in text
    assert_valid_exposition(text)


def test_per_metric_bucket_mapping():
    instr = session()
    instr.observe("other.metric", 1.0)
    text = to_prometheus(instr, buckets={"engine.request_us": (5.0,)})
    assert 'repro_engine_request_us_bucket{le="5"} 3' in text
    # unmapped histogram stays a summary
    assert "# TYPE repro_other_metric summary" in text


def test_names_are_sanitized():
    instr = Instrumentation.started()
    instr.count("weird metric-name.v2!")
    text = to_prometheus(instr)
    assert "repro_weird_metric_name_v2__total 1" in text
    assert_valid_exposition(text)


@pytest.mark.parametrize("prefix,expected", [
    ("", "engine_cache_hits_total"),
    ("pim", "pim_engine_cache_hits_total"),
])
def test_prefix_is_configurable(prefix, expected):
    text = to_prometheus(session(), prefix=prefix)
    assert expected in text


def test_empty_and_noop_sessions_export_empty():
    assert to_prometheus(Instrumentation.started()) == ""
    assert to_prometheus(NOOP) == ""


def test_write_export_integration(tmp_path):
    path = tmp_path / "metrics.prom"
    text = write_export(session(), "prometheus", path)
    # exactly one trailing newline on disk — what a scraper expects
    assert path.read_text() == text + "\n"
    assert not text.endswith("\n")


def test_results_are_ignored_not_rejected():
    class FakeResult:
        def to_dict(self):
            return {}

        def summary(self):
            return ""

    text = to_prometheus(session(), results=[FakeResult()])
    assert "repro_engine_cache_hits_total 3" in text
