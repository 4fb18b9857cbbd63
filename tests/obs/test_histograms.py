"""Histogram metrics: bucket layout, quantiles, merging, aggregation."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.core import bucket_bounds
from repro.obs.sinks import HistogramStats


def test_bucket_bounds_default_layout():
    bounds = bucket_bounds()
    assert len(bounds) == 37  # 9 decades x 4/decade + 1
    assert bounds[0] == pytest.approx(1e-6)
    assert bounds[-1] == pytest.approx(1e3)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_bucket_bounds_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_METRICS_BUCKETS", "2")
    bounds = bucket_bounds()
    assert len(bounds) == 19
    monkeypatch.setenv("REPRO_METRICS_BUCKETS", "0")  # invalid -> default
    assert len(bucket_bounds()) == 37


def test_stats_observe_and_summary():
    h = HistogramStats()
    for v in (0.001, 0.002, 0.004, 0.008, 1.5):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["mean"] == pytest.approx(sum((0.001, 0.002, 0.004,
                                           0.008, 1.5)) / 5)
    assert s["max"] == pytest.approx(1.5)
    assert 0.001 <= s["p50"] <= 0.008
    assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]


def test_stats_quantiles_clamped_to_observed_range():
    h = HistogramStats()
    h.observe(0.005)
    assert h.quantile(0.0) >= 0.005 * 0.99
    assert h.quantile(1.0) <= 0.005 * 1.01


def test_stats_overflow_bucket():
    h = HistogramStats()
    h.observe(5000.0)  # beyond the last bound
    assert h.count == 1
    assert h.quantile(0.5) == pytest.approx(5000.0)


def test_stats_merge():
    a, b = HistogramStats(), HistogramStats()
    for v in (0.001, 0.01):
        a.observe(v)
    for v in (0.1, 1.0):
        b.observe(v)
    a.merge(b)
    assert a.count == 4
    assert a.total == pytest.approx(1.111)
    assert a.vmax == pytest.approx(1.0)
    assert a.summary()["p99"] <= 1.0


def test_stats_merge_rejects_mismatched_bounds():
    a = HistogramStats()
    b = HistogramStats(bounds=(0.1, 1.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_metric_flows_into_aggregator():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        h = obs.histogram("demo.latency_s")
        h.observe(0.002)
        h.observe(0.004, kind="x")
    assert "demo.latency_s" in agg.hists
    assert "demo.latency_s[kind=x]" in agg.hists
    assert agg.hists["demo.latency_s"].count == 1


def test_histogram_interned_and_inactive_noop():
    assert obs.histogram("demo.same") is obs.histogram("demo.same")
    agg = obs.Aggregator()
    obs.histogram("demo.idle_s").observe(1.0)  # tracing off: dropped
    assert agg.hists == {}


def test_histograms_roundtrip_through_jsonl(tmp_path):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        for v in (0.001, 0.01, 0.1):
            obs.histogram("demo.rt_s").observe(v)
    sink.close()
    agg = obs.Aggregator.from_jsonl(trace)
    assert agg.hists["demo.rt_s"].count == 3
    assert agg.hists["demo.rt_s"].total == pytest.approx(0.111)


def test_span_durations_feed_quantile_columns():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        for _ in range(3):
            with obs.span("demo.stage"):
                pass
    headers, rows = agg.table()
    assert "p50 (s)" in headers and "p95 (s)" in headers
    row = next(r for r in rows if r[0] == "demo.stage")
    p50 = row[headers.index("p50 (s)")]
    p95 = row[headers.index("p95 (s)")]
    assert 0.0 <= p50 <= p95


def test_metrics_table_lists_hist_quantiles():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        obs.histogram("demo.h_s").observe(0.25)
    headers, rows = agg.metrics_table()
    hist_rows = [r for r in rows if r[1] == "hist"]
    assert len(hist_rows) == 1
    assert "p95=" in hist_rows[0][2]


def test_table_name_filter():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        with obs.span("alpha.one"):
            pass
        with obs.span("beta.two"):
            pass
    _, rows = agg.table(name_filter="alpha.*")
    assert [r[0] for r in rows] == ["alpha.one"]
    _, rows = agg.table(name_filter="*.two")
    assert [r[0] for r in rows] == ["beta.two"]


def test_table_bytes_sort_shows_zero_for_byteless_spans():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        with obs.span("demo.sized", bytes=1000):
            pass
        with obs.span("demo.unsized"):
            pass
    headers, rows = agg.table(sort="bytes")
    mb = headers.index("MB")
    unsized = next(r for r in rows if r[0] == "demo.unsized")
    assert unsized[mb] == 0.0  # sortable zero, not a dash
