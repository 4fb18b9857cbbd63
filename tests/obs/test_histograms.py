"""Span-duration histograms: the bucket layout and quantiles every
stage's :class:`SpanStats` record keeps, and the table columns they
feed."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.sinks import BUCKET_BOUNDS, SpanStats


def _stats(*durations: float) -> SpanStats:
    stats = SpanStats()
    for d in durations:
        stats.add(d, 0, 0)
    return stats


def test_bucket_bounds_default_layout():
    bounds = BUCKET_BOUNDS
    assert len(bounds) == 37  # 9 decades x 4/decade + 1
    assert bounds[0] == pytest.approx(1e-6)
    assert bounds[-1] == pytest.approx(1e3)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_stats_observe_and_summary():
    values = (0.001, 0.002, 0.004, 0.008, 1.5)
    s = _stats(*values)
    assert s.count == 5
    assert sum(s.counts) == 5
    assert s.mean == pytest.approx(sum(values) / 5)
    assert s.max == pytest.approx(1.5)
    p50, p95, p99 = (s.quantile(q) for q in (0.50, 0.95, 0.99))
    assert 0.001 <= p50 <= 0.008
    assert p50 <= p95 <= p99 <= s.max


def test_stats_quantiles_clamped_to_observed_range():
    s = _stats(0.005)
    assert s.quantile(0.0) >= 0.005 * 0.99
    assert s.quantile(1.0) <= 0.005 * 1.01


def test_stats_overflow_bucket():
    s = _stats(5000.0)  # beyond the last bound
    assert s.count == 1
    assert s.counts[-1] == 1
    assert s.quantile(0.5) == pytest.approx(5000.0)


def test_empty_stats_quantile_is_zero():
    assert SpanStats().quantile(0.5) == 0.0


def test_histograms_roundtrip_through_jsonl(tmp_path):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    live = obs.Aggregator()
    with obs.tracing(sinks=[sink, live]):
        for _ in range(3):
            with obs.span("demo.rt"):
                pass
    sink.close()
    rebuilt = obs.Aggregator.from_jsonl(trace).get("demo.rt")
    assert rebuilt.counts == live.get("demo.rt").counts
    assert rebuilt.quantile(0.95) == live.get("demo.rt").quantile(0.95)


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
