"""repro.obs — zero-dependency tracing + metrics observability layer.

The paper's methodology is a pipeline (ensemble generation -> compression
round trips -> PVT acceptance tests -> hybrid selection); steering it at
scale needs timing and throughput visibility into each stage.  This
package provides:

- hierarchical wall-clock **spans** — ``with span("pvt.zscore"): ...`` or
  ``@traced("subsystem.stage")`` — recording duration, metadata, and
  parent/child nesting, including across ``parallel_map`` workers;
- typed **counters and gauges** for the domain's hot numbers (bytes
  in/out, compression ratio, ensemble members built, PVT pass/fail
  tallies); latency distributions (p50/p95 per stage and per codec)
  come from the spans themselves;
- **trace-context propagation**: every span carries a
  ``trace_id``/``span_id``/``parent_id``; :class:`TraceContext` crosses
  process boundaries in ``WorkerTask`` so one request's
  spans reassemble into a tree via ``repro stats --trace <id>``;
- pluggable **sinks**: the in-process :class:`~repro.obs.sinks.Aggregator`
  behind ``repro stats`` (the one per-run view), a JSON-lines trace
  writer, and a Chrome-trace (``chrome://tracing`` / Perfetto) exporter.

Everything is gated behind ``REPRO_TRACE=1`` (or the :func:`tracing`
context manager); the untraced path costs one flag check per
instrumentation point (<2% overhead, enforced by
``benchmarks/bench_obs_overhead.py``).  File sinks are configured with
``REPRO_TRACE_JSONL=<path>`` and ``REPRO_TRACE_CHROME=<path>``.
``REPRO_TRACE_MEM=1`` (or :func:`profiling_memory`) additionally attaches
tracemalloc peak/current deltas to every span and RSS gauges to root
spans — see :mod:`repro.obs.memory`.

The instrumentation contract — span naming scheme, which metrics each
layer must emit, and how to open a trace in Perfetto — is documented in
``docs/observability.md`` and enforced by the REP009 lint rule (ad-hoc
``time.perf_counter()`` timing outside this package is a finding).

Like :mod:`repro.check.hooks`, this package imports nothing from the rest
of :mod:`repro`, so any layer can instrument itself without cycles.
"""

from __future__ import annotations

from repro.obs.core import (
    Counter,
    Gauge,
    MetricEvent,
    SpanRecord,
    TraceContext,
    WorkerTask,
    active,
    aggregator,
    counter,
    current_context,
    current_depth,
    current_span_name,
    flush_sinks,
    gauge,
    get_override,
    merge_events,
    reset,
    set_override,
    span,
    traced,
    tracing,
)
from repro.obs.memory import (
    get_mem_override,
    mem_active,
    peak_rss_bytes,
    profiling_memory,
    rss_bytes,
    set_mem_override,
)
from repro.obs.sinks import (
    Aggregator,
    BufferSink,
    ChromeTraceSink,
    JsonlSink,
    Sink,
    SpanStats,
    list_traces,
    load_jsonl,
    render_trace_tree,
)

__all__ = [
    "Aggregator",
    "BufferSink",
    "ChromeTraceSink",
    "Counter",
    "Gauge",
    "JsonlSink",
    "MetricEvent",
    "Sink",
    "SpanRecord",
    "SpanStats",
    "TraceContext",
    "WorkerTask",
    "active",
    "aggregator",
    "counter",
    "current_context",
    "current_depth",
    "current_span_name",
    "flush_sinks",
    "gauge",
    "get_mem_override",
    "get_override",
    "list_traces",
    "load_jsonl",
    "mem_active",
    "merge_events",
    "peak_rss_bytes",
    "profiling_memory",
    "render_trace_tree",
    "reset",
    "rss_bytes",
    "set_mem_override",
    "set_override",
    "span",
    "traced",
    "tracing",
]
