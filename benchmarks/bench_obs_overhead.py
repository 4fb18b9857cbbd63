"""REPRO_TRACE overhead: untraced instrumentation must stay under 2%.

With tracing off, every ``repro.obs`` instrumentation point degrades to a
flag check (spans add one small object construction).  A codec roundtrip
crosses nine such points (three spans: ``compressors.roundtrip`` /
``.compress`` / ``.decompress``; three counter adds; one gauge set; two
histogram observes), so the budget check is done by *per-call
accounting*: the cost of one inactive span, one inactive counter add,
and one inactive histogram observe is measured in isolation at high
iteration counts — where it is deterministic — and scaled by the
points-per-roundtrip counts against the roundtrip's own median.  A
direct traced-vs-untraced A/B is also recorded (pytest-benchmark
entries plus the saved report) for the curious, but the assertion rides
on the accounting, which does not inherit the codec's timing noise.

A second A/B covers the executor seam: roundtrips mapped through
``Executor("thread")`` with tracing *and* trace-context propagation on
(histograms recording, worker spans joining the caller's trace) versus
tracing off.
"""

import time

from conftest import median_seconds, save_text

from repro import obs
from repro.compressors import get_variant
from repro.parallel.executor import Executor

_VARIANT = "fpzip-24"
_REPEATS = 7
#: Instrumentation points one Compressor.roundtrip crosses when off.
_SPANS_PER_ROUNDTRIP = 3
_METRICS_PER_ROUNDTRIP = 4
_HISTS_PER_ROUNDTRIP = 2


def _roundtrip(codec, field):
    codec.decompress(codec.compress(field))


def _inactive_span_cost(iterations=200_000):
    """Seconds per ``with span(...)`` pass while tracing is off."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench.noop", codec="x"):
            pass
    return (time.perf_counter() - t0) / iterations


def _inactive_metric_cost(iterations=200_000):
    """Seconds per counter add / gauge set while tracing is off."""
    c = obs.counter("bench.noop")
    t0 = time.perf_counter()
    for _ in range(iterations):
        c.add(1)
    return (time.perf_counter() - t0) / iterations


def _inactive_hist_cost(iterations=200_000):
    """Seconds per histogram observe while tracing is off."""
    h = obs.histogram("bench.noop_s")
    t0 = time.perf_counter()
    for _ in range(iterations):
        h.observe(0.001, codec="x")
    return (time.perf_counter() - t0) / iterations


def _mapped_roundtrips(executor, codec, field):
    executor.map(lambda _i: _roundtrip(codec, field), range(4), workers=2)


def test_roundtrip_untraced(benchmark, ctx):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    with obs.tracing(False):
        benchmark(_roundtrip, codec, field)


def test_roundtrip_traced(benchmark, ctx):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        benchmark(_roundtrip, codec, field)
    assert agg.get("compressors.compress").count > 0


def test_mapped_roundtrips_untraced(benchmark, ctx):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    executor = Executor("thread", retries=0)
    with obs.tracing(False):
        benchmark(_mapped_roundtrips, executor, codec, field)


def test_mapped_roundtrips_propagating(benchmark, ctx, monkeypatch):
    """Tracing + propagation on: histograms fill, worker spans join."""
    monkeypatch.setenv("REPRO_TRACE_PROPAGATE", "1")
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    executor = Executor("thread", retries=0)
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        with obs.span("bench.mapped_root"):
            benchmark(_mapped_roundtrips, executor, codec, field)
    assert any(k.startswith("compressors.compress_s") for k in agg.hists)
    assert agg.get("compressors.compress").count > 0


def test_untraced_overhead_below_two_percent(ctx, results_dir):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    with obs.tracing(False):
        _roundtrip(codec, field)  # warm imports/caches before timing
        base = median_seconds(_roundtrip, codec, field, repeats=_REPEATS)
        span_cost = _inactive_span_cost()
        metric_cost = _inactive_metric_cost()
        hist_cost = _inactive_hist_cost()
    per_roundtrip = (_SPANS_PER_ROUNDTRIP * span_cost
                     + _METRICS_PER_ROUNDTRIP * metric_cost
                     + _HISTS_PER_ROUNDTRIP * hist_cost)
    overhead = per_roundtrip / base

    # Informational A/B: traced-on cost over the same roundtrip.
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        _roundtrip(codec, field)
        traced = median_seconds(_roundtrip, codec, field,
                                repeats=_REPEATS)
    save_text(
        results_dir, "obs_overhead.txt",
        f"{_VARIANT} roundtrip on U {field.shape}: "
        f"untraced {base * 1e3:.3f} ms; inactive span "
        f"{span_cost * 1e9:.0f} ns, inactive metric "
        f"{metric_cost * 1e9:.0f} ns, inactive hist "
        f"{hist_cost * 1e9:.0f} ns -> accounted overhead "
        f"{overhead * 100:.3f}% (budget 2%); traced-on A/B "
        f"{(traced / base - 1) * 100:+.2f}%",
    )
    assert overhead < 0.02, (
        f"untraced obs overhead {overhead * 100:.2f}% exceeds the 2% budget"
    )
