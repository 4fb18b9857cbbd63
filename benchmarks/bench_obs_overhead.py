"""REPRO_TRACE overhead: untraced instrumentation must stay under 2%.

With tracing off, every ``repro.obs`` instrumentation point degrades to a
flag check (spans add one small object construction).  A codec roundtrip
crosses seven such points (three spans: ``compressors.roundtrip`` /
``.compress`` / ``.decompress``; three counter adds; one gauge set), so
the budget check is done by *per-call accounting*: the cost of one
inactive span and one inactive counter add is measured in isolation at
high iteration counts — where it is deterministic — and scaled by the
points-per-roundtrip counts against the roundtrip's own median.  A
direct traced-vs-untraced A/B is also recorded (pytest-benchmark
entries plus the saved report, its two arms alternating round by
round) for the curious, but the assertion rides on the accounting,
which does not inherit the codec's timing noise.

A second A/B covers the executor seam: roundtrips mapped through a
two-worker process pool with tracing on (each task a ``parallel.task``
span in its worker, the spans crossing the process boundary to join the
caller's trace) versus tracing off.
"""

import os
import time

from conftest import alternating_medians, save_text

from repro import obs
from repro.compressors import get_variant
from repro.parallel.executor import parallel_map

_VARIANT = "fpzip-24"
_REPEATS = 15
#: Instrumentation points one Compressor.roundtrip crosses when off.
_SPANS_PER_ROUNDTRIP = 3
_METRICS_PER_ROUNDTRIP = 4


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


def _roundtrip_task(job):
    """Module-level so the process pool can pickle it."""
    codec, field = job
    _roundtrip(codec, field)


def _mapped_roundtrips(codec, field):
    parallel_map(_roundtrip_task, [(codec, field)] * 4, workers=2)


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
    with obs.tracing(False):
        benchmark(_mapped_roundtrips, codec, field)


def test_mapped_roundtrips_propagating(benchmark, ctx):
    """Tracing on: task spans record, worker spans join the parent trace."""
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        with obs.span("bench.mapped_root"):
            benchmark(_mapped_roundtrips, codec, field)
    assert agg.get("compressors.compress").count > 0
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        _mapped_roundtrips(codec, field)
    spans = [e for e in buf.events if isinstance(e, obs.SpanRecord)]
    compress_pids = {r.pid for r in spans
                     if r.name == "compressors.compress"}
    assert compress_pids and os.getpid() not in compress_pids
    assert sum(r.name == "parallel.task" for r in spans) == 4


def test_untraced_overhead_below_two_percent(ctx, results_dir):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    agg = obs.Aggregator()

    def untraced():
        with obs.tracing(False):
            _roundtrip(codec, field)

    def traced():
        with obs.tracing(sinks=[agg]):
            _roundtrip(codec, field)

    untraced()  # warm imports/caches before timing
    traced()
    # The informational traced-on A/B shares its untraced arm with the
    # accounting below.
    base, traced_s = alternating_medians([untraced, traced],
                                         repeats=_REPEATS)
    with obs.tracing(False):
        span_cost = _inactive_span_cost()
        metric_cost = _inactive_metric_cost()
    per_roundtrip = (_SPANS_PER_ROUNDTRIP * span_cost
                     + _METRICS_PER_ROUNDTRIP * metric_cost)
    overhead = per_roundtrip / base

    save_text(
        results_dir, "obs_overhead.txt",
        f"{_VARIANT} roundtrip on U {field.shape}: "
        f"untraced {base * 1e3:.3f} ms; inactive span "
        f"{span_cost * 1e9:.0f} ns, inactive metric "
        f"{metric_cost * 1e9:.0f} ns -> accounted overhead "
        f"{overhead * 100:.3f}% (budget 2%); traced-on A/B "
        f"{(traced_s / base - 1) * 100:+.2f}%",
    )
    assert overhead < 0.02, (
        f"untraced obs overhead {overhead * 100:.2f}% exceeds the 2% budget"
    )
