"""REPRO_TRACE_MEM overhead: the mem-off traced path must stay under 5%.

Memory profiling only ever runs inside an active span, so the cost of
*having* the feature while it is off is the per-span ``mem_active()``
flag check folded into the traced span path.  Like
``bench_obs_overhead.py``, the budget check is per-call accounting: the
cost of one traced-but-mem-off span is measured in isolation at high
iteration counts — where it is deterministic — and scaled by the spans a
codec roundtrip crosses against the roundtrip's own median.  A direct
mem-on A/B is also recorded (informational: tracemalloc hooks every
allocation, which is exactly why ``REPRO_TRACE_MEM`` is opt-in).
"""

import time

from conftest import median_seconds, save_text

from repro import obs
from repro.compressors import get_variant

_VARIANT = "fpzip-24"
_REPEATS = 7
#: Spans one Compressor.roundtrip crosses (roundtrip/compress/decompress).
_SPANS_PER_ROUNDTRIP = 3
#: Compress scratch allowed per input byte, plus a fixed allowance for
#: the entropy coders' tables: ~27 B/B is measured at bench scale.
_PEAK_PER_BYTE = 32
_PEAK_FIXED = 2**18


def _roundtrip(codec, field):
    codec.decompress(codec.compress(field))


def _traced_span_cost(iterations=100_000):
    """Seconds per traced span while memory profiling is off."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench.noop"):
            pass
    return (time.perf_counter() - t0) / iterations


def test_mem_off_overhead_below_five_percent(ctx, results_dir):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]), obs.profiling_memory(False):
        _roundtrip(codec, field)  # warm imports/caches before timing
        base = median_seconds(_roundtrip, codec, field, repeats=_REPEATS)
        span_cost = _traced_span_cost()
    per_roundtrip = _SPANS_PER_ROUNDTRIP * span_cost
    overhead = per_roundtrip / base

    # Informational A/B: the same roundtrip with tracemalloc attached.
    with obs.tracing(sinks=[agg]), obs.profiling_memory():
        _roundtrip(codec, field)
        mem_on = median_seconds(_roundtrip, codec, field,
                                repeats=_REPEATS)
    peak = agg.get("compressors.compress").mem_peak

    save_text(
        results_dir, "mem_overhead.txt",
        f"{_VARIANT} roundtrip on U {field.shape}: traced mem-off "
        f"{base * 1e3:.3f} ms; traced span (mem off) "
        f"{span_cost * 1e9:.0f} ns -> accounted overhead "
        f"{overhead * 100:.3f}% (budget 5%); REPRO_TRACE_MEM=1 A/B "
        f"{(mem_on / base - 1) * 100:+.1f}% (tracemalloc on), "
        f"compress peak {peak / 1e6:.2f} MB",
    )
    assert peak > 0, "mem-on pass recorded no tracemalloc peak"
    budget = _PEAK_PER_BYTE * field.nbytes + _PEAK_FIXED
    assert peak < budget, (
        f"{_VARIANT} compress peak {peak / 1e6:.2f} MB exceeds its "
        f"{budget / 1e6:.2f} MB scratch budget"
    )
    assert overhead < 0.05, (
        f"mem-off traced overhead {overhead * 100:.2f}% exceeds the "
        "5% budget"
    )
