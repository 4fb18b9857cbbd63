"""REPRO_SANITIZE overhead: the runtime guards must stay under 10%.

The sanitizer's per-call cost is a container-header parse plus one
``isfinite``/``packbits`` pass over the array, which is small against any
real codec's encode/decode work.  Measured here on a 3-D CAM-like variable
(``U`` at bench scale) through a representative mid-speed codec, both as
pytest-benchmark entries (for the saved report) and as a direct
median-of-repeats assertion.
"""

from conftest import median_seconds, save_text

from repro.check import sanitized
from repro.compressors import get_variant

_VARIANT = "fpzip-24"
_REPEATS = 7


def _roundtrip(codec, field):
    codec.decompress(codec.compress(field))


def test_roundtrip_baseline(benchmark, ctx):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    with sanitized(False):
        benchmark(_roundtrip, codec, field)


def test_roundtrip_sanitized(benchmark, ctx):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    with sanitized():
        benchmark(_roundtrip, codec, field)


def test_sanitizer_overhead_below_ten_percent(ctx, results_dir):
    codec = get_variant(_VARIANT)
    field = ctx.member_field("U")
    # Warm both paths (imports, caches, allocator) before timing.
    with sanitized(False):
        _roundtrip(codec, field)
        base = median_seconds(_roundtrip, codec, field, repeats=_REPEATS)
    with sanitized():
        _roundtrip(codec, field)
        guarded = median_seconds(_roundtrip, codec, field,
                                 repeats=_REPEATS)
    overhead = guarded / base - 1.0
    save_text(
        results_dir, "sanitizer_overhead.txt",
        f"{_VARIANT} roundtrip on U {field.shape}: "
        f"baseline {base * 1e3:.3f} ms, sanitized {guarded * 1e3:.3f} ms, "
        f"overhead {overhead * 100:+.2f}%",
    )
    assert overhead < 0.10, (
        f"sanitizer overhead {overhead * 100:.1f}% exceeds the 10% budget"
    )
