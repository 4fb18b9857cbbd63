"""The streaming round-trip pipeline: one loop, inline and on the pool."""

import numpy as np
import pytest

from repro import obs
from repro.check import sanitized
from repro.check.hooks import check_serial_replay
from repro.compressors import get_variant
from repro.stream import (
    StreamingError,
    iter_array_chunks,
    stream_roundtrip,
    synthetic_chunks,
)
from repro.stream.pipeline import StreamOutcome, _roundtrip_chunk

RTOL = 1e-9


def source(mb=2.0, chunk_mb=0.25, **kwargs):
    return synthetic_chunks(mb, chunk_mb=chunk_mb, **kwargs)


class TestSerial:
    def test_outcome_accounting_and_metrics(self):
        codec = get_variant("fpzip-24")
        out = stream_roundtrip(codec, source())
        assert out.variant == "fpzip-24"
        assert out.n_chunks == 8
        assert out.n_points * 8 == out.bytes_in
        assert out.bytes_in == pytest.approx(2 * 2**20, rel=0.01)
        assert 0.0 < out.cr == out.bytes_out / out.bytes_in < 1.0
        assert out.errors.pearson > 0.999
        assert out.characteristics.n_valid == out.n_points

    def test_lossless_codec_is_exact(self):
        out = stream_roundtrip(get_variant("LZMA"), source(mb=0.5))
        assert out.errors.rmse == 0.0
        assert out.errors.e_max == 0.0
        assert out.errors.pearson == 1.0

    def test_matches_batch_roundtrip_metrics(self):
        # Streaming the whole dataset in one chunk must equal streaming
        # it in many: same bytes, same folded metrics.
        codec = get_variant("fpzip-16")
        whole = np.concatenate(list(source(mb=0.5)))
        one = stream_roundtrip(codec, iter_array_chunks(whole, chunk_mb=64))
        many = stream_roundtrip(
            codec, iter_array_chunks(whole, chunk_mb=0.0625))
        assert one.n_chunks == 1 and many.n_chunks > 1
        assert many.bytes_in == one.bytes_in
        assert many.errors.rmse == pytest.approx(one.errors.rmse,
                                                 rel=RTOL)
        assert many.errors.e_max == one.errors.e_max
        assert many.characteristics.mean == pytest.approx(
            one.characteristics.mean, rel=RTOL)

    def test_emits_stream_span_and_counters(self):
        agg = obs.Aggregator()
        with obs.tracing(sinks=[agg]):
            stream_roundtrip(get_variant("LZMA"), source(mb=0.25))
        assert "stream.roundtrip" in agg.spans
        assert agg.counters.get("stream.chunks") == 1
        assert agg.counters.get("stream.bytes_in") == \
            pytest.approx(0.25 * 2**20, rel=0.02)


class TestParallel:
    def test_parallel_matches_serial(self):
        codec = get_variant("fpzip-24")
        serial = stream_roundtrip(codec, source())
        par = stream_roundtrip(codec, source(), workers=2)
        assert par.n_chunks == serial.n_chunks
        assert par.bytes_in == serial.bytes_in
        assert par.bytes_out == serial.bytes_out
        assert par.errors.rmse == pytest.approx(serial.errors.rmse,
                                                rel=RTOL)
        assert par.errors.e_max == serial.errors.e_max
        assert par.errors.pearson == pytest.approx(
            serial.errors.pearson, rel=RTOL)
        assert par.characteristics.std == pytest.approx(
            serial.characteristics.std, rel=RTOL)

    def test_fill_values_fold_identically(self):
        codec = get_variant("LZMA")
        kwargs = dict(mb=1.0, fill_fraction=0.01)
        serial = stream_roundtrip(codec, source(**kwargs))
        par = stream_roundtrip(codec, source(**kwargs), workers=2)
        assert par.characteristics.n_special == \
            serial.characteristics.n_special > 0
        assert par.errors.n_valid == serial.errors.n_valid


def serial_oracle(codec, chunks) -> StreamOutcome:
    """The pipeline's former serial loop: one total fold, updated per chunk."""
    errors = StreamingError()
    n_chunks = n_points = bytes_in = bytes_out = 0
    for chunk in chunks:
        chunk = np.asarray(chunk)
        blob = codec.compress(chunk)
        errors.update(chunk, codec.decompress(blob).reshape(chunk.shape))
        n_chunks += 1
        n_points += int(chunk.size)
        bytes_in += int(chunk.nbytes)
        bytes_out += len(blob)
    return StreamOutcome(
        variant=codec.variant, n_chunks=n_chunks, n_points=n_points,
        bytes_in=bytes_in, bytes_out=bytes_out,
        characteristics=errors.original.finalize(),
        errors=errors.finalize(),
    )


class TestOneLoop:
    """Every width folds per-chunk partials; the outcome is the old loop's."""

    @pytest.mark.parametrize("variant", ["fpzip-24", "NetCDF-4"])
    @pytest.mark.parametrize("fill_fraction", [0.0, 0.01])
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_outcome_equals_the_serial_loop(self, variant, fill_fraction,
                                            workers):
        codec = get_variant(variant)
        kwargs = dict(mb=1.0, fill_fraction=fill_fraction)
        expected = serial_oracle(codec, source(**kwargs))
        assert stream_roundtrip(codec, source(**kwargs),
                                workers=workers) == expected

    def test_inline_run_maps_one_chunk_at_a_time(self):
        agg = obs.Aggregator()
        with sanitized(False), obs.tracing(sinks=[agg]):
            out = stream_roundtrip(get_variant("LZMA"), source(mb=0.5))
        assert out.n_chunks == 2
        assert agg.get("parallel.map").count == 2
        assert agg.get("parallel.task").count == 2

    @pytest.mark.parametrize("workers", [0, 2])
    def test_fold_span_times_the_tasks_update(self, workers):
        buf = obs.BufferSink()
        # No sanitizer: its replay would fold each inline chunk twice.
        with sanitized(False), obs.tracing(sinks=[buf]):
            out = stream_roundtrip(get_variant("fpzip-24"),
                                   source(mb=0.5), workers=workers)
        folds = [e for e in buf.events
                 if isinstance(e, obs.SpanRecord) and e.name == "stream.fold"]
        assert len(folds) == out.n_chunks
        assert all(r.parent == "parallel.task" for r in folds)

    def test_sanitized_inline_run_replays_cleanly(self):
        codec = get_variant("SZ-rel-0.001")
        kwargs = dict(mb=0.5, fill_fraction=0.01)
        with sanitized():
            out = stream_roundtrip(codec, source(**kwargs), workers=0)
        assert out == serial_oracle(codec, source(**kwargs))

    def test_chunk_task_is_deterministic_under_replay(self):
        codec = get_variant("fpzip-24")
        chunk = next(iter(source(mb=0.25, fill_fraction=0.01)))
        item = (codec, chunk)
        check_serial_replay(_roundtrip_chunk, item, _roundtrip_chunk(item))
