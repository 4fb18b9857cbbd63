"""The streaming round-trip pipeline: serial and parallel paths."""

import numpy as np
import pytest

from repro import obs
from repro.compressors import get_variant
from repro.stream import (
    iter_array_chunks,
    stream_roundtrip,
    synthetic_chunks,
)

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
