"""GRIB2 + JPEG2000-style codec."""

import numpy as np
import pytest

from repro.compressors import Grib2Jpeg2000
from repro.config import FILL_VALUE


class TestQuantizationQuality:
    def test_absolute_error_bounded(self, climate_field):
        codec = Grib2Jpeg2000(decimal_scale=3, max_bits=24)
        out = codec.decompress(codec.compress(climate_field)).astype(
            np.float64
        )
        x = climate_field.astype(np.float64)
        field_span = x.max() - x.min()
        # Binary scale rises to fit 24 bits; the bound follows from it.
        step = max(10.0**-3, field_span / 2**24)
        assert np.abs(x - out).max() <= step * 1.01

    def test_auto_scale_reasonable(self, climate_field):
        codec = Grib2Jpeg2000(decimal_scale="auto")
        out = codec.decompress(codec.compress(climate_field))
        x = climate_field.astype(np.float64)
        span = x.max() - x.min()
        assert np.abs(x - out).max() / span < 1e-4

    def test_always_lossy(self, rng):
        # Table 1: encoding into GRIB2 is lossy, there is no lossless mode.
        data = rng.normal(0, 1, 4096).astype(np.float32)
        codec = Grib2Jpeg2000(decimal_scale="auto")
        out = codec.decompress(codec.compress(data))
        assert not np.array_equal(out, data)
        assert not codec.is_lossless


class TestSpecialValues:
    def test_bitmap_restores_fill_exactly(self, rng):
        # GRIB2 is the only method with special-value support (Table 1).
        data = rng.normal(10, 2, 1000).astype(np.float32)
        data[::13] = FILL_VALUE
        codec = Grib2Jpeg2000(decimal_scale="auto")
        out = codec.decompress(codec.compress(data))
        assert (out[::13] == np.float32(FILL_VALUE)).all()

    def test_valid_data_unaffected_by_fill(self, rng):
        data = rng.normal(10, 2, 1000).astype(np.float32)
        with_fill = data.copy()
        with_fill[::13] = FILL_VALUE
        codec = Grib2Jpeg2000(decimal_scale=4)
        out = codec.decompress(codec.compress(with_fill))
        valid = with_fill != np.float32(FILL_VALUE)
        err = np.abs(out[valid].astype(np.float64) - data[valid])
        assert err.max() < 1e-3

    def test_all_fill(self):
        data = np.full(256, FILL_VALUE, dtype=np.float32)
        codec = Grib2Jpeg2000()
        out = codec.decompress(codec.compress(data))
        assert (out == np.float32(FILL_VALUE)).all()

    def test_mixed_specials_restored_exactly(self, rng):
        # A bitmap flags position only; distinct specials (fill beside
        # +-inf) must each come back as stored, not as one exemplar.
        data = rng.normal(10, 2, 1000).astype(np.float32)
        data[::13] = FILL_VALUE
        data[5], data[6] = np.inf, -np.inf
        codec = Grib2Jpeg2000(decimal_scale="auto")
        out = codec.decompress(codec.compress(data))
        special = np.abs(data) >= np.float32(FILL_VALUE)
        np.testing.assert_array_equal(out[special], data[special])
        assert np.isfinite(out[~special]).all()


class TestLargeRangeWeakness:
    def test_small_values_destroyed_on_wide_range_fields(self, rng):
        # The CCN3 story: one decimal scale cannot span 8 decades, so the
        # small values lose all relative accuracy.
        data = np.concatenate(
            [rng.lognormal(-10, 1, 500), rng.lognormal(7, 1, 500)]
        ).astype(np.float32)
        codec = Grib2Jpeg2000(decimal_scale="auto")
        out = codec.decompress(codec.compress(data)).astype(np.float64)
        small = data.astype(np.float64)[:500]
        rel = np.abs(small - out[:500]) / np.abs(small)
        assert rel.max() > 0.5  # catastrophic relative error on the tail


class TestValidation:
    def test_bad_scale_string(self):
        with pytest.raises(ValueError):
            Grib2Jpeg2000(decimal_scale="automatic")

    def test_compression_beats_raw(self, climate_field):
        out = Grib2Jpeg2000(decimal_scale="auto").roundtrip(climate_field)
        assert out.cr < 0.8


class TestProperties:
    def test_table1_row(self):
        p = Grib2Jpeg2000.properties()
        assert not p.lossless_mode
        assert p.special_values and p.freely_available
        assert not p.bits_32_and_64
