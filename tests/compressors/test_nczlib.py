"""NetCDF-4-style lossless baseline."""

import numpy as np
import pytest

from repro.compressors import NetCDF4Zlib


class TestLossless:
    def test_bit_exact(self, climate_field):
        codec = NetCDF4Zlib()
        out = codec.decompress(codec.compress(climate_field))
        assert np.array_equal(out, climate_field)

    def test_bit_exact_on_noise(self, rng):
        data = rng.normal(0, 1, 10_000).astype(np.float32)
        codec = NetCDF4Zlib()
        assert np.array_equal(codec.decompress(codec.compress(data)), data)

    def test_special_values_survive(self, rng):
        data = rng.normal(0, 1, 100).astype(np.float32)
        data[::3] = 1e35
        codec = NetCDF4Zlib()
        assert np.array_equal(codec.decompress(codec.compress(data)), data)

    def test_float64(self, rng):
        data = rng.normal(0, 1, 1000)
        codec = NetCDF4Zlib()
        assert np.array_equal(codec.decompress(codec.compress(data)), data)

    def test_is_lossless(self):
        assert NetCDF4Zlib().is_lossless


class TestCompressionBehaviour:
    def test_climate_data_cr_below_one(self, climate_field):
        # Table 2: lossless CRs on CAM variables land around 0.58-0.75.
        out = NetCDF4Zlib().roundtrip(climate_field)
        assert 0.3 < out.cr < 1.0

    def test_noise_is_incompressible(self, rng):
        # The motivation for lossy compression: random mantissas barely
        # compress (CR close to 1).
        data = rng.random(50_000).astype(np.float32)
        out = NetCDF4Zlib().roundtrip(data)
        assert out.cr > 0.75

    def test_shuffle_helps_on_smooth_fields(self, climate_field):
        with_shuffle = NetCDF4Zlib(shuffle=True).roundtrip(climate_field).cr
        without = NetCDF4Zlib(shuffle=False).roundtrip(climate_field).cr
        assert with_shuffle < without

    def test_levels_roundtrip(self, climate_field_2d):
        for level in (1, 6, 9):
            codec = NetCDF4Zlib(level=level)
            out = codec.decompress(codec.compress(climate_field_2d))
            assert np.array_equal(out, climate_field_2d)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            NetCDF4Zlib(level=10)


class TestReconstructByCopy:
    """DEFLATE is lossless, so ``reconstruct`` copies instead of coding."""

    #: Each dtype's unsigned twin and quiet-NaN bit pattern.
    NAN_BITS = {np.float32: (np.uint32, 0x7FC00000),
                np.float64: (np.uint64, 0x7FF8000000000000)}

    def _awkward(self, dtype):
        """Values a coder could disturb: NaN payloads, -0.0, 1e35."""
        data = np.random.default_rng(5).normal(0, 1, (6, 50)).astype(dtype)
        uint, quiet = self.NAN_BITS[dtype]
        data[0, :4].view(uint)[:] = quiet + np.arange(1, 5, dtype=uint)
        data[1, :5] = -0.0
        data[2, ::3] = 1e35
        return data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_coder_and_round_trip_bytes(self, dtype, monkeypatch):
        codec = NetCDF4Zlib()
        data = self._awkward(dtype)
        assert np.isnan(data[0, :4]).all()
        want = codec.decompress(codec.compress(data))

        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct ran the lossless coder")

        monkeypatch.setattr("repro.compressors.nczlib.deflate", refuse)
        monkeypatch.setattr("repro.compressors.nczlib.inflate", refuse)
        out = codec.reconstruct(data)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes() == data.tobytes()
        assert not np.shares_memory(out, data)
