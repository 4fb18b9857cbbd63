"""ISABELA-style sort-and-spline codec."""

import numpy as np
import pytest

from repro.compressors import Isabela
from repro.compressors.isabela import _stable_order


class TestErrorBound:
    def test_per_point_relative_error(self, climate_field):
        # The headline guarantee: per-point relative error <= tolerance
        # (relative to the reconstructed spline value, with a small
        # absolute floor; allow 2x slack for the floor interaction).
        codec = Isabela(rel_error_pct=1.0)
        out = codec.decompress(codec.compress(climate_field)).astype(
            np.float64
        )
        x = climate_field.astype(np.float64)
        denom = np.maximum(np.abs(x), 1e-5 * np.abs(x).max())
        rel = np.abs(x - out) / denom
        assert rel.max() <= 0.021

    def test_tighter_tolerance_smaller_error(self, climate_field):
        errs = []
        for pct in (1.0, 0.5, 0.1):
            codec = Isabela(rel_error_pct=pct)
            out = codec.decompress(codec.compress(climate_field))
            errs.append(
                np.abs(climate_field - out).max()
            )
        assert errs[0] >= errs[1] >= errs[2]

    def test_noisy_data_still_bounded(self, rng):
        # ISABELA's selling point: sorted noisy data becomes smooth.
        data = rng.lognormal(0, 2, 5000).astype(np.float32)
        codec = Isabela(rel_error_pct=0.5)
        out = codec.decompress(codec.compress(data)).astype(np.float64)
        rel = np.abs(data - out) / np.abs(data)
        assert np.quantile(rel, 0.99) < 0.02


class TestStorageStructure:
    def test_cr_saturates_with_tolerance(self, climate_field):
        # The sort index dominates single-precision storage, so the three
        # variants land within a narrow CR band (paper Section 5.2).
        crs = [
            Isabela(rel_error_pct=p).roundtrip(climate_field).cr
            for p in (1.0, 0.5, 0.1)
        ]
        assert max(crs) - min(crs) < 0.25
        assert all(0.3 < cr < 0.75 for cr in crs)

    def test_index_floor(self, rng):
        # Even on trivially smooth data the permutation index keeps the
        # CR above log2(window)/32 bits per value.
        data = np.linspace(0, 1, 4096).astype(np.float32)
        out = Isabela(rel_error_pct=1.0).roundtrip(data)
        assert out.cr > 10 / 32 * 0.9

    def test_tail_window_handled(self, rng):
        # Length not a multiple of the window exercises the tail path.
        data = rng.normal(0, 1, 1024 + 300).astype(np.float32)
        codec = Isabela(rel_error_pct=0.5)
        out = codec.decompress(codec.compress(data))
        assert out.shape == data.shape

    def test_tiny_tail_stored_raw(self, rng):
        data = rng.normal(0, 1, 1024 + 5).astype(np.float32)
        codec = Isabela(rel_error_pct=0.5)
        out = codec.decompress(codec.compress(data))
        # Raw float32 tail is exact.
        assert np.array_equal(out[-5:], data[-5:])

    def test_short_input(self, rng):
        data = rng.normal(0, 1, 17).astype(np.float32)
        codec = Isabela(rel_error_pct=1.0, window=1024)
        out = codec.decompress(codec.compress(data))
        assert out.shape == data.shape

    def test_double_precision_compresses_better(self, rng):
        # Paper Section 5.2: "we would expect ISABELA to obtain better
        # compression ratios on double-precision data" — the sort index is
        # a smaller fraction of 8-byte values.
        data = np.cumsum(rng.normal(0, 1, 20_000)).astype(np.float32)
        codec = Isabela(rel_error_pct=1.0)
        cr32 = codec.roundtrip(data).cr
        cr64 = codec.roundtrip(data.astype(np.float64)).cr
        assert cr64 < cr32

    def test_escape_list_enforces_bound_on_step_data(self, rng):
        # A near-step distribution makes the spline overshoot; the escape
        # list must keep the bound anyway.
        data = np.where(rng.random(2048) < 0.01, 200.0, 1.0).astype(
            np.float32
        )
        data *= 1.0 + 0.001 * rng.standard_normal(2048).astype(np.float32)
        codec = Isabela(rel_error_pct=1.0, window=256, n_coeffs=8)
        out = codec.decompress(codec.compress(data)).astype(np.float64)
        rel = np.abs(data - out) / np.abs(data)
        assert rel.max() <= 0.011

    def test_decode_window_applies_escapes(self, rng):
        data = np.where(rng.random(1024) < 0.02, 500.0, 1.0).astype(
            np.float32
        )
        data *= 1.0 + 0.001 * rng.standard_normal(1024).astype(np.float32)
        codec = Isabela(rel_error_pct=0.5, window=256, n_coeffs=8)
        blob = codec.compress(data)
        full = codec.decompress(blob).reshape(-1)
        for i in range(4):
            w = codec.decode_window(blob, i)
            assert np.array_equal(w, full[i * 256:(i + 1) * 256])


class TestRandomAccess:
    def test_decode_window_matches_full_decode(self, climate_field):
        codec = Isabela(rel_error_pct=0.5, window=256)
        blob = codec.compress(climate_field)
        full = codec.decompress(blob).reshape(-1)
        w = codec.decode_window(blob, 2)
        assert np.array_equal(w, full[2 * 256: 3 * 256])

    def test_decode_window_out_of_range(self, climate_field):
        codec = Isabela(rel_error_pct=0.5, window=256)
        blob = codec.compress(climate_field)
        with pytest.raises(IndexError):
            codec.decode_window(blob, 10_000)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Isabela(rel_error_pct=0)
        with pytest.raises(ValueError):
            Isabela(window=1)
        with pytest.raises(ValueError):
            Isabela(n_coeffs=2)
        with pytest.raises(ValueError):
            Isabela(window=16, n_coeffs=30)

    def test_variant_labels(self):
        assert Isabela(rel_error_pct=1.0).variant == "ISA-1.0"
        assert Isabela(rel_error_pct=0.5).variant == "ISA-0.5"
        assert Isabela(rel_error_pct=0.1).variant == "ISA-0.1"


class TestProperties:
    def test_table1_row(self):
        p = Isabela.properties()
        assert not p.lossless_mode  # ISABELA cannot run losslessly
        assert p.freely_available and p.bits_32_and_64
        assert not p.special_values


def _windows(dtype):
    """Awkward sort windows: ``{label: (rows, width) array}``."""
    rng = np.random.default_rng(29)
    tiny = np.finfo(dtype).smallest_subnormal
    signed_zeros = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0], dtype=dtype),
                              (8, 1024))
    return {
        "random": rng.normal(0, 1, (8, 1024)).astype(dtype),
        "tied": rng.integers(-3, 4, (8, 1024)).astype(dtype),
        "constant": np.full((4, 1024), 7.5, dtype=dtype),
        "signed-zeros": signed_zeros,
        "subnormal": (rng.integers(-5, 6, (8, 1024)) * tiny).astype(dtype),
        "climate": (250.0 + rng.normal(0, 3, (8, 1024))).astype(dtype),
    }


class TestStableOrder:
    """The sort is ``np.argsort(kind="stable")``, only faster."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windows_match_stable_argsort(self, dtype):
        for label, block in _windows(dtype).items():
            np.testing.assert_array_equal(
                _stable_order(block),
                np.argsort(block, axis=-1, kind="stable"), err_msg=label)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tails_match_stable_argsort(self, dtype):
        rng = np.random.default_rng(7)
        for tail in (16, 17, 255, 256, 257, 600, 1023):
            for values in (rng.normal(0, 1, tail).astype(dtype),
                           rng.integers(0, 5, tail).astype(dtype)):
                np.testing.assert_array_equal(
                    _stable_order(values),
                    np.argsort(values, kind="stable"), err_msg=str(tail))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blob_bytes_unchanged(self, dtype, monkeypatch):
        # Several full windows plus a spline tail, with ties and signed
        # zeros: the blob is the one the stable argsort writes.
        rng = np.random.default_rng(3)
        data = np.rint(rng.normal(0, 20, 3 * 1024 + 300)).astype(dtype)
        data[::7] = -0.0
        codec = Isabela(rel_error_pct=0.5)
        blob = codec.compress(data)
        monkeypatch.setattr(
            "repro.compressors.isabela._stable_order",
            lambda v: np.argsort(v, axis=-1, kind="stable"))
        assert codec.compress(data) == blob
