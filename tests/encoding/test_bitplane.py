"""Noise-plane split coding."""

import tracemalloc

import numpy as np
import pytest

from repro.encoding.bitio import pack_fixed
from repro.encoding.bitplane import (
    _HEADER,
    MAX_SPLIT,
    candidate_splits,
    split_decode,
    split_encode,
)


def roundtrip(values, k):
    values = np.asarray(values, dtype=np.uint64)
    out = split_decode(split_encode(values, k), values.size)
    np.testing.assert_array_equal(out, values)
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("k", [0, 1, 3, 7, 8, 13, 31])
    def test_random_residuals(self, rng, k):
        values = rng.integers(0, 1 << 20, 4096).astype(np.uint64)
        roundtrip(values, k)

    def test_empty(self):
        roundtrip(np.empty(0, dtype=np.uint64), 4)

    def test_single_value(self):
        roundtrip([12345], 5)

    def test_all_zero(self):
        roundtrip(np.zeros(100, dtype=np.uint64), 3)

    def test_values_wider_than_the_split(self, rng):
        values = rng.integers(0, 1 << 50, 512).astype(np.uint64)
        roundtrip(values, 12)

    def test_count_not_a_multiple_of_eight(self, rng):
        # The packed low stream ends mid-byte; padding must not leak.
        values = rng.integers(0, 1 << 10, 37).astype(np.uint64)
        roundtrip(values, 3)

    def test_geometric_residuals_beat_flat_storage(self, rng):
        # The target distribution: skewed high bits, noisy low bits.
        values = rng.geometric(1 / 200.0, 8192).astype(np.uint64)
        blob = split_encode(values, 4)
        assert len(blob) < values.size * 2


def oracle_pack_low(residuals, k):
    """The low ``k`` planes packed MSB-first through a ``(n, k)`` bit
    matrix: the split coder's original formulation."""
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    bits = (residuals[:, None] >> shifts[None, :]) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8).reshape(-1)).tobytes()


class TestLowPlanes:
    @pytest.mark.parametrize("k", range(1, MAX_SPLIT + 1))
    def test_bytes_match_bit_matrix_oracle(self, rng, k):
        # 1001 values: the packed low stream ends mid-byte for odd k.
        values = rng.integers(0, 1 << 62, 1001, dtype=np.uint64)
        blob = split_encode(values, k)
        n_low = (values.size * k + 7) // 8
        low = blob[_HEADER.size:_HEADER.size + n_low]
        assert low == oracle_pack_low(values, k)
        np.testing.assert_array_equal(split_decode(blob, values.size),
                                      values)

    @pytest.mark.parametrize("k", [8, 16, 24, 40])
    def test_peak_well_under_the_bit_matrix(self, rng, k):
        n = 1 << 18
        values = rng.integers(0, 1 << (k + 4), n, dtype=np.uint64)
        blob = split_encode(values, k)
        peaks = []
        for run in (lambda: split_encode(values, k),
                    lambda: split_decode(blob, n)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bit_matrix = 8 * n * k
        assert max(peaks) < bit_matrix / 2, (peaks, bit_matrix)


    def test_width_one_encode_peak(self, rng):
        # Width 1 packs its bytes directly: no big-endian copy and no
        # (n, 8) unpacked matrix (those peaked at 25 B a value).
        n = 1 << 18
        values = rng.integers(0, 1 << 5, n, dtype=np.uint64)
        split_encode(values, 1)
        tracemalloc.start()
        try:
            split_encode(values, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n, peak / n

    def test_sub_byte_pack_peak(self, rng):
        # Widths 2-7 unpack only the value bits of each low byte: no
        # big-endian copy and no (n, 8) unpacked matrix (those peaked
        # at 18 B a value at width 2).
        n = 1 << 18
        values = rng.integers(0, 1 << 2, n, dtype=np.uint64)
        pack_fixed(values, 2)
        tracemalloc.start()
        try:
            pack_fixed(values, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n, peak / n


class TestValidation:
    def test_split_point_range(self):
        values = np.arange(8, dtype=np.uint64)
        with pytest.raises(ValueError, match="split point"):
            split_encode(values, -1)
        with pytest.raises(ValueError, match="split point"):
            split_encode(values, MAX_SPLIT + 1)

    def test_truncated_payload(self):
        values = np.arange(100, dtype=np.uint64)
        blob = split_encode(values, 8)
        with pytest.raises(ValueError):
            split_decode(blob[:20], 100)

    def test_short_header(self):
        with pytest.raises(ValueError, match="header"):
            split_decode(b"\x01", 4)

    def test_count_mismatch(self):
        blob = split_encode(np.arange(10, dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            split_decode(blob, 11)


class TestCandidateSplits:
    def test_empty_stream(self):
        assert candidate_splits(np.empty(0, dtype=np.uint64)) == []

    def test_all_zero_stream(self):
        assert candidate_splits(np.zeros(16, dtype=np.uint64)) == [1]

    def test_neighbourhood_of_log2_mean(self):
        values = np.full(1000, 64, dtype=np.uint64)  # mean 64 -> k0 = 6
        assert candidate_splits(values) == [5, 6, 7]

    def test_clamped_to_valid_range(self):
        values = np.ones(10, dtype=np.uint64)
        ks = candidate_splits(values)
        assert ks and all(1 <= k <= MAX_SPLIT for k in ks)
