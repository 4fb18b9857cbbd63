"""Fixed-width and unary bit packing."""

import numpy as np
import pytest

from repro.encoding.bitio import (
    pack_fixed,
    pack_unary,
    unpack_fixed,
    unpack_unary,
)


class TestPackFixed:
    def test_roundtrip_small_width(self):
        values = np.array([0, 1, 2, 3, 7, 5], dtype=np.uint64)
        data = pack_fixed(values, 3)
        assert np.array_equal(unpack_fixed(data, 3, 6), values)

    def test_roundtrip_full_width(self):
        values = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        data = pack_fixed(values, 64)
        assert np.array_equal(unpack_fixed(data, 64, 4), values)

    def test_packed_size_is_minimal(self):
        values = np.arange(16, dtype=np.uint64)
        data = pack_fixed(values, 4)
        assert len(data) == 8  # 16 values * 4 bits = 64 bits

    def test_width_zero_roundtrip(self):
        values = np.zeros(10, dtype=np.uint64)
        data = pack_fixed(values, 0)
        assert data == b""
        assert np.array_equal(unpack_fixed(b"", 0, 10), values)

    def test_width_zero_rejects_nonzero_values(self):
        with pytest.raises(ValueError, match="width=0"):
            pack_fixed(np.array([1], dtype=np.uint64), 0)

    def test_value_too_large_for_width(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_fixed(np.array([8], dtype=np.uint64), 3)

    def test_invalid_width_rejected(self):
        values = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError):
            pack_fixed(values, 65)
        with pytest.raises(ValueError):
            pack_fixed(values, -1)

    def test_unpack_truncated_payload_rejected(self):
        data = pack_fixed(np.arange(8, dtype=np.uint64), 5)
        with pytest.raises(ValueError, match="bits"):
            unpack_fixed(data[:-1], 5, 8)

    def test_unpack_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            unpack_fixed(b"", 5, -1)

    def test_empty_values(self):
        data = pack_fixed(np.array([], dtype=np.uint64), 7)
        assert np.array_equal(
            unpack_fixed(data, 7, 0), np.array([], dtype=np.uint64)
        )

    def test_msb_first_layout(self):
        # Value 1 in width 8 -> byte 0x01.
        assert pack_fixed(np.array([1], dtype=np.uint64), 8) == b"\x01"
        # Value 0x80 -> first bit set.
        assert pack_fixed(np.array([0x80], dtype=np.uint64), 8) == b"\x80"

    @pytest.mark.parametrize("width", range(1, 13))
    def test_layout_matches_bit_string_reference(self, width):
        rng = np.random.default_rng(width)
        values = rng.integers(0, 1 << width, 21, dtype=np.uint64)
        bits = "".join(format(int(v), f"0{width}b") for v in values)
        bits += "0" * (-len(bits) % 8)
        expected = int(bits, 2).to_bytes(len(bits) // 8, "big")
        assert pack_fixed(values, width) == expected
        assert np.array_equal(unpack_fixed(expected, width, 21), values)


class TestPackUnary:
    def test_roundtrip(self):
        values = np.array([0, 1, 5, 0, 2], dtype=np.uint64)
        data = pack_unary(values)
        assert np.array_equal(unpack_unary(data, 5), values)

    def test_all_zeros(self):
        values = np.zeros(100, dtype=np.uint64)
        data = pack_unary(values)
        assert len(data) == 13  # 100 terminator bits
        assert np.array_equal(unpack_unary(data, 100), values)

    def test_single_large_value(self):
        values = np.array([1000], dtype=np.uint64)
        data = pack_unary(values)
        assert np.array_equal(unpack_unary(data, 1), values)

    def test_empty(self):
        assert pack_unary(np.array([], dtype=np.uint64)) == b""
        assert unpack_unary(b"", 0).size == 0

    def test_too_few_codes_rejected(self):
        data = pack_unary(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValueError, match="expected"):
            unpack_unary(data, 50)

    def test_bit_layout(self):
        # q=2 -> "110", then q=0 -> "0": bits 1100 0000 -> 0xC0.
        data = pack_unary(np.array([2, 0], dtype=np.uint64))
        assert data == b"\xc0"


class TestRandomizedRoundtrips:
    @pytest.mark.parametrize("width", [1, 7, 13, 32, 53])
    def test_fixed_widths(self, rng, width):
        values = rng.integers(0, 2**width, 1000, dtype=np.uint64) \
            if width < 64 else rng.integers(0, 2**63, 1000, dtype=np.uint64)
        data = pack_fixed(values, width)
        assert np.array_equal(unpack_fixed(data, width, 1000), values)

    def test_unary_random(self, rng):
        values = rng.geometric(0.3, 500).astype(np.uint64)
        data = pack_unary(values)
        assert np.array_equal(unpack_unary(data, 500), values)


def _pack_fixed_by_shifts(values, width):
    """The shift formulation: one (N, width) bit matrix, MSB first."""
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1))
    return np.packbits(bits.astype(np.uint8).ravel()).tobytes()


def _unpack_fixed_by_shifts(data, width, count):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=width * count)
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)


class TestShiftOracle:
    @pytest.mark.parametrize("width", range(1, 65))
    def test_bytes_match_shift_formulation(self, rng, width):
        for count in (0, 1, 7, 8, 9, 257):
            values = rng.integers(0, 2**63, count, dtype=np.uint64)
            values = (values << np.uint64(1)) | rng.integers(
                0, 2, count, dtype=np.uint64)
            if width < 64:
                values &= np.uint64((1 << width) - 1)
            data = pack_fixed(values, width)
            assert data == _pack_fixed_by_shifts(values, width)
            # Trailing bytes past the last value are ignored.
            out = unpack_fixed(data + b"\xff", width, count)
            assert out.dtype == np.uint64
            assert np.array_equal(out, values)
            assert np.array_equal(
                out, _unpack_fixed_by_shifts(data, width, count))

    @pytest.mark.parametrize("width", [1, 8, 9, 63, 64])
    def test_extreme_values(self, width):
        top = np.uint64(2**width - 1)
        values = np.array([0, top, 1, top - np.uint64(1)], dtype=np.uint64)
        data = pack_fixed(values, width)
        assert data == _pack_fixed_by_shifts(values, width)
        assert np.array_equal(unpack_fixed(data, width, 4), values)
