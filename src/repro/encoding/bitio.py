"""Vectorized bit packing primitives.

Two layouts are provided:

- **fixed-width**: every value occupies exactly ``width`` bits, MSB first.
- **unary**: value ``q`` is written as ``q`` one-bits followed by a
  terminating zero-bit.  Because every zero in a pure unary stream is a
  terminator, decoding is a single :func:`numpy.flatnonzero` + ``diff`` —
  this is what makes the split-stream Rice codec in
  :mod:`repro.encoding.rice` fully vectorizable.

All functions operate on ``uint64`` value arrays and ``bytes`` payloads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_fixed", "unpack_fixed", "pack_unary", "unpack_unary"]

_MAX_WIDTH = 64


def _byte_width(width: int) -> int:
    """Bytes holding the low ``width`` bits of a value."""
    return -(-width // 8)


def pack_fixed(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` into a dense MSB-first bitstream, ``width`` bits each.

    ``width == 0`` is allowed and produces an empty payload (all values must
    then be zero, which the caller guarantees by construction).

    Works on each value's low ``ceil(width / 8)`` big-endian bytes, so the
    temporaries cost at most one byte per output bit; width 1 packs the
    values directly, at one byte each, and widths 2-7 unpack only the
    top ``width`` bits of each value's low byte.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if not 0 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 0..{_MAX_WIDTH}, got {width}")
    if width == 0:
        if values.size and values.max() != 0:
            raise ValueError("width=0 requires all-zero values")
        return b""
    if width < _MAX_WIDTH and values.size and int(values.max()) >> width:
        raise ValueError(f"value does not fit in {width} bits")
    if width == 1:
        # One bit a value: one byte each, then packed.
        return np.packbits(values.astype(np.uint8)).tobytes()
    if width < 8:
        # Shift each value's bits to the top of its byte, so the first
        # ``width`` big-endian bits of the byte are the value, MSB first.
        low = values.astype(np.uint8)
        low <<= 8 - width
        return np.packbits(
            np.unpackbits(low[:, None], axis=1, count=width)).tobytes()
    nbytes = _byte_width(width)
    low = values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
    if width == 8 * nbytes:
        return low.tobytes()
    bits = np.unpackbits(np.ascontiguousarray(low)).reshape(-1, 8 * nbytes)
    return np.packbits(bits[:, 8 * nbytes - width:]).tobytes()


def unpack_fixed(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed`; returns ``count`` uint64 values."""
    if not 0 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 0..{_MAX_WIDTH}, got {width}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    nbits = width * count
    if len(data) * 8 < nbits:
        raise ValueError(
            f"payload has {len(data) * 8} bits, need {nbits} "
            f"for {count} values of width {width}"
        )
    nbytes = _byte_width(width)
    raw = np.frombuffer(data, dtype=np.uint8)
    if width == 8 * nbytes:
        low = raw[:count * nbytes].reshape(count, nbytes)
    else:
        bits = np.zeros((count, 8 * nbytes), dtype=np.uint8)
        bits[:, 8 * nbytes - width:] = np.unpackbits(
            raw, count=nbits
        ).reshape(count, width)
        low = np.packbits(bits).reshape(count, nbytes)
    be = np.zeros((count, 8), dtype=np.uint8)
    be[:, 8 - nbytes:] = low
    return be.view(">u8").ravel().astype(np.uint64)


def pack_unary(values: np.ndarray) -> bytes:
    """Pack non-negative ``values`` as unary codes (q ones, then a zero)."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    total = int(values.sum()) + values.size
    bits = np.ones(total, dtype=np.uint8)
    # Terminator of code i sits right after its q ones.
    ends = np.cumsum(values.astype(np.int64) + 1) - 1
    bits[ends] = 0
    return np.packbits(bits).tobytes()


def unpack_unary(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_unary`; returns ``count`` uint64 quotients."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    zeros = np.flatnonzero(bits == 0)
    if zeros.size < count:
        raise ValueError(
            f"unary stream holds {zeros.size} codes, expected {count}"
        )
    ends = zeros[:count]
    starts = np.concatenate([[np.int64(-1)], ends[:-1]])
    return (ends - starts - 1).astype(np.uint64)
