"""Noise-plane split coding for quantizer residuals.

Prediction residuals from an error-bounded quantizer are noise-dominated
below some bit plane: the low ``k`` bits of each zigzagged residual are
nearly uniform (incompressible), while the remaining high bits are
strongly skewed towards zero.  DEFLATE models neither part well when
they are interleaved in one stream — its Huffman tables pay for the
mixture, which costs 0.3-1.0 bits/value on the short fields this repo
compresses.  Splitting the stream stores the low planes raw (bit-packed,
exactly ``n * k / 8`` bytes — uniform bits cannot be compressed anyway)
and DEFLATEs only the compressible high planes.

The split point ``k`` is the caller's choice; :func:`candidate_splits`
suggests the neighbourhood of the rate-optimal value for geometric-ish
residual distributions (``k ~ log2(mean)``), so an encoder can trial a
handful of candidates instead of every plane.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoding.bitio import pack_fixed, unpack_fixed
from repro.encoding.deflate import deflate, inflate
from repro.encoding.residuals import narrow

__all__ = ["split_encode", "split_decode", "candidate_splits"]

#: Low planes are capped well below the 64-bit residual width; zigzagged
#: lattice residuals never need more (the quantizer caps codes at 2**40).
MAX_SPLIT = 48

_HEADER = struct.Struct("<BB")  # split point k, high-part byte width


def split_encode(residuals: np.ndarray, k: int, level: int = 6) -> bytes:
    """Encode non-negative residuals with a raw/DEFLATE plane split.

    The low ``k`` bits of each value are stored verbatim; the high bits
    are narrowed to the smallest unsigned dtype and shuffle+DEFLATEd.
    """
    if not 0 <= k <= MAX_SPLIT:
        raise ValueError(f"split point must be 0..{MAX_SPLIT}, got {k}")
    residuals = np.ascontiguousarray(residuals, dtype=np.uint64)
    low = pack_fixed(residuals & np.uint64((1 << k) - 1), k)
    width, narrowed = narrow(residuals >> np.uint64(k))
    high = deflate(narrowed.tobytes(), level, itemsize=width)
    return _HEADER.pack(k, width) + low + high


def split_decode(payload: bytes, count: int) -> np.ndarray:
    """Decode :func:`split_encode` output back to uint64 residuals."""
    if len(payload) < _HEADER.size:
        raise ValueError("split payload shorter than its header")
    k, width = _HEADER.unpack_from(payload)
    if k > MAX_SPLIT:
        raise ValueError(f"bad split point {k}")
    if width not in (1, 2, 4, 8):
        raise ValueError(f"bad split high width {width}")
    n_low = (count * k + 7) // 8
    body = payload[_HEADER.size:]
    if len(body) < n_low:
        raise ValueError("split payload truncated")
    low = unpack_fixed(body[:n_low], k, count)
    high = np.frombuffer(
        inflate(body[n_low:], itemsize=width), dtype=f"<u{width}"
    ).astype(np.uint64)
    if high.size != count:
        raise ValueError(
            f"decoded {high.size} high parts, expected {count}"
        )
    return (high << np.uint64(k)) | low


def candidate_splits(residuals: np.ndarray) -> list[int]:
    """Split points worth trialling for geometric-ish residuals.

    For a distribution with mean ``mu`` the noise floor sits near
    ``log2(mu)`` planes, so the rate-optimal split is in that
    neighbourhood; returns it plus both neighbours (deduplicated,
    clamped to ``1..MAX_SPLIT``).  An empty or all-zero stream has no
    useful split.
    """
    residuals = np.asarray(residuals, dtype=np.uint64)
    if not residuals.size:
        return []
    mean = float(residuals.mean())
    if mean < 1.0:
        return [1]
    k0 = max(int(mean).bit_length() - 1, 1)
    return sorted({
        k for k in (k0 - 1, k0, k0 + 1) if 1 <= k <= MAX_SPLIT
    })
