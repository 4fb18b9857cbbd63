"""Keepbits codec: mantissa bit-rounding followed by shuffle+DEFLATE.

The xbitinfo/Klower-et-al. approach: most climate fields carry real
information in only the first several mantissa bits; the rest is noise
that defeats lossless back ends.  Rounding each float's mantissa to
``keepbits`` significant bits (round-half-to-even, so the transform is
unbiased) zeroes the noisy tail, after which byte-shuffle + DEFLATE
compresses the regularized stream far below the lossless baseline.

``keepbits`` may be a fixed count or ``"auto"``, which estimates the
number of significant bits from the data's bitwise real information
(mutual information between adjacent values, per mantissa bit plane) and
keeps enough bit planes to preserve a configured fraction of it.

Special values survive exactly: non-finite values and the CESM fill
value keep their original bit patterns, and the rounding never turns a
finite value non-finite (mantissa carries that would overflow into the
infinity exponent are undone).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.config import FILL_VALUE
from repro.encoding.deflate import deflate, inflate

__all__ = ["BitRound", "estimate_keepbits", "round_mantissa"]

_MANTISSA = {np.dtype(np.float32): 23, np.dtype(np.float64): 52}
_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}

#: Cap on the information an adjacent-pair bit plane must carry before it
#: counts as signal; below ``_MI_FLOOR / n_pairs`` bits it is treated as
#: sampling noise (the chi-square floor of the 2x2 mutual information).
_MI_FLOOR = 1.5


def round_mantissa(values: np.ndarray, keepbits: int) -> np.ndarray:
    """Round float mantissas to ``keepbits`` bits, half to even.

    ``values`` is a float32/float64 array; returns a same-dtype copy.
    Non-finite values and the fill value are preserved bit-for-bit, and
    finite values never round up to infinity (the original value is kept
    where the mantissa carry would overflow the exponent field).
    """
    values = np.asarray(values)
    try:
        mant = _MANTISSA[values.dtype]
    except KeyError:
        raise TypeError(
            f"expected float32/float64, got {values.dtype}"
        ) from None
    if keepbits < 0:
        raise ValueError(f"keepbits must be >= 0, got {keepbits}")
    drop = mant - min(int(keepbits), mant)
    out = values.copy()
    if drop <= 0:
        return out
    uint_t = _UINT[values.dtype]
    width = values.dtype.itemsize * 8
    keep_mask = ((1 << width) - 1) & ~((1 << drop) - 1)
    flat = out.reshape(-1)
    bits = flat.view(uint_t)
    # Round to nearest, ties to even: adding (half - 1) plus the keep-LSB
    # rounds up exactly when the dropped tail exceeds half, or equals
    # half with an odd keep-LSB.  The carry may legitimately propagate
    # into the exponent (rounding up to the next binade).
    odd = (bits >> uint_t(drop)) & uint_t(1)
    with np.errstate(over="ignore"):
        rounded = (bits + uint_t((1 << (drop - 1)) - 1) + odd) \
            & uint_t(keep_mask)
    keep = ~np.isfinite(flat) | (flat == flat.dtype.type(FILL_VALUE))
    blew_up = ~np.isfinite(rounded.view(values.dtype)) & np.isfinite(flat)
    np.copyto(bits, rounded, where=~(keep | blew_up))
    return out


def estimate_keepbits(values: np.ndarray, ratio: float = 0.99) -> int:
    """Estimate the number of significant mantissa bits in ``values``.

    A simplified xbitinfo "bitinformation": for each mantissa bit plane
    (most significant first), compute the mutual information between the
    bit at adjacent positions in scan order; planes below the sampling
    noise floor carry zero information.  Returns the smallest keepbits
    whose leading planes hold at least ``ratio`` of the total, clamped
    to the dtype's mantissa width.  Deterministic — no RNG involved.
    """
    values = np.asarray(values)
    mant = _MANTISSA[values.dtype]
    x = np.ascontiguousarray(values).reshape(-1)
    usable = np.isfinite(x) & (x != x.dtype.type(FILL_VALUE))
    x = x[usable]
    if x.size < 2:
        return mant
    uint_t = _UINT[values.dtype]
    bits = x.view(uint_t)
    n_pairs = x.size - 1
    floor = _MI_FLOOR / n_pairs
    info = np.zeros(mant)
    # One plane at a time in reused buffers: the plane's bits, then the
    # pairs where both neighbours are set.  The 2x2 joint counts follow
    # from the set bits of the first and second members of the pairs
    # (the plane's count less one end bit) and of both.
    plane_bits = np.empty_like(bits)
    both = np.empty(n_pairs, dtype=uint_t)
    for plane in range(mant):
        np.bitwise_and(bits, uint_t(1 << (mant - 1 - plane)), out=plane_bits)
        n_set = np.count_nonzero(plane_bits)
        n_first = n_set - bool(plane_bits[-1])
        n_second = n_set - bool(plane_bits[0])
        np.bitwise_and(plane_bits[:-1], plane_bits[1:], out=both)
        n_11 = np.count_nonzero(both)
        n_10, n_01 = n_first - n_11, n_second - n_11
        joint = np.array(
            [n_pairs - n_10 - n_01 - n_11, n_01, n_10, n_11]
        ) / n_pairs
        pa = joint[2] + joint[3], joint[0] + joint[1]
        pb = joint[1] + joint[3], joint[0] + joint[2]
        mi = 0.0
        for idx, p in enumerate(joint):
            if p > 0:
                mi += p * np.log2(p / (pa[idx < 2] * pb[idx % 2 == 0]))
        # Real information decays monotonically with mantissa depth:
        # the first sub-floor plane and all past it are sampling or
        # rounding artifact (float LSBs of smooth fields show spurious
        # adjacent-pair MI), so they keep zero information.
        if not mi > floor:
            break
        info[plane] = mi
    total = info.sum()
    if total <= 0.0:
        return 1
    cum = np.cumsum(info)
    return int(np.searchsorted(cum, ratio * total) + 1)


class BitRound(Compressor):
    """Mantissa rounding to a fixed or estimated significant-bit count.

    Parameters
    ----------
    keepbits:
        Mantissa bits to keep (0..52), or ``"auto"`` to estimate via
        :func:`estimate_keepbits` per array.
    level:
        DEFLATE level for the rounded stream.
    information_ratio:
        Fraction of bitwise information ``"auto"`` must preserve.
    """

    name = "BitRound"

    def __init__(self, keepbits: int | str = "auto", level: int = 4,
                 information_ratio: float = 0.99):
        if keepbits != "auto":
            keepbits = int(keepbits)
            if not 0 <= keepbits <= 52:
                raise ValueError(
                    f"keepbits must be 0..52 or 'auto', got {keepbits}"
                )
        if not 0 <= level <= 9:
            raise ValueError(f"deflate level must be 0..9, got {level}")
        if not 0.0 < information_ratio <= 1.0:
            raise ValueError(
                f"information_ratio must be in (0, 1], got {information_ratio}"
            )
        self.keepbits = keepbits
        self.level = level
        self.information_ratio = information_ratio

    @property
    def variant(self) -> str:
        """Table label: BR-<keepbits> (or BR-auto)."""
        return f"BR-{self.keepbits}"

    @property
    def is_lossless(self) -> bool:
        """Lossless when keepbits covers the full float32 mantissa
        (reflects single-precision history files, as with fpzip-32)."""
        return self.keepbits != "auto" and int(self.keepbits) >= 23

    def _rounded(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """The lossy stage: the rounded values and the keepbits used."""
        if self.keepbits == "auto":
            kb = estimate_keepbits(values, self.information_ratio)
        else:
            kb = min(int(self.keepbits), _MANTISSA[values.dtype])
        return round_mantissa(values, kb), kb

    def _encode_values(self, values: np.ndarray) -> bytes:
        rounded, kb = self._rounded(values)
        body = deflate(rounded.tobytes(), self.level,
                       itemsize=values.dtype.itemsize)
        return struct.pack("<B", kb) + body

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        if len(payload) < 1:
            raise ValueError("truncated BitRound payload")
        raw = inflate(payload[1:], itemsize=np.dtype(dtype).itemsize)
        values = np.frombuffer(raw, dtype=dtype)
        if values.size != count:
            raise ValueError(
                f"decoded {values.size} values, expected {count}"
            )
        return values

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        # DEFLATE is lossless and the decoder restores nothing.
        return self._rounded(values)[0]

    def used_keepbits(self, blob_payload: bytes) -> int:
        """The keepbits a payload was actually encoded with (relevant for
        ``"auto"``, where it varies per array)."""
        if len(blob_payload) < 1:
            raise ValueError("truncated BitRound payload")
        return struct.unpack_from("<B", blob_payload, 0)[0]

    @classmethod
    def properties(cls) -> CodecProperties:
        """BitRound's Table 1 row: the transform is a no-op at full
        mantissa width (lossless mode) and special values pass through
        the lossless back end untouched."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,
            special_values=True,
            freely_available=True,
            fixed_quality=True,
            fixed_cr=False,
            bits_32_and_64=True,
        )
