"""fpzip-style predictive floating-point codec.

Follows the structure of Lindstrom & Isenburg's fpzip (paper Section 3.2.1):

1. optionally truncate each float to ``precision`` most-significant bits
   (``precision`` must be a multiple of 8; 32 is lossless for
   single-precision data — the paper's fpzip-16 / fpzip-24 / fpzip-32);
2. map the (truncated) floats to order-preserving integers;
3. predict each value from its predecessor in scan order (the 1-D Lorenzo
   predictor) and take residuals;
4. entropy code the zigzagged residuals with the shared residual
   back-end (:mod:`repro.encoding.residuals`: Golomb-Rice or
   shuffle+DEFLATE, whichever is smaller).

Because truncation zeroes the low ``32 - precision`` bits, residuals share
those zero bits; we shift them out before coding, which is where the
precision knob buys its compression.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.compressors.prediction import (
    delta_decode,
    delta_encode,
    float_to_ordered_int,
    lorenzo2d_decode,
    lorenzo2d_encode,
    ordered_int_to_float,
    truncate_precision,
)
from repro.encoding.residuals import decode_residuals, encode_residuals
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["Fpzip"]


class Fpzip(Compressor):
    """Predictive codec with fpzip's 8-bit-granular precision knob.

    Parameters
    ----------
    precision:
        Bits of precision to retain: 8, 16, 24, 32 (lossless for float32),
        and up to 64 for float64 inputs.  The paper evaluates 16 and 24 as
        the lossy variants and 32 as the lossless fallback (Table 8).
    """

    name = "fpzip"

    def __init__(self, precision: int = 32, predictor: str = "delta"):
        if precision % 8 or not 8 <= precision <= 64:
            raise ValueError(
                f"precision must be a multiple of 8 in 8..64, got {precision}"
            )
        if predictor not in ("delta", "lorenzo"):
            raise ValueError(
                f"predictor must be 'delta' or 'lorenzo', got {predictor!r}"
            )
        self.precision = precision
        self.predictor = predictor

    @property
    def variant(self) -> str:
        """Table label: fpzip-<precision>, plus the predictor suffix."""
        suffix = "" if self.predictor == "delta" else "-lorenzo"
        return f"fpzip-{self.precision}{suffix}"

    @property
    def is_lossless(self) -> bool:
        """Lossless for float32 when precision >= 32 (encode() re-checks
        per dtype; this reflects single-precision history files)."""
        return self.precision >= 32

    def _encode_with_shape(self, values: np.ndarray,
                           shape: tuple[int, ...]) -> bytes:
        ncols = shape[-1] if len(shape) >= 2 else 0
        return self._encode_values(values, ncols=ncols)

    def _truncated_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """The lossy stage: ordered-int codes of the truncated floats,
        and the precision kept."""
        precision = min(self.precision, values.dtype.itemsize * 8)
        truncated = truncate_precision(values, precision)
        return float_to_ordered_int(truncated), precision

    def _encode_values(self, values: np.ndarray, ncols: int = 0) -> bytes:
        codes, precision = self._truncated_codes(values)
        # Truncation zeroes the low (width - precision) bits of every
        # magnitude, hence of every residual: shift them out.
        drop = values.dtype.itemsize * 8 - precision
        shifted = codes >> drop
        # The Lorenzo predictor needs a 2-D layout (rows x last axis); it
        # degrades to the delta predictor when none is available.
        use_lorenzo = (
            self.predictor == "lorenzo" and ncols > 1
            and values.size % ncols == 0 and values.size > ncols
        )
        if use_lorenzo:
            signed = lorenzo2d_encode(shifted.reshape(-1, ncols)).ravel()
        else:
            ncols = 0
            signed = delta_encode(shifted)
        mode, width, payload = encode_residuals(zigzag_encode(signed))
        return struct.pack("<BBBI", mode, precision, width,
                           ncols) + payload

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        if len(payload) < 7:
            raise ValueError("truncated fpzip payload")
        mode, precision, width, ncols = struct.unpack_from("<BBBI",
                                                           payload, 0)
        residuals = decode_residuals(mode, width, payload[7:], count,
                                     "fpzip")
        width = np.dtype(dtype).itemsize * 8
        drop = width - precision
        signed = zigzag_decode(residuals)
        if ncols:
            shifted = lorenzo2d_decode(signed.reshape(-1, ncols)).ravel()
        else:
            shifted = delta_decode(signed)
        return ordered_int_to_float(shifted << drop, dtype)

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        codes, _ = self._truncated_codes(values)
        return ordered_int_to_float(codes, values.dtype)

    @classmethod
    def properties(cls) -> CodecProperties:
        """fpzip's Table 1 row: lossless-capable, free, 32- and 64-bit."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,
            special_values=False,
            freely_available=True,
            fixed_quality=False,
            fixed_cr=False,
            bits_32_and_64=True,
        )
