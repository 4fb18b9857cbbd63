"""GRIB2 + JPEG2000-style codec.

Mirrors the WMO GRIB2 pipeline the paper evaluates (Section 3.2.3): the
field is quantized by a per-variable *decimal scale factor* ``D`` and an
automatic binary scale factor (``repro.compressors.quantize``), missing /
special values are recorded in a GRIB2-style bitmap, and the integer codes
are compressed with a reversible 5/3 lifting wavelet (JPEG2000's lossless
filter) followed by the shared residual back-end
(:mod:`repro.encoding.residuals`).

Two properties of the real GRIB2 emerge by construction:

- encoding is *always lossy* (the format conversion quantizes, so there is
  no lossless mode even with lossless JPEG2000 — Table 1);
- a single ``D`` cannot serve a variable whose values span many orders of
  magnitude, so large-range fields (CCN3-like) reconstruct poorly in the
  ensemble tests, exactly the paper's Figure 2(d) observation.

``decimal_scale`` may be an integer or ``"auto"`` (choose from the
variable's magnitude, Section 5.4).
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from repro.config import SPECIAL_THRESHOLD
from repro.compressors.base import CodecProperties, Compressor
from repro.compressors.quantize import (
    QuantizedField,
    decimal_scale_for,
    dequantize,
    quantize,
)
from repro.compressors.wavelet import forward_53, inverse_53
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.residuals import decode_residuals, encode_residuals
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["Grib2Jpeg2000"]

#: Magnitudes at or above this are treated as GRIB2 missing values (CESM's
#: fill value is 1e35).
_MISSING_THRESHOLD = SPECIAL_THRESHOLD


class _Scaled(NamedTuple):
    """What the decoder recovers: the bitmap, the special values (one
    exemplar or one per flagged point) and the quantized valid points."""

    missing: np.ndarray
    special: np.ndarray | None
    field: QuantizedField | None


def _restore(scaled: _Scaled, dtype: np.dtype) -> np.ndarray:
    """Dequantize the valid points and put the special values back."""
    out = np.zeros(scaled.missing.size, dtype=np.float64)
    if scaled.special is not None:
        out[scaled.missing] = scaled.special
    if scaled.field is not None:
        out[~scaled.missing] = dequantize(scaled.field)
    return out.astype(dtype, copy=False)


class Grib2Jpeg2000(Compressor):
    """Decimal/binary scaling + bitmap + reversible wavelet packing."""

    name = "GRIB2"

    def __init__(
        self,
        decimal_scale: int | str = "auto",
        max_bits: int = 24,
        significant_digits: int = 6,
    ):
        if isinstance(decimal_scale, str) and decimal_scale != "auto":
            raise ValueError(
                f"decimal_scale must be an int or 'auto', "
                f"got {decimal_scale!r}"
            )
        self.decimal_scale = decimal_scale
        self.max_bits = max_bits
        self.significant_digits = significant_digits

    @property
    def variant(self) -> str:
        """Table label (the paper shows a single tuned GRIB2 column)."""
        return self.name

    def _resolve_scale(self, values: np.ndarray) -> int:
        if self.decimal_scale == "auto":
            return decimal_scale_for(values, self.significant_digits)
        return int(self.decimal_scale)

    def _scale(self, values: np.ndarray) -> _Scaled:
        """The lossy stage: the special-value bitmap and the quantized
        valid points (``None`` when every point is special)."""
        missing = np.abs(values) >= values.dtype.type(_MISSING_THRESHOLD)
        special = None
        if missing.any():
            # GRIB2 bitmaps flag position only.  When every flagged value
            # is the same (the CESM fill) one stored exemplar restores
            # them all; otherwise (say +inf beside -inf) each is stored
            # in bitmap order.
            special = values[missing].astype(np.float64, copy=False)
            if (special == special[0]).all():
                special = special[:1]
        valid = values[~missing].astype(np.float64, copy=False)
        field = None
        if valid.size:
            field = quantize(valid, self._resolve_scale(valid),
                             self.max_bits)
        return _Scaled(missing, special, field)

    def _encode_values(self, values: np.ndarray) -> bytes:
        scaled = self._scale(values)
        writer = SectionWriter()
        n_missing = int(scaled.missing.sum())
        if n_missing:
            writer.add("bitmap",
                       zlib.compress(np.packbits(scaled.missing).tobytes(), 4))
            writer.add("fill", scaled.special.tobytes())
        field = scaled.field
        if field is None:
            writer.add("meta",
                       struct.pack("<dqqBBQ", 0.0, 0, 0, 0, 0, n_missing))
            return writer.tobytes()

        coeffs, lengths = forward_53(field.codes.astype(np.int64))
        mode, width, payload = encode_residuals(zigzag_encode(coeffs))

        writer.add(
            "meta",
            struct.pack(
                "<dqqBBQ",
                field.reference,
                field.decimal_scale,
                field.binary_scale,
                mode,
                width,
                n_missing,
            ),
        )
        writer.add("lengths", np.asarray(lengths, dtype=np.int64).tobytes())
        writer.add("codes", payload)
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        reference, d, e, mode, width, n_missing = struct.unpack(
            "<dqqBBQ", reader.get("meta")
        )
        missing = np.zeros(count, dtype=bool)
        special = None
        if n_missing:
            packed = np.frombuffer(zlib.decompress(reader.get("bitmap")),
                                   dtype=np.uint8)
            missing = np.unpackbits(packed, count=count).astype(bool)
            special = np.frombuffer(reader.get("fill"), dtype=np.float64)
        field = None
        n_valid = count - n_missing
        if n_valid:
            codes = decode_residuals(mode, width, reader.get("codes"),
                                     n_valid, "GRIB2")
            lengths = np.frombuffer(reader.get("lengths"),
                                    dtype=np.int64).tolist()
            ints = inverse_53(zigzag_decode(codes), lengths)
            field = QuantizedField(
                codes=ints.astype(np.uint64),
                reference=reference,
                decimal_scale=int(d),
                binary_scale=int(e),
                nbits=0,
            )
        return _restore(_Scaled(missing, special, field), dtype)

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        # The 5/3 wavelet and the residual coder are lossless: skip both.
        return _restore(self._scale(values), values.dtype)

    @classmethod
    def properties(cls) -> CodecProperties:
        """GRIB2's Table 1 row: always lossy, bitmap special values."""
        return CodecProperties(
            name="GRIB2 + jpeg2000",
            lossless_mode=False,
            special_values=True,
            freely_available=True,
            fixed_quality=False,
            fixed_cr=False,
            bits_32_and_64=False,
        )
