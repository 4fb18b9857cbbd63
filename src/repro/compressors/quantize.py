"""GRIB2-style scale-and-offset quantization.

GRIB2 "simple packing" stores a field as non-negative integers via::

    Y_i = round((X_i * 10**D - R) / 2**E)

with ``D`` the *decimal scale factor* (precision knob the paper tunes per
variable), ``R`` the reference value (the scaled minimum) and ``E`` the
*binary scale factor* (chosen here so the integers fit a target bit width).
Reconstruction is ``X_i = (R + Y_i * 2**E) / 10**D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedField", "quantize", "dequantize", "decimal_scale_for"]


@dataclass(frozen=True)
class QuantizedField:
    """Integer codes plus the scaling triple needed to reconstruct."""

    codes: np.ndarray  # uint64
    reference: float
    decimal_scale: int
    binary_scale: int
    nbits: int

    @property
    def max_code(self) -> int:
        """Largest stored integer code."""
        return int(self.codes.max()) if self.codes.size else 0


def quantize(
    values: np.ndarray, decimal_scale: int, max_bits: int = 24
) -> QuantizedField:
    """Quantize ``values`` with decimal scale ``D = decimal_scale``.

    The binary scale ``E`` is raised from 0 until the integer range fits in
    ``max_bits`` bits (each increment halves the stored precision), exactly
    how GRIB2 encoders trade precision for width.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot quantize an empty array")
    if not -30 <= decimal_scale <= 30:
        raise ValueError(f"decimal_scale out of range: {decimal_scale}")
    if not 1 <= max_bits <= 32:
        raise ValueError(f"max_bits must be in 1..32, got {max_bits}")

    scaled = values * 10.0**decimal_scale
    reference = float(scaled.min())
    span = float(scaled.max()) - reference
    if not np.isfinite(span):
        raise ValueError("cannot quantize non-finite values (NaN or inf)")

    binary_scale = 0
    # Smallest E with span / 2**E < 2**max_bits.
    if span > 0:
        binary_scale = max(0, int(np.ceil(np.log2(span) - max_bits + 1e-12)))
        while span / 2.0**binary_scale >= 2.0**max_bits:
            binary_scale += 1

    codes = np.rint((scaled - reference) / 2.0**binary_scale)
    codes = codes.astype(np.uint64)
    nbits = max(1, int(codes.max()).bit_length()) if codes.size else 1
    return QuantizedField(
        codes=codes,
        reference=reference,
        decimal_scale=decimal_scale,
        binary_scale=binary_scale,
        nbits=nbits,
    )


def dequantize(field: QuantizedField, dtype: np.dtype = np.float64) -> np.ndarray:
    """Reconstruct float values from a :class:`QuantizedField`."""
    values = (
        field.reference
        + field.codes.astype(np.float64, copy=False) * 2.0**field.binary_scale
    ) / 10.0**field.decimal_scale
    return values.astype(dtype, copy=False)


def decimal_scale_for(values: np.ndarray, significant_digits: int = 4) -> int:
    """Choose a per-variable decimal scale factor from its magnitude.

    The paper reports that a single global ``D`` "were quite poor" and that
    ``D`` must depend on each variable's magnitude and range (Section 5.4).
    This mirrors that: pick ``D`` so the field's typical magnitude carries
    ``significant_digits`` decimal digits after scaling.
    """
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("no finite values to inspect")
    magnitude = float(np.max(np.abs(finite)))
    if magnitude == 0.0:
        return 0
    # Digits before the decimal point of the largest magnitude value.
    lead = int(np.floor(np.log10(magnitude))) + 1
    return int(np.clip(significant_digits - lead, -30, 30))
