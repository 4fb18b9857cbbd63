"""Lossless NetCDF-4-style compression (shuffle + DEFLATE).

This is the paper's lossless baseline: eq. (1)'s ``CR`` for "the lossless
compression scheme that is part of the NetCDF-4 library (zlib)", the "NC"
column of Table 7, and the lossless fallback used when building hybrid
methods for ISABELA and GRIB2 (Table 8).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.deflate import deflate, inflate

__all__ = ["NetCDF4Zlib"]


class NetCDF4Zlib(Compressor):
    """Shuffle + DEFLATE, bit-for-bit lossless on any float data."""

    name = "NetCDF-4"

    def __init__(self, level: int = 4, shuffle: bool = True):
        if not 0 <= level <= 9:
            raise ValueError(f"deflate level must be 0..9, got {level}")
        self.level = level
        self.shuffle = shuffle

    @property
    def variant(self) -> str:
        """Table label; non-default settings are spelled out."""
        return self.name if self.shuffle and self.level == 4 else (
            f"{self.name}(level={self.level},shuffle={self.shuffle})"
        )

    @property
    def is_lossless(self) -> bool:
        """Always True: DEFLATE reconstructs bit-for-bit."""
        return True

    def _encode_values(self, values: np.ndarray) -> bytes:
        itemsize = values.dtype.itemsize if self.shuffle else 1
        return deflate(values.tobytes(), self.level, itemsize=itemsize)

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize if self.shuffle else 1
        raw = inflate(payload, itemsize=itemsize)
        values = np.frombuffer(raw, dtype=dtype)
        if values.size != count:
            raise ValueError(
                f"decoded {values.size} values, expected {count}"
            )
        return values

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        # Shuffle and DEFLATE are lossless: the round trip is a copy.
        return values.copy()

    @classmethod
    def properties(cls) -> CodecProperties:
        """The lossless baseline's property row."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,
            special_values=True,  # lossless: any bit pattern survives
            freely_available=True,
            fixed_quality=True,  # quality is always exact
            fixed_cr=False,
            bits_32_and_64=True,
        )
