"""The residual entropy back-end shared by the predictive codecs.

fpzip, GRIB2 and SZ all end the same way: a stream of zigzagged
(non-negative) prediction residuals is coded twice — as split-stream
Golomb-Rice and as shuffle+DEFLATE on the narrowest unsigned dtype that
holds it — and the smaller payload is kept.  Neither coder dominates:
Rice is near-optimal on geometric residuals, while DEFLATE exploits the
repeats and short-range structure of real climate residuals.

The choice travels as a ``(mode, width)`` pair the codec stores in its
own header: mode 0 is Rice (width 0), mode 1 is DEFLATE over ``width``
byte words.  Rice wins ties.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.deflate import deflate, inflate
from repro.encoding.rice import rice_decode, rice_encode

__all__ = ["narrow", "encode_residuals", "decode_residuals"]

_MODE_RICE = 0
_MODE_DEFLATE = 1

#: DEFLATE level of the residual stream (NetCDF-4's common default).
_LEVEL = 4


def narrow(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Narrow uint64 values to the smallest unsigned dtype that fits.

    DEFLATE compresses narrow words both faster and better than the same
    values padded to 8 bytes.
    """
    peak = int(values.max()) if values.size else 0
    for width in (1, 2, 4):
        if peak < 1 << (8 * width):
            return width, values.astype(f"<u{width}")
    return 8, values


def encode_residuals(residuals: np.ndarray) -> tuple[int, int, bytes]:
    """Code uint64 residuals both ways; return ``(mode, width, payload)``
    for the smaller payload."""
    rice_payload = rice_encode(residuals)
    width, narrowed = narrow(residuals)
    deflate_payload = deflate(narrowed.tobytes(), _LEVEL, itemsize=width)
    if len(rice_payload) <= len(deflate_payload):
        return _MODE_RICE, 0, rice_payload
    return _MODE_DEFLATE, width, deflate_payload


def decode_residuals(mode: int, width: int, payload: bytes, count: int,
                     codec: str) -> np.ndarray:
    """Inverse of :func:`encode_residuals`: ``count`` uint64 residuals.

    ``codec`` names the caller in the errors raised for a corrupt
    header or a payload that decodes to the wrong length.
    """
    if mode == _MODE_RICE:
        residuals = rice_decode(payload)
    elif mode == _MODE_DEFLATE:
        if width not in (1, 2, 4, 8):
            raise ValueError(f"bad {codec} residual width {width}")
        residuals = np.frombuffer(
            inflate(payload, itemsize=width), dtype=f"<u{width}"
        ).astype(np.uint64)
    else:
        raise ValueError(f"unknown {codec} mode {mode}")
    if residuals.size != count:
        raise ValueError(
            f"decoded {residuals.size} residuals, expected {count}"
        )
    return residuals
