"""Predictive-coding helpers shared by the fpzip- and APAX-style codecs.

The key trick (from Lindstrom & Isenburg's fpzip) is a *monotone* mapping
between IEEE floating-point bit patterns and signed integers: ordered floats
map to ordered integers, so numerically close values have small integer
differences and a simple delta predictor turns smooth fields into
small-entropy residual streams.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "float_to_ordered_int",
    "ordered_int_to_float",
    "truncate_precision",
    "delta_encode",
    "delta_decode",
    "lorenzo2d_encode",
    "lorenzo2d_decode",
]

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}
_SIGN_SHIFT = {np.dtype(np.float32): 31, np.dtype(np.float64): 63}


def float_to_ordered_int(values: np.ndarray) -> np.ndarray:
    """Map floats to int64 such that the mapping preserves numeric order.

    Positive floats keep their bit pattern; negative floats map to the
    negation of their magnitude bits.  NaNs are rejected (CESM history
    files use the 1e35 fill value, never NaN).
    """
    values = np.asarray(values)
    try:
        uint_t = _UINT[values.dtype]
    except KeyError:
        raise TypeError(f"expected float32/float64, got {values.dtype}") from None
    if np.isnan(values).any():
        raise ValueError("NaN is not representable in the ordered-int mapping")
    bits = values.view(uint_t)
    shift = _SIGN_SHIFT[values.dtype]
    sign = (bits >> bits.dtype.type(shift)).astype(bool)
    magnitude = (bits & uint_t((1 << shift) - 1)).astype(np.int64)
    return np.where(sign, -magnitude, magnitude)


def ordered_int_to_float(codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`float_to_ordered_int`."""
    dtype = np.dtype(dtype)
    try:
        uint_t = _UINT[dtype]
    except KeyError:
        raise TypeError(f"expected float32/float64, got {dtype}") from None
    codes = np.asarray(codes, dtype=np.int64)
    shift = _SIGN_SHIFT[dtype]
    negative = codes < 0
    magnitude = np.abs(codes).astype(np.uint64)
    if magnitude.size and int(magnitude.max()) >> shift:
        raise ValueError("ordered-int code out of range for target dtype")
    bits = magnitude | (negative.astype(np.uint64) << np.uint64(shift))
    return bits.astype(uint_t).view(dtype)


def truncate_precision(values: np.ndarray, precision: int) -> np.ndarray:
    """Keep only the ``precision`` most-significant bits of each float.

    This is fpzip's lossy mode: ``precision`` must be a multiple of 8 up to
    the width of the type; the discarded low-order mantissa bits are zeroed
    (round toward zero, as in fpzip's integer truncation).  ``precision``
    equal to the full width is the identity (lossless).
    """
    values = np.asarray(values)
    try:
        uint_t = _UINT[values.dtype]
    except KeyError:
        raise TypeError(f"expected float32/float64, got {values.dtype}") from None
    width = values.dtype.itemsize * 8
    if precision % 8 or not 8 <= precision <= width:
        raise ValueError(
            f"precision must be a multiple of 8 in 8..{width}, got {precision}"
        )
    if precision == width:
        return values.copy()
    # Truncation would turn NaN into inf or a finite number, and inf into
    # a finite number where it cuts into the exponent.
    if np.isnan(values).any():
        raise ValueError("NaN does not survive precision truncation")
    if precision <= np.finfo(values.dtype).nexp and np.isinf(values).any():
        raise ValueError(f"inf does not survive truncation to {precision} "
                         "bits")
    drop = np.uint64(width - precision)
    mask = uint_t(~np.uint64(0) << drop)
    return (values.view(uint_t) & mask).view(values.dtype)


def delta_encode(codes: np.ndarray) -> np.ndarray:
    """First-order prediction: residual[i] = code[i] - code[i-1].

    ``codes`` is any integer array (converted to int64); the int64
    residuals keep its shape.  The first element is kept verbatim
    (predicted from zero), so decode needs no side information.
    """
    codes = np.asarray(codes, dtype=np.int64)
    residuals = np.empty_like(codes)
    if codes.size == 0:
        return residuals
    residuals[0] = codes[0]
    np.subtract(codes[1:], codes[:-1], out=residuals[1:])
    return residuals


def delta_decode(residuals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode` (a cumulative sum).

    ``residuals`` is a flat int64 array; returns int64 of the same shape.
    """
    residuals = np.asarray(residuals, dtype=np.int64)
    return np.cumsum(residuals, dtype=np.int64)


def lorenzo2d_encode(codes: np.ndarray) -> np.ndarray:
    """2-D Lorenzo prediction: residual = x[i,j] - x[i-1,j] - x[i,j-1]
    + x[i-1,j-1], with zero padding outside the array.

    This is fpzip's dimensional predictor restricted to two dimensions
    (levels x columns for CAM history data): it cancels both vertical and
    horizontal trends.  Equivalent to differencing along both axes, so the
    inverse is a double cumulative sum.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError(f"lorenzo2d expects a 2-D array, got {codes.ndim}-D")
    r = np.diff(codes, axis=0, prepend=0)
    return np.diff(r, axis=1, prepend=0)


def lorenzo2d_decode(residuals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lorenzo2d_encode`.

    ``residuals`` is a 2-D int64 array; returns int64 of the same shape.
    """
    residuals = np.asarray(residuals, dtype=np.int64)
    if residuals.ndim != 2:
        raise ValueError(
            f"lorenzo2d expects a 2-D array, got {residuals.ndim}-D"
        )
    return np.cumsum(np.cumsum(residuals, axis=1, dtype=np.int64), axis=0,
                     dtype=np.int64)
