"""Pointwise error metrics (paper Section 4.2).

The pointwise error at point ``i`` is ``e_i = x_i - x~_i``; its maximum
norm ``e_max`` indicates the minimum precision achieved, and the
range-normalized form (eq. 2)

    e_nmax = max_i |e_i| / R_X

makes errors comparable across variables whose magnitudes differ by eleven
orders of magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.streaming import NO_VALID, ErrorSummary, valid_pair

__all__ = ["pointwise_errors", "max_pointwise_error", "normalized_max_error"]


def pointwise_errors(original: np.ndarray,
                     reconstructed: np.ndarray) -> np.ndarray:
    """e_i = x_i - x~_i over valid points (flattened)."""
    x, xr = valid_pair(original, reconstructed)
    if x.size == 0:
        raise ValueError(NO_VALID)
    return x - xr


def max_pointwise_error(original: np.ndarray,
                        reconstructed: np.ndarray) -> float:
    """e_max = max_i |e_i| (the maximum norm)."""
    return ErrorSummary.of(original, reconstructed).e_max


def normalized_max_error(original: np.ndarray,
                         reconstructed: np.ndarray) -> float:
    """Eq. (2): e_nmax = max|e_i| / R_X.

    A constant field (R_X = 0) yields 0.0 when reconstructed exactly and
    raises otherwise (see :class:`~repro.metrics.streaming.ErrorSummary`).
    """
    return ErrorSummary.of(original, reconstructed).e_nmax
