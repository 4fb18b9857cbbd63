"""Average error metrics (paper Section 4.2, eqs. 3-4).

RMSE, the range-normalized NRMSE the paper prefers, the PSNR the paper
mentions (but does not tabulate, "as it conveys the same type of error
information as the NRMSE"), and the signal-to-residual ratio (SRR) used by
Huebbe et al. for climate data.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.streaming import NO_VALID, ErrorSummary, valid_pair

__all__ = ["rmse", "nrmse", "psnr", "signal_to_residual_ratio"]


def rmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Eq. (3): sqrt(mean(e_i^2)) over valid points."""
    return ErrorSummary.of(original, reconstructed).rmse


def nrmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Eq. (4): RMSE / R_X."""
    return ErrorSummary.of(original, reconstructed).nrmse


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf for exact reconstruction."""
    return ErrorSummary.of(original, reconstructed).psnr


def signal_to_residual_ratio(original: np.ndarray,
                             reconstructed: np.ndarray) -> float:
    """SRR: std of the data over std of the pointwise error (in dB).

    The metric Huebbe et al. use for ECHAM data (paper Section 2.2);
    +inf for exact reconstruction.
    """
    x, xr = valid_pair(original, reconstructed)
    if x.size == 0:
        raise ValueError(NO_VALID)
    sigma_x = float(x.std())
    sigma_e = float((x - xr).std())
    if sigma_e == 0.0:
        return float("inf")
    if sigma_x == 0.0:
        raise ZeroDivisionError("signal has zero variance")
    return 20.0 * np.log10(sigma_x / sigma_e)
