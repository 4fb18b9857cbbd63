"""Bias detection via RMSZ-vs-RMSZ regression (Section 4.3, Figure 4).

The reconstructed ensemble E~ is every member after one compression
round trip, built by :func:`repro.pvt.acceptance.reconstruct_ensemble`
in the same pass that feeds the other acceptance tests; this module
only fits the regression.  Each member's RMSZ is computed within its
own ensemble (E~'s scores use E~'s sub-ensemble statistics), and the
101 (RMSZ_E, RMSZ_E~) pairs are fit with ordinary least squares.  An
unbiased reconstruction has slope 1 and intercept 0; the 95% confidence
rectangle around the estimate quantifies how differently members
respond to compression.  Eq. (9) requires the worst-case slope within
the rectangle to sit within 0.05 of the ideal slope 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from repro.config import BIAS_SLOPE_LIMIT

__all__ = ["BiasResult", "bias_regression"]


@dataclass(frozen=True)
class BiasResult:
    """OLS fit of reconstructed RMSZ on original RMSZ, with 95% CIs."""

    slope: float
    intercept: float
    slope_ci: tuple[float, float]
    intercept_ci: tuple[float, float]
    residual_std: float
    n: int

    @property
    def worst_case_slope(self) -> float:
        """The confidence-interval endpoint farthest from the ideal 1."""
        lo, hi = self.slope_ci
        return lo if abs(lo - 1.0) >= abs(hi - 1.0) else hi

    @property
    def slope_distance(self) -> float:
        """|s_I - s_WC| of eq. (9)."""
        return abs(1.0 - self.worst_case_slope)

    def contains_ideal(self) -> bool:
        """Whether the 95% rectangle contains (slope, intercept) = (1, 0)."""
        s_lo, s_hi = self.slope_ci
        i_lo, i_hi = self.intercept_ci
        return (s_lo <= 1.0 <= s_hi) and (i_lo <= 0.0 <= i_hi)

    def passes(self, limit: float = BIAS_SLOPE_LIMIT) -> bool:
        """Eq. (9): |s_I - s_WC| <= 0.05."""
        return self.slope_distance <= limit


def bias_regression(
    rmsz_original: np.ndarray,
    rmsz_reconstructed: np.ndarray,
    confidence: float = 0.95,
) -> BiasResult:
    """Fit reconstructed RMSZ on original RMSZ with OLS + t-based CIs.

    Both inputs are equal-length 1-D float arrays of per-member RMSZ
    scores (one entry per ensemble member).
    """
    x = np.asarray(rmsz_original, dtype=np.float64)
    y = np.asarray(rmsz_reconstructed, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("expected two equal-length 1-D RMSZ arrays")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 members for a regression, got {n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")

    x_mean = x.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise ZeroDivisionError(
            "original RMSZ values are all identical; slope is undefined"
        )
    slope = float(np.sum((x - x_mean) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x_mean)

    residuals = y - (intercept + slope * x)
    dof = n - 2
    s2 = float(np.sum(residuals**2) / dof) if dof > 0 else 0.0
    se_slope = np.sqrt(s2 / sxx)
    se_intercept = np.sqrt(s2 * (1.0 / n + x_mean**2 / sxx))
    t = float(sps.t.ppf(0.5 + confidence / 2.0, dof))

    return BiasResult(
        slope=slope,
        intercept=intercept,
        slope_ci=(slope - t * se_slope, slope + t * se_slope),
        intercept_ci=(
            intercept - t * se_intercept,
            intercept + t * se_intercept,
        ),
        residual_std=float(np.sqrt(s2)),
        n=n,
    )

