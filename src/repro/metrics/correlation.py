"""Pearson correlation between original and reconstructed data (eq. 5).

"For context, the APAX profiler recommends that the correlation
coefficient be .99999 (or better) between the original and reconstructed
data.  We currently use .99999 as the acceptance threshold for our tests."
"""

from __future__ import annotations

import numpy as np

from repro.config import RHO_THRESHOLD
from repro.metrics.streaming import ErrorSummary

__all__ = ["pearson", "passes_correlation_test"]


def pearson(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Eq. (5): rho = cov(X, X~) / (sigma_X sigma_X~), over valid points.

    An exact reconstruction returns 1.0 even for constant fields (where
    the usual formula is 0/0): replacing identical data cannot change any
    analysis, so perfect correlation is the meaningful limit.
    """
    return ErrorSummary.of(original, reconstructed).pearson


def passes_correlation_test(
    original: np.ndarray,
    reconstructed: np.ndarray,
    threshold: float = RHO_THRESHOLD,
) -> bool:
    """The paper's rho >= 0.99999 acceptance test (Table 6, column 2)."""
    return pearson(original, reconstructed) >= threshold
