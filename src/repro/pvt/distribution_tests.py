"""Distribution-level indistinguishability tests.

The paper's bias check (Section 4.3) regresses reconstructed RMSZ on
original RMSZ.  A natural strengthening — in the spirit of the claim that
"the distribution itself is essentially unchanged (statistically
indistinguishable)" — is to compare the two RMSZ *distributions* directly.
This module adds:

- :func:`ks_statistic` / :func:`ks_test` — the two-sample
  Kolmogorov-Smirnov test (implemented directly; the asymptotic p-value
  uses the Kolmogorov distribution via :mod:`scipy.special`);
- :func:`rmsz_distribution_test` — reconstruct the whole ensemble with a
  codec (:func:`repro.pvt.acceptance.reconstruct_ensemble`) and KS-test
  original vs reconstructed RMSZ distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from repro.compressors.base import Compressor
from repro.pvt.acceptance import reconstruct_ensemble
from repro.pvt.zscore import EnsembleStats

__all__ = ["KsResult", "ks_statistic", "ks_test", "rmsz_distribution_test"]


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS outcome."""

    statistic: float
    p_value: float
    n_a: int
    n_b: int

    def indistinguishable(self, alpha: float = 0.05) -> bool:
        """True when the test fails to reject 'same distribution'."""
        return self.p_value > alpha


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance between the two empirical CDFs.

    ``a`` and ``b`` are non-empty 1-D float samples (any dtype numpy can
    cast to float64); returns a scalar in [0, 1].
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_test(a: np.ndarray, b: np.ndarray) -> KsResult:
    """Two-sample KS test with the asymptotic p-value.

    ``a`` and ``b`` are non-empty 1-D float samples; sizes may differ.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = ks_statistic(a, b)
    n_eff = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov((np.sqrt(n_eff) + 0.12 + 0.11 / np.sqrt(n_eff)) * d))
    return KsResult(statistic=d, p_value=min(max(p, 0.0), 1.0),
                    n_a=a.size, n_b=b.size)


def rmsz_distribution_test(
    ensemble: np.ndarray, codec: Compressor
) -> KsResult:
    """Compress every member; KS-test the reconstructed members' RMSZ
    scores against the original RMSZ distribution.

    Each reconstructed member is scored against the *original* ensemble's
    leave-one-out statistics (the reference frame of the paper's Figure 2
    markers).  Scoring within the reconstructed ensemble would be blind to
    compression that destroys every member the same way — the mutual
    Z-scores barely move even when the data is ruined.

    A codec whose reconstruction is climate-neutral leaves the score
    distribution statistically unchanged (large p-value); a destructive
    codec shifts it (small p-value).
    """
    stats = EnsembleStats(ensemble)
    recon = reconstruct_ensemble(ensemble, codec)
    scores = [stats.rmsz(r.reshape(-1), m) for m, r in enumerate(recon)]
    return ks_test(stats.distribution(), scores)
