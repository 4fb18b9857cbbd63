"""Ensemble distribution of the normalized maximum pointwise error (eq. 10)
and the eq. 11 acceptance ratio.

For each member ``m`` the statistic is the largest pointwise deviation of
``m`` from *any* other member, normalized by ``m``'s own range::

    E_nmax^m = max_i ( max_{n != m} |x_i^m - x_i^n| ) / R_X^m

The inner max over 100 members never needs pairwise differencing: for
each grid point it is reached at the ensemble's max or min, and leaving
``m`` out never changes it (``m``'s distance to itself is 0).  So the
whole distribution is a few exact max/min reductions, which
:class:`repro.pvt.zscore.EnsembleStats` performs in the same column-tiled
sweep that builds the RMSZ statistics: tile-sized temporaries, no sort and
no per-member loop.
"""

from __future__ import annotations

import numpy as np

from repro.check.hooks import boundary
from repro.config import ENMAX_RATIO_LIMIT
from repro.pvt.zscore import EnsembleStats

__all__ = ["enmax_distribution", "enmax_for_member", "enmax_ratio_test"]


@boundary("enmax")
def enmax_distribution(ensemble: np.ndarray) -> np.ndarray:
    """Eq. (10) for every member: the (n_members,) E_nmax distribution."""
    ensemble = np.asarray(ensemble)
    if ensemble.ndim < 2 or ensemble.shape[0] < 3:
        raise ValueError("ensemble must be (n_members >= 3, ...)")
    return EnsembleStats(ensemble).enmax_distribution()


def enmax_for_member(ensemble: np.ndarray, member: int) -> float:
    """Eq. (10) for a single member."""
    dist = enmax_distribution(ensemble)
    if not 0 <= member < dist.shape[0]:
        raise IndexError(
            f"member {member} out of range 0..{dist.shape[0] - 1}"
        )
    return float(dist[member])


def enmax_ratio_test(
    e_nmax: float,
    distribution: np.ndarray,
    limit: float = ENMAX_RATIO_LIMIT,
) -> tuple[bool, bool]:
    """The two E_nmax acceptance criteria of Section 4.3.

    Returns ``(within_range, small_ratio)``:

    - at minimum, ``e_nmax`` (original vs reconstructed, eq. 2) "must
      certainly be smaller than the range between the maximum and minimum
      values" of the E_nmax distribution;
    - eq. (11): ``e_nmax / R_{E_nmax} <= 1/10``.
    """
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.size < 2:
        raise ValueError("distribution needs at least 2 values")
    spread = float(distribution.max() - distribution.min())
    if spread == 0.0:
        raise ZeroDivisionError("degenerate E_nmax distribution (zero range)")
    within = bool(e_nmax <= spread)
    small = bool(e_nmax / spread <= limit)
    return within, small
