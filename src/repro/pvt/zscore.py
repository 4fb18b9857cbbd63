"""Z-scores and RMSZ against leave-one-out sub-ensembles (eqs. 6-7).

For each ensemble member ``m``, every grid point is standardized against
the mean and standard deviation of the *sub-ensemble* ``E \\ m`` (the other
100 members), and the member is summarized by the root-mean-square of its
Z-scores (eq. 7).  Applying this to all members yields the RMSZ
*distribution* that reconstructed data must fall within; eq. (8)
additionally requires the reconstructed member's RMSZ to sit within 1/10
of its original's.

Leave-one-out statistics are computed for all members at once from the
ensemble sums (O(M N), no per-member re-reduction).
"""

from __future__ import annotations

import numpy as np

from repro.check.hooks import boundary
from repro.config import RMSZ_DIFF_LIMIT
from repro.metrics.characterize import valid_mask

__all__ = ["EnsembleStats", "rmsz_distribution", "rmsz_closeness_test",
           "rmsz_within_distribution"]


class EnsembleStats:
    """Precomputed sufficient statistics of one variable's ensemble.

    Parameters
    ----------
    ensemble:
        ``(n_members, ...)`` array; trailing axes are flattened into one
        grid-point axis.  Points that are special values in *any* member
        are excluded from all statistics (fill masks are fixed per
        variable, so in practice a point is either valid in all members or
        none).
    ddof:
        Delta degrees of freedom of the sub-ensemble standard deviation
        (1 = sample std over the 100 remaining members).
    """

    def __init__(self, ensemble: np.ndarray, ddof: int = 1):
        ensemble = np.asarray(ensemble, dtype=np.float64)
        if ensemble.ndim < 2:
            raise ValueError("ensemble must be (n_members, ...)")
        m = ensemble.shape[0]
        if m < 3:
            raise ValueError(f"need at least 3 members, got {m}")
        if ddof not in (0, 1):
            raise ValueError(f"ddof must be 0 or 1, got {ddof}")
        flat = ensemble.reshape(m, -1)
        self.valid = valid_mask(flat).all(axis=0)
        if not self.valid.any():
            raise ValueError("no grid point is valid in every member")
        # Skip the fancy-index copy in the common all-valid case.
        kept = flat if self.valid.all() else flat[:, self.valid]
        # Center per grid point before forming sums of squares: the raw
        # sum-of-squares formula cancels catastrophically when the
        # ensemble spread is tiny relative to the field magnitude (Z3:
        # values ~4e4, spread ~1).  Leave-one-out statistics are shift-
        # invariant, so only the stored offset changes.
        self._center = kept.mean(axis=0)
        self._data = kept - self._center
        self.n_members = m
        self.ddof = ddof
        self._s1 = self._data.sum(axis=0)
        self._s2 = (self._data**2).sum(axis=0)
        # Spreads below ~1e-7 of the field magnitude are beneath float32
        # input resolution AND beneath the one-pass formula's own rounding
        # floor: clamp them to exactly zero so such points are skipped by
        # the Z-scores instead of producing huge spurious values.
        self._std_floor = 1e-7 * (
            np.abs(self._center) + np.abs(self._data).max(axis=0)
        )

    @property
    def n_points(self) -> int:
        """Valid grid points per member."""
        return self._data.shape[1]

    def member_values(self, member: int) -> np.ndarray:
        """Member ``m``'s valid-point values (flattened)."""
        self._check_member(member)
        return self._data[member] + self._center

    def _check_member(self, member: int) -> None:
        if not 0 <= member < self.n_members:
            raise IndexError(
                f"member {member} out of range 0..{self.n_members - 1}"
            )

    def loo_mean_std(self, member: int) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 6's x-bar and sigma over the sub-ensemble E \\ member."""
        self._check_member(member)
        n = self.n_members - 1
        s1 = self._s1 - self._data[member]
        s2 = self._s2 - self._data[member] ** 2
        mean = s1 / n
        var = (s2 - n * mean**2) / (n - self.ddof)
        # Floating-point cancellation can leave tiny negatives.
        std = np.sqrt(np.maximum(var, 0.0))
        std = np.where(std <= self._std_floor, 0.0, std)
        return mean + self._center, std

    @boundary("zscores")
    def zscores(self, values: np.ndarray, exclude_member: int) -> np.ndarray:
        """Eq. (6): Z-scores of ``values`` against E \\ exclude_member.

        ``values`` may be the member's own field or a reconstruction of it
        (same shape as the original field, special values in the same
        places).  Points whose sub-ensemble std is zero are returned NaN
        and skipped by :meth:`rmsz`.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != self.valid.shape[0]:
            raise ValueError(
                f"field has {values.shape[0]} points, ensemble has "
                f"{self.valid.shape[0]}"
            )
        mean, std = self.loo_mean_std(exclude_member)
        v = values[self.valid]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v - mean) / std
        z[std == 0.0] = np.nan
        return z

    def rmsz(self, values: np.ndarray, exclude_member: int) -> float:
        """Eq. (7): RMSZ of ``values`` against E \\ exclude_member."""
        z = self.zscores(values, exclude_member)
        ok = np.isfinite(z)
        if not ok.any():
            raise ValueError("every grid point has zero sub-ensemble spread")
        return float(np.sqrt(np.mean(z[ok] ** 2)))

    def member_rmsz(self, member: int) -> float:
        """RMSZ of member ``m``'s own (original) field."""
        self._check_member(member)
        full = np.empty(self.valid.shape[0])
        full[self.valid] = self.member_values(member)
        # Invalid points never enter rmsz(); fill with a neutral value.
        full[~self.valid] = 0.0
        return self.rmsz(full, member)

    @boundary("distribution")
    def distribution(self) -> np.ndarray:
        """RMSZ of every member against its own sub-ensemble (eq. 7 for
        all m) — the natural-variability distribution of Figure 2.

        Vectorized over members: the leave-one-out mean and variance for
        every member come from the shared ensemble sums in two array
        expressions, instead of one reduction pass per member.
        """
        n = self.n_members - 1
        mean = (self._s1[None, :] - self._data) / n  # (M, N), centered
        var = (
            (self._s2[None, :] - self._data**2) - n * mean**2
        ) / (n - self.ddof)
        std = np.sqrt(np.maximum(var, 0.0))
        std = np.where(std <= self._std_floor[None, :], 0.0, std)
        with np.errstate(divide="ignore", invalid="ignore"):
            z2 = ((self._data - mean) / std) ** 2
        ok = std > 0.0
        counts = ok.sum(axis=1)
        if np.any(counts == 0):
            raise ValueError("a member has zero sub-ensemble spread "
                             "at every grid point")
        z2 = np.where(ok, z2, 0.0)
        return np.sqrt(z2.sum(axis=1) / counts)


def rmsz_distribution(ensemble: np.ndarray, ddof: int = 1) -> np.ndarray:
    """Convenience wrapper: the (n_members,) RMSZ distribution."""
    return EnsembleStats(ensemble, ddof=ddof).distribution()


def rmsz_closeness_test(
    rmsz_original: float,
    rmsz_reconstructed: float,
    distribution: np.ndarray,
    limit: float = RMSZ_DIFF_LIMIT,
) -> tuple[bool, bool]:
    """The two RMSZ acceptance criteria of Section 4.3.

    Returns ``(within_distribution, close_to_original)``:

    - the reconstructed RMSZ "must at minimum fall within the distribution
      of the RMSZ values from the ensemble E";
    - eq. (8): |RMSZ_X - RMSZ_X~| <= 1/10.
    """
    if np.size(distribution) < 2:
        raise ValueError("distribution needs at least 2 ensemble RMSZ values")
    within = rmsz_within_distribution(rmsz_reconstructed, distribution)
    close = bool(abs(rmsz_original - rmsz_reconstructed) <= limit)
    return within, close


def rmsz_within_distribution(score: float, distribution: np.ndarray) -> bool:
    """Whether an RMSZ score falls within the ensemble's RMSZ range.

    The edge tolerance absorbs floating-point path differences between
    the vectorized distribution and a single-member RMSZ computation: a
    member AT the distribution edge must not fail by 1 ulp.
    """
    distribution = np.asarray(distribution, dtype=np.float64)
    tol = 1e-9 * (1.0 + float(np.abs(distribution).max()))
    return bool(distribution.min() - tol <= score
                <= distribution.max() + tol)
