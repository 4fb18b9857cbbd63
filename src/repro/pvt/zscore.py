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

Eq. (7) against per-point ``(mean, std, valid)`` statistics is written
once, as the fold :class:`StreamingRMSZ`: :meth:`EnsembleStats.rmsz`
is its one-chunk case fed a member's leave-one-out statistics, and
:class:`repro.pvt.summary.VariableSummary` folds new runs against its
stored ones.  Every Z-score it uses passes the ``zscores`` sanitizer
boundary, ``_standardize``.  A test member's leave-one-out pair is built
once per context, when its own RMSZ is first asked for, and every codec
screened on it is scored against that pair; a member scored without
that (the all-member distribution test) leaves nothing behind.

:class:`EnsembleStats` builds a variable's whole PVT context -- the
ensemble sums, the RMSZ distribution and the E_nmax distribution of
:mod:`repro.pvt.enmax` -- in one sweep over column tiles of about a
thousand grid points.  Each tile is converted to float64 once; every
temporary is tile-sized, and the only full-size array is one buffer of
squared Z-scores.  The context keeps a reference to its input instead of
a float64 copy: a member's centered row, which its own Z-scores need, is
recomputed on demand by the sweep's own subtraction.
A cheap first pass over the same tiles finds the valid points, so the
memory layout is fixed before any sum starts.

The results equal, bit for bit, the un-tiled formulas over the whole
``(members, points)`` float64 array that the tests keep as their oracle;
what has to match is the summation order.  With every point valid, those
formulas sum members in order and each member's squared Z-scores
pairwise along its contiguous row.  With fill values masked out, they
work on a fancy-index copy of the valid columns: its contiguous columns
sum members pairwise and its strided rows sum points in order.  The sweep
keeps the matching layout on each path (column-major tiles and squared
Z-score buffer when masked), and sums the squared Z-scores over whole
rows once every tile is in.
"""

from __future__ import annotations

import numpy as np

from repro.check.hooks import boundary
from repro.config import RMSZ_DIFF_LIMIT
from repro.metrics.characterize import valid_mask
from repro.metrics.streaming import NO_VALID

__all__ = ["EnsembleStats", "StreamingRMSZ", "ZeroSpreadError",
           "rmsz_distribution", "rmsz_closeness_test",
           "rmsz_within_distribution"]

# Grid points per tile of the context sweep: a 101-member float64 tile is
# 0.8 MB, so the sweep's temporaries stay near the per-core cache.
_TILE = 1024


class ZeroSpreadError(ValueError):
    """A member's RMSZ is undefined: no point has sub-ensemble spread."""


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

    The context references ``ensemble`` rather than copying it, so the
    array must not be written to while the context is in use.
    """

    def __init__(self, ensemble: np.ndarray, ddof: int = 1):
        ensemble = np.asarray(ensemble)
        if ensemble.ndim < 2:
            raise ValueError("ensemble must be (n_members, ...)")
        m = ensemble.shape[0]
        if m < 3:
            raise ValueError(f"need at least 3 members, got {m}")
        if ddof not in (0, 1):
            raise ValueError(f"ddof must be 0 or 1, got {ddof}")
        self.n_members = m
        self.ddof = ddof
        self._member_rmsz: dict[int, float] = {}
        # Leave-one-out pairs of the members whose own score was asked
        # for: the test members every codec is screened on.
        self._test_loo: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._flat = ensemble.reshape(m, -1)
        self._sweep(self._flat)

    def _sweep(self, flat: np.ndarray) -> None:
        """Find the valid points, then build every statistic in one pass
        over column tiles."""
        m, n = flat.shape
        tiles = [slice(a, a + _TILE) for a in range(0, n, _TILE)]
        # A point is valid when its largest magnitude over the members is.
        self.valid = valid = np.zeros(n, dtype=bool)
        for t in tiles:
            valid[t] = valid_mask(
                np.abs(flat[:, t]).max(axis=0).astype(np.float64)
            )
        nv = int(np.count_nonzero(valid))
        if nv == 0:
            raise ValueError("no grid point is valid in every member")
        masked = nv < n
        # Column-major on the masked path: the summation orders of a
        # fancy-index copy (see the module docstring).
        order = "F" if masked else "C"
        sub = m - 1  # sub-ensemble size
        z2 = np.empty((m, nv), order=order)
        center, s1, s2, floor = (np.empty(nv) for _ in range(4))
        counts = np.zeros(m, dtype=np.intp)
        deviation = np.zeros(m)
        top = np.full(m, -np.inf)
        bottom = np.full(m, np.inf)
        kept = 0
        for t in tiles:
            x = flat[:, t][:, valid[t]] if masked else flat[:, t]
            if not x.shape[1]:
                continue
            x = x.astype(np.float64, order=order)
            cols = slice(kept, kept + x.shape[1])
            kept = cols.stop

            # E_nmax (eq. 10): a member's largest distance to any other
            # member is its distance to the ensemble max or min.  Leaving
            # the member out changes nothing: a holder of the max is 0
            # from it and at least as far from the min as from the
            # runner-up, and rounding keeps that order.
            hi = x.max(axis=0)
            lo = x.min(axis=0)
            far = np.subtract(hi, x)
            np.maximum(far, np.subtract(x, lo), out=far)
            np.maximum(deviation, far.max(axis=1), out=deviation)
            np.maximum(top, x.max(axis=1), out=top)
            np.minimum(bottom, x.min(axis=1), out=bottom)

            # Center per grid point before forming sums of squares: the
            # raw sum-of-squares formula cancels catastrophically when the
            # ensemble spread is tiny relative to the field magnitude (Z3:
            # values ~4e4, spread ~1).  Leave-one-out statistics are
            # shift-invariant, so only the stored offset changes.
            c = x.mean(axis=0)
            d = np.subtract(x, c, out=x)
            sq = np.square(d)
            center[cols] = c
            s1[cols] = d.sum(axis=0)
            s2[cols] = sq.sum(axis=0)
            # Spreads below ~1e-7 of the field magnitude are beneath
            # float32 input resolution AND beneath the one-pass formula's
            # own rounding floor: clamp them to exactly zero so such
            # points are skipped by the Z-scores instead of producing huge
            # spurious values.
            floor[cols] = 1e-7 * (np.abs(c) + np.abs(d).max(axis=0))

            # Eq. (7) for every member: leave-one-out mean and std from
            # the shared sums, then the member's squared Z-scores.
            mean = np.subtract(s1[cols], d)
            mean /= sub
            std = np.subtract(s2[cols], sq)
            np.square(mean, out=sq)
            sq *= sub
            std -= sq
            std /= sub - self.ddof
            np.maximum(std, 0.0, out=std)  # cancellation leaves tiny negatives
            np.sqrt(std, out=std)
            np.copyto(std, 0.0, where=std <= floor[cols])
            spread = std > 0.0
            counts += np.count_nonzero(spread, axis=1)
            z = np.subtract(d, mean, out=mean)
            with np.errstate(divide="ignore", invalid="ignore"):
                z /= std
            np.square(z, out=z)
            z2[:, cols] = np.where(spread, z, 0.0)

        self._z2_sum = z2.sum(axis=1)
        self._counts = counts
        self._center = center
        self._s1 = s1
        self._s2 = s2
        self._std_floor = floor
        self._deviation = deviation
        self._range = top - bottom

    @property
    def n_points(self) -> int:
        """Valid grid points per member."""
        return self._center.shape[0]

    def _centered(self, member: int) -> np.ndarray:
        """Member ``m``'s valid points minus the per-point center: the
        sweep's own subtraction, recomputed from the referenced input."""
        self._check_member(member)
        row = self._flat[member][self.valid].astype(np.float64, copy=False)
        return np.subtract(row, self._center, out=row)

    def _check_member(self, member: int) -> None:
        if not 0 <= member < self.n_members:
            raise IndexError(
                f"member {member} out of range 0..{self.n_members - 1}"
            )

    def loo_mean_std(self, member: int) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 6's x-bar and sigma over the sub-ensemble E \\ member.

        A test member's pair -- one whose :meth:`member_rmsz` was asked
        for -- is built once and shared, read-only, by every codec
        screened on it; any other member's is rebuilt per call and kept
        by no one.
        """
        known = self._test_loo.get(member)
        if known is not None:
            return known
        return self._loo_from_centered(self._centered(member))

    def _loo_from_centered(
        self, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The leave-one-out pair of the member whose centered row is
        ``d``."""
        n = self.n_members - 1
        s1 = self._s1 - d
        s2 = self._s2 - d**2
        mean = s1 / n
        var = (s2 - n * mean**2) / (n - self.ddof)
        # Floating-point cancellation can leave tiny negatives.
        std = np.sqrt(np.maximum(var, 0.0))
        std = np.where(std <= self._std_floor, 0.0, std)
        return mean + self._center, std

    def _flat_field(self, values: np.ndarray) -> np.ndarray:
        """``values`` as one float64 row over all grid points."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != self.valid.shape[0]:
            raise ValueError(
                f"field has {values.shape[0]} points, ensemble has "
                f"{self.valid.shape[0]}"
            )
        return values

    def rmsz(self, values: np.ndarray, exclude_member: int) -> float:
        """Eq. (7): RMSZ of ``values`` against E \\ exclude_member, the
        one-chunk case of :class:`StreamingRMSZ`."""
        fold = StreamingRMSZ(*self.loo_mean_std(exclude_member), self.valid)
        fold.update(self._flat_field(values))
        return fold.finalize()

    def member_rmsz(self, member: int) -> float:
        """RMSZ of member ``m``'s own (original) field.

        It does not depend on any codec, so each member's score is
        computed by :meth:`rmsz` once and remembered, and so is its
        leave-one-out pair, which every reconstruction of the member is
        scored against (:meth:`loo_mean_std`).
        """
        self._check_member(member)
        score = self._member_rmsz.get(member)
        if score is None:
            d = self._centered(member)
            mean, std = self._loo_from_centered(d)
            mean.flags.writeable = std.flags.writeable = False
            self._test_loo[member] = mean, std
            # Invalid points never enter rmsz(); fill with a neutral value.
            full = np.zeros(self.valid.shape[0])
            full[self.valid] = d + self._center
            score = self._member_rmsz[member] = self.rmsz(full, member)
        return score

    @boundary("distribution")
    def distribution(self) -> np.ndarray:
        """RMSZ of every member against its own sub-ensemble (eq. 7 for
        all m) — the natural-variability distribution of Figure 2.

        The squared Z-scores were summed by the context sweep; this only
        takes each member's root mean over its points with nonzero
        sub-ensemble spread.
        """
        if np.any(self._counts == 0):
            raise ZeroSpreadError("a member has zero sub-ensemble spread "
                                  "at every grid point")
        return np.sqrt(self._z2_sum / self._counts)

    @boundary("enmax")
    def enmax_distribution(self) -> np.ndarray:
        """Eq. (10) for every member: the (n_members,) E_nmax
        distribution, from the extremes the context sweep reduced."""
        constant = np.flatnonzero(self._range == 0.0)
        if constant.size:
            raise ZeroDivisionError(
                f"member {constant[0]} has a constant field"
            )
        return self._deviation / self._range


@boundary("zscores")
def _standardize(values: np.ndarray, mean: np.ndarray,
                std: np.ndarray) -> np.ndarray:
    """Eq. (6) at valid points: ``(values - mean) / std``, NaN where the
    spread is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (values - mean) / std
    z[std == 0.0] = np.nan
    return z


class StreamingRMSZ:
    """Eq. (7) RMSZ against per-point ``(mean, std, valid)`` statistics,
    as a fold.

    ``mean``/``std`` are indexed over the valid points, ``valid`` is the
    mask over the whole flattened field: a leave-one-out pair from
    :meth:`EnsembleStats.loo_mean_std`, or a
    :class:`repro.pvt.summary.VariableSummary`'s arrays.  Chunks must
    arrive *in order*: the fold advances a cursor over the flattened
    field, standardizing each chunk against its slice of the statistics.
    Points with zero spread are skipped; any other point counts, so a
    non-finite value at a valid point makes the score non-finite.
    ``finalize`` checks the stream covered the whole field, then returns
    the score.
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray,
                 valid: np.ndarray) -> None:
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(std, dtype=np.float64).reshape(-1)
        self.valid = np.asarray(valid, dtype=bool).reshape(-1)
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"mean has {self.mean.size} points, std has {self.std.size}"
            )
        if int(self.valid.sum()) != self.mean.size:
            raise ValueError(
                f"valid mask selects {int(self.valid.sum())} points, "
                f"statistics cover {self.mean.size}"
            )
        self._pos = 0    # cursor over the flattened full field
        self._vpos = 0   # cursor over the valid-compressed statistics
        self._z2 = 0.0
        self._n = 0
        self._sum_valid = 0.0

    def update(self, chunk: np.ndarray) -> None:
        """Fold the next in-order chunk of the (flattened) field."""
        flat = np.asarray(chunk, dtype=np.float64).reshape(-1)
        stop = self._pos + flat.size
        if stop > self.valid.size:
            raise ValueError(
                f"stream is longer than the field: {stop} > "
                f"{self.valid.size} points"
            )
        values = flat[self.valid[self._pos:stop]]
        self._pos = stop
        points = slice(self._vpos, self._vpos + values.size)
        self._vpos = points.stop
        if values.size == 0:
            return
        self._sum_valid += float(values.sum())
        std = self.std[points]
        z = _standardize(values, self.mean[points], std)
        spread = std > 0.0
        self._z2 += float(np.square(z[spread]).sum())
        self._n += int(np.count_nonzero(spread))

    @property
    def mean_valid(self) -> float:
        """Mean of the valid points seen so far (the PVT mean test)."""
        if self._vpos == 0:
            raise ValueError(NO_VALID)
        return self._sum_valid / self._vpos

    def finalize(self) -> float:
        """The RMSZ score; requires the stream to have covered the field."""
        if self._pos != self.valid.size:
            raise ValueError(
                f"stream covered {self._pos} of {self.valid.size} points"
            )
        if self._n == 0:
            raise ZeroSpreadError("every grid point has zero spread")
        return float(np.sqrt(self._z2 / self._n))


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
