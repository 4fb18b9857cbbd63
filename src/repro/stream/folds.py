"""The paper's metrics as streaming folds over chunk streams.

:class:`StreamingMoments`, :class:`StreamingError` and
:class:`ErrorSummary` are :mod:`repro.metrics.streaming`'s, re-exported:
they are the one implementation of characterization, e_max, RMSE/NRMSE
and Pearson, and the batch metrics are their one-chunk case, bit for
bit.  Both folds also ``merge`` partials computed elsewhere (worker
processes).  This module adds :class:`StreamingRMSZ`, eq. (7) against
stored per-point ensemble statistics, which is positional and consumes
its chunks in order; :meth:`repro.pvt.summary.VariableSummary.rmsz_of`
is its one-chunk case.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.streaming import (
    NO_VALID,
    ErrorSummary,
    StreamingError,
    StreamingMoments,
)

__all__ = [
    "ErrorSummary",
    "StreamingError",
    "StreamingMoments",
    "StreamingRMSZ",
]


class StreamingRMSZ:
    """Eq. (7) RMSZ against stored per-point statistics, as a fold.

    Built from a PVT summary's per-grid-point ``mean``/``std`` (indexed
    over valid points) and full-length ``valid`` mask — exactly the
    arrays :class:`repro.pvt.summary.VariableSummary` stores.  Chunks
    must arrive *in order*: the fold advances a cursor over the
    flattened field, standardizing each chunk against its slice of the
    statistics.  ``finalize`` checks the stream covered the whole field,
    then returns the score.
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
        self._n_valid = 0

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
        lo = self._vpos
        self._vpos += values.size
        if values.size == 0:
            return
        self._sum_valid += float(values.sum())
        self._n_valid += values.size
        std = self.std[lo:self._vpos]
        ok = std > 0
        if not ok.any():
            return
        z = (values[ok] - self.mean[lo:self._vpos][ok]) / std[ok]
        self._z2 += float((z**2).sum())
        self._n += int(ok.sum())

    @property
    def mean_valid(self) -> float:
        """Mean of the valid points seen so far (the PVT mean test)."""
        if self._n_valid == 0:
            raise ValueError(NO_VALID)
        return self._sum_valid / self._n_valid

    def finalize(self) -> float:
        """The RMSZ score; requires the stream to have covered the field."""
        if self._pos != self.valid.size:
            raise ValueError(
                f"stream covered {self._pos} of {self.valid.size} points"
            )
        if self._n == 0:
            raise ValueError("degenerate summary spread")
        return float(np.sqrt(self._z2 / self._n))
