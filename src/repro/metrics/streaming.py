"""Mergeable folds — the one implementation of the Section 4.1-4.2 metrics.

A fold consumes data chunk by chunk (``update``) and folds in partials
computed elsewhere, e.g. by worker processes (``merge``), with the
parallel update of Chan, Golub & LeVeque: algebraically exact, and free
of the catastrophic cancellation of naive sum-of-squares accumulation.

The batch metrics of this package are the one-chunk case: ``characterize``,
``pearson``, ``rmse``/``nrmse``/``psnr`` and ``max_pointwise_error``/
``normalized_max_error`` fold the whole array in one ``update`` and read
the answer, so a batch metric and a one-chunk fold are the same float,
bit for bit.  An empty fold takes its first partial verbatim, so the
merge arithmetic only runs from the second chunk on; a fold over many
chunks differs from the one-chunk value by float rounding alone.

Every fold excludes CESM special values (|x| >= 1e34), masked on the
original side, per Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SPECIAL_THRESHOLD

__all__ = [
    "NO_VALID",
    "DataCharacteristics",
    "ErrorSummary",
    "StreamingError",
    "StreamingMoments",
    "valid_mask",
    "valid_pair",
]

NO_VALID = "dataset contains no valid (non-special) values"


def valid_mask(data: np.ndarray) -> np.ndarray:
    """Boolean mask of points that are *not* special values.

    CESM marks undefined points (e.g. sea-surface temperature over land)
    with 1e35; the paper excludes them from every metric.
    """
    data = np.asarray(data)
    return np.isfinite(data) & (np.abs(data) < SPECIAL_THRESHOLD)


def valid_pair(original: np.ndarray,
               reconstructed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides at the original's valid points, as float64 vectors.

    The shape check and special-value mask of every paired metric.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {reconstructed.shape}"
        )
    mask = valid_mask(original)
    return original[mask], reconstructed[mask]


def _partial(values: np.ndarray) -> tuple[tuple, np.ndarray]:
    """One chunk's ``(n, mean, m2, min, max)`` and its deviations.

    ``values`` is a non-empty float64 vector; the deviations from its
    mean are returned for the co-moment.
    """
    mean = float(values.mean())
    dev = values - mean
    stats = (values.size, mean, float((dev * dev).sum()),
             float(values.min()), float(values.max()))
    return stats, dev


@dataclass(frozen=True)
class DataCharacteristics:
    """Table 2 row: per-variable summary of the original dataset."""

    x_min: float
    x_max: float
    mean: float
    std: float
    n_valid: int
    n_special: int
    lossless_cr: float | None = None

    @property
    def value_range(self) -> float:
        """R_X = x_max - x_min (the normalizer in eqs. 2 and 4)."""
        return self.x_max - self.x_min


class _Fold:
    """Folds compare by value, NaN equal to NaN, so a fold replayed over
    the same chunks equals the first (the sanitizer's replay check)."""

    __slots__ = ()
    __hash__ = None  # mutable: folds are values to compare, not keys

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, k), getattr(other, k)) for k in self.__slots__)
        return all(a == b or (a != a and b != b) for a, b in pairs)


class StreamingMoments(_Fold):
    """Section 4.1 characterization (a Table 2 row) as a fold.

    Count, mean, population variance (``ddof=0``), min and max of the
    valid points, plus the number of special values.  Chunks with no
    valid points are fine mid-stream; only an entirely-special dataset
    errors, and only at ``finalize``.
    """

    __slots__ = ("n", "mean", "m2", "minimum", "maximum", "n_special")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.n_special = 0

    def update(self, chunk: np.ndarray) -> None:
        """Fold one chunk of original data."""
        chunk = np.asarray(chunk, dtype=np.float64)
        values = chunk[valid_mask(chunk)]
        self.n_special += chunk.size - values.size
        if values.size:
            self._combine(*_partial(values)[0])

    def merge(self, other: "StreamingMoments") -> None:
        """Fold a partial computed over other chunks of the same data."""
        if other.n:
            self._combine(other.n, other.mean, other.m2,
                          other.minimum, other.maximum)
        self.n_special += other.n_special

    def _combine(self, n_b: int, mean_b: float, m2_b: float,
                 min_b: float, max_b: float) -> None:
        if self.n == 0:
            self.n, self.mean, self.m2 = n_b, mean_b, m2_b
            self.minimum, self.maximum = min_b, max_b
            return
        n = self.n + n_b
        delta = mean_b - self.mean
        self.m2 += m2_b + delta * delta * self.n * n_b / n
        self.mean += delta * n_b / n
        self.n = n
        self.minimum = min(self.minimum, min_b)
        self.maximum = max(self.maximum, max_b)

    @property
    def std(self) -> float:
        """Population standard deviation of the folded values."""
        return float(np.sqrt(self.m2 / self.n))

    def finalize(self) -> DataCharacteristics:
        """The characterization of everything folded so far.

        The lossless CR needs the bytes, not the statistics, and is left
        to :func:`repro.metrics.characterize.characterize`.
        """
        if self.n == 0:
            raise ValueError(NO_VALID)
        return DataCharacteristics(
            x_min=self.minimum,
            x_max=self.maximum,
            mean=self.mean,
            std=self.std,
            n_valid=self.n,
            n_special=self.n_special,
        )


@dataclass(frozen=True)
class ErrorSummary:
    """Every Section 4.2 metric of one original/reconstruction pair.

    Holds a finalized :class:`StreamingError`'s sufficient statistics and
    derives the metrics from them, with the two degenerate-case rules:

    - an exact reconstruction has rho = 1, even of a constant field where
      the covariance formula is 0/0; otherwise a constant side gives 0;
    - a constant original (R_X = 0) has NRMSE and e_nmax 0.0 when
      reconstructed exactly and raises :class:`ZeroDivisionError`
      otherwise, since no meaningful normalization exists.
    """

    n_valid: int
    mse: float
    e_max: float
    x_min: float
    x_max: float
    cov: float
    std_x: float
    std_y: float

    @classmethod
    def of(cls, original: np.ndarray,
           reconstructed: np.ndarray) -> "ErrorSummary":
        """The one-chunk fold: the metrics of a whole in-memory pair."""
        fold = StreamingError()
        fold.update(original, reconstructed)
        return fold.finalize()

    @property
    def rmse(self) -> float:
        """Eq. (3): sqrt(mean(e_i^2))."""
        return float(np.sqrt(self.mse))

    @property
    def r_x(self) -> float:
        """R_X, the range of the original."""
        return self.x_max - self.x_min

    @property
    def pearson(self) -> float:
        """Eq. (5): rho = cov(X, X~) / (sigma_X sigma_X~)."""
        if self.e_max == 0.0:
            # Exact reconstruction, even where the formula is 0/0.
            return 1.0
        if self.std_x == 0.0 or self.std_y == 0.0:
            # One side constant, the other not: no linear relationship.
            return 0.0
        return float(np.clip(self.cov / (self.std_x * self.std_y),
                             -1.0, 1.0))

    def _normalized(self, err: float) -> float:
        if self.r_x == 0.0:
            if err == 0.0:
                return 0.0
            raise ZeroDivisionError(
                "R_X is zero (constant field) but the reconstruction differs"
            )
        return err / self.r_x

    @property
    def nrmse(self) -> float:
        """Eq. (4): RMSE / R_X."""
        return self._normalized(self.rmse)

    @property
    def e_nmax(self) -> float:
        """Eq. (2): max|e_i| / R_X."""
        return self._normalized(self.e_max)

    @property
    def psnr(self) -> float:
        """Peak signal-to-noise ratio in dB; +inf for exact reconstruction."""
        if self.mse == 0.0:
            return float("inf")
        peak = max(abs(self.x_min), abs(self.x_max))
        if peak == 0.0:
            raise ZeroDivisionError("signal is identically zero")
        return 10.0 * np.log10(peak**2 / self.mse)


class StreamingError(_Fold):
    """Eqs. 2-5 (e_max, RMSE/NRMSE, PSNR, Pearson) as one paired fold.

    ``original`` and ``reconstructed`` are the two sides' moments; the
    original's is the data's characterization.  Both sides are reduced
    over the original's valid points.
    """

    __slots__ = ("original", "reconstructed", "cxy", "sum_e2", "e_max")

    def __init__(self) -> None:
        self.original = StreamingMoments()
        self.reconstructed = StreamingMoments()
        self.cxy = 0.0    # sum((x - mean_x) * (y - mean_y))
        self.sum_e2 = 0.0
        self.e_max = 0.0

    def update(self, original: np.ndarray,
               reconstructed: np.ndarray) -> None:
        """Fold one original chunk and its reconstruction."""
        x, y = valid_pair(original, reconstructed)
        self.original.n_special += np.size(original) - x.size
        if x.size == 0:
            return
        err = x - y
        px, dx = _partial(x)
        py, dy = _partial(y)
        self._fold(px, py, float((dx * dy).sum()),
                   float((err * err).sum()), float(np.abs(err).max()))

    def merge(self, other: "StreamingError") -> None:
        """Fold a partial computed over other chunks of the same pair."""
        a, b = other.original, other.reconstructed
        if a.n:
            self._fold((a.n, a.mean, a.m2, a.minimum, a.maximum),
                       (b.n, b.mean, b.m2, b.minimum, b.maximum),
                       other.cxy, other.sum_e2, other.e_max)
        self.original.n_special += a.n_special

    def _fold(self, px: tuple, py: tuple, c_b: float, e2_b: float,
              e_max_b: float) -> None:
        n_a, n_b = self.original.n, px[0]
        if n_a == 0:
            self.cxy = c_b
        else:
            dx = px[1] - self.original.mean
            dy = py[1] - self.reconstructed.mean
            self.cxy += c_b + dx * dy * n_a * n_b / (n_a + n_b)
        self.original._combine(*px)
        self.reconstructed._combine(*py)
        self.sum_e2 += e2_b
        # np.maximum keeps a NaN error, so a NaN never reads as exact.
        self.e_max = float(np.maximum(self.e_max, e_max_b))

    def finalize(self) -> ErrorSummary:
        """The error metrics of everything folded so far."""
        n = self.original.n
        if n == 0:
            raise ValueError(NO_VALID)
        return ErrorSummary(
            n_valid=n,
            mse=self.sum_e2 / n,
            e_max=self.e_max,
            x_min=self.original.minimum,
            x_max=self.original.maximum,
            cov=self.cxy / n,
            std_x=self.original.std,
            std_y=self.reconstructed.std,
        )
