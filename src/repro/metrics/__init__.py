"""Verification metrics (paper Section 4.1-4.2).

- :mod:`characterize` — min/max/mean/std + lossless CR (Table 2);
- :mod:`pointwise` — maximum pointwise error and its range-normalized form
  ``e_nmax`` (eq. 2);
- :mod:`average` — RMSE, NRMSE (eqs. 3-4), PSNR, and the
  signal-to-residual ratio;
- :mod:`correlation` — Pearson correlation coefficient (eq. 5) with the
  0.99999 acceptance threshold;
- :mod:`streaming` — the one implementation behind the metrics above:
  mergeable folds (:class:`StreamingMoments`, :class:`StreamingError`
  and its :class:`ErrorSummary`) that :mod:`repro.stream` feeds chunk by
  chunk.  Each batch metric is the one-chunk fold, bit for bit;
- :mod:`ssim` — structural similarity on lat/lon projections (the paper's
  Section 6 future-work metric);
- :mod:`gradient` — impact of compression on field gradients (also
  Section 6 future work).

All metrics exclude CESM special values (|x| >= 1e34), per Section 4.3:
"we are careful not to include any special values when calculating our
metrics."
"""

from repro.metrics.characterize import (
    DataCharacteristics,
    characterize,
    valid_mask,
)
from repro.metrics.pointwise import max_pointwise_error, normalized_max_error
from repro.metrics.average import rmse, nrmse, psnr, signal_to_residual_ratio
from repro.metrics.correlation import pearson
from repro.metrics.ssim import ssim
from repro.metrics.gradient import gradient_rmse, gradient_impact
from repro.metrics.streaming import (
    ErrorSummary,
    StreamingError,
    StreamingMoments,
)

__all__ = [
    "DataCharacteristics",
    "ErrorSummary",
    "StreamingError",
    "StreamingMoments",
    "characterize",
    "valid_mask",
    "max_pointwise_error",
    "normalized_max_error",
    "rmse",
    "nrmse",
    "psnr",
    "signal_to_residual_ratio",
    "pearson",
    "ssim",
    "gradient_rmse",
    "gradient_impact",
]
