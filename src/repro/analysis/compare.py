"""One-call original-vs-reconstructed diagnostics.

:func:`compare` bundles every Section 4 metric plus the Section 6
extensions into a single report — the "did compression change my
analysis?" answer a scientist wants before adopting a codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RHO_THRESHOLD
from repro.grid.cubed_sphere import CubedSphereGrid
from repro.metrics.average import signal_to_residual_ratio
from repro.metrics.streaming import StreamingError
from repro.analysis.climatology import zonal_mean

__all__ = ["ComparisonReport", "compare"]


@dataclass(frozen=True)
class ComparisonReport:
    """Every comparison metric between an original field and its
    reconstruction, plus analysis-level deltas."""

    variable: str
    max_error: float
    e_nmax: float
    rmse: float
    nrmse: float
    psnr_db: float
    srr_db: float
    rho: float
    global_mean_shift: float | None
    max_zonal_mean_shift: float | None
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def passes_correlation(self) -> bool:
        """Whether rho clears the paper's 0.99999 acceptance bar."""
        return self.rho >= RHO_THRESHOLD

    def as_rows(self) -> list[list]:
        """Rows for :func:`repro.harness.report.render_table`."""
        rows = [
            ["max pointwise error", self.max_error],
            ["e_nmax (eq. 2)", self.e_nmax],
            ["RMSE (eq. 3)", self.rmse],
            ["NRMSE (eq. 4)", self.nrmse],
            ["PSNR (dB)", self.psnr_db],
            ["SRR (dB)", self.srr_db],
            ["Pearson rho (eq. 5)", self.rho],
        ]
        if self.global_mean_shift is not None:
            rows.append(["global-mean shift (sigmas)",
                         self.global_mean_shift])
        if self.max_zonal_mean_shift is not None:
            rows.append(["max zonal-mean shift", self.max_zonal_mean_shift])
        return rows


def compare(
    original: np.ndarray,
    reconstructed: np.ndarray,
    grid: CubedSphereGrid | None = None,
    variable: str = "?",
    n_bands: int = 24,
) -> ComparisonReport:
    """Compute the full diagnostic bundle.

    With a ``grid``, analysis-level diagnostics (global mean, zonal means)
    are included; without one, only pointwise/statistical metrics.
    """
    original = np.asarray(original)
    reconstructed = np.asarray(reconstructed)
    fold = StreamingError()
    fold.update(original, reconstructed)
    errors = fold.finalize()
    gshift = None
    zshift = None
    detail: dict = {"characteristics": fold.original.finalize()}
    if grid is not None:
        from repro.pvt.budget import global_mean_shift

        gshift = global_mean_shift(grid, original, reconstructed)
        zm_orig = zonal_mean(grid, original.astype(np.float64), n_bands)
        zm_rec = zonal_mean(grid, reconstructed.astype(np.float64), n_bands)
        both = np.isfinite(zm_orig) & np.isfinite(zm_rec)
        zshift = (
            float(np.abs(zm_orig - zm_rec)[both].max()) if both.any()
            else 0.0
        )
        detail["zonal_mean_original"] = zm_orig
        detail["zonal_mean_reconstructed"] = zm_rec

    return ComparisonReport(
        variable=variable,
        max_error=errors.e_max,
        e_nmax=errors.e_nmax,
        rmse=errors.rmse,
        nrmse=errors.nrmse,
        psnr_db=errors.psnr,
        srr_db=signal_to_residual_ratio(original, reconstructed),
        rho=errors.pearson,
        global_mean_shift=gshift,
        max_zonal_mean_shift=zshift,
        detail=detail,
    )
