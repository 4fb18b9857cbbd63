"""Structural similarity index (SSIM) on lat/lon projections.

The paper's future work (Section 6): "we intend to utilize the structural
similarity (SSIM) index, a recent and meaningful metric of image quality,
as it relates to human perception" — because climate scientists visualize
subsets of their data, reconstructed fields must also produce quality
images.  We implement Wang et al.'s SSIM with a uniform local window, plus
a rasterizer that projects the unstructured cubed-sphere points onto a
regular lat/lon image.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cubed_sphere import CubedSphereGrid

__all__ = ["ssim", "rasterize"]


def rasterize(
    grid: CubedSphereGrid,
    field: np.ndarray,
    nlat: int = 64,
    nlon: int = 128,
) -> np.ndarray:
    """Project a horizontal field (ncol,) onto an (nlat, nlon) image.

    Each raster cell averages the grid points it contains; empty cells are
    filled from the nearest non-empty cell along longitude (the grid is
    quasi-uniform, so gaps are rare and small).
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (grid.ncol,):
        raise ValueError(f"expected ({grid.ncol},) field, got {field.shape}")
    if nlat < 2 or nlon < 2:
        raise ValueError("raster must be at least 2x2")
    i = np.clip(((grid.lat + 90.0) / 180.0 * nlat).astype(int), 0, nlat - 1)
    j = np.clip((grid.lon / 360.0 * nlon).astype(int), 0, nlon - 1)
    flat = i * nlon + j
    total = np.bincount(flat, weights=field, minlength=nlat * nlon)
    count = np.bincount(flat, minlength=nlat * nlon)
    img = np.full(nlat * nlon, np.nan)
    hit = count > 0
    img[hit] = total[hit] / count[hit]
    img = img.reshape(nlat, nlon)
    # Fill gaps by propagating along each latitude row.
    for row in img:
        missing = np.isnan(row)
        if missing.all():
            continue
        if missing.any():
            idx = np.flatnonzero(~missing)
            row[missing] = np.interp(
                np.flatnonzero(missing), idx, row[idx], period=img.shape[1]
            )
    # Rows that were entirely empty: copy the nearest filled row.
    for r in range(img.shape[0]):
        if np.isnan(img[r]).all():
            filled = [
                k for k in range(img.shape[0]) if not np.isnan(img[k]).any()
            ]
            if not filled:
                raise ValueError("raster resolution too fine for this grid")
            nearest = min(filled, key=lambda k: abs(k - r))
            img[r] = img[nearest]
    return img


def ssim(
    image_a: np.ndarray,
    image_b: np.ndarray,
    window: int = 7,
    dynamic_range: float | None = None,
) -> float:
    """Mean structural similarity between two images (Wang et al. 2004).

    Uses the standard constants ``C1 = (0.01 L)^2``, ``C2 = (0.03 L)^2``
    with ``L`` the dynamic range (defaults to the range of ``image_a``),
    and a ``window x window`` uniform filter for the local statistics.
    Returns a value in [-1, 1]; 1.0 iff the images are identical.
    """
    # Imported here: scipy.ndimage costs every ``import repro.metrics``
    # a quarter second and only SSIM needs it.
    from scipy.ndimage import uniform_filter

    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("ssim expects two equal-shape 2-D images")
    if window < 2 or window > min(a.shape):
        raise ValueError(f"window {window} invalid for image {a.shape}")
    if dynamic_range is None:
        dynamic_range = float(a.max() - a.min())
    if dynamic_range == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0

    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    mu_a = uniform_filter(a, window)
    mu_b = uniform_filter(b, window)
    var_a = uniform_filter(a * a, window) - mu_a**2
    var_b = uniform_filter(b * b, window) - mu_b**2
    cov = uniform_filter(a * b, window) - mu_a * mu_b
    # Clamp tiny negative variances from floating-point cancellation.
    var_a = np.maximum(var_a, 0.0)
    var_b = np.maximum(var_b, 0.0)
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(np.clip(ssim_map.mean(), -1.0, 1.0))
