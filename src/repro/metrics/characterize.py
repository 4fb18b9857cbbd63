"""Characterizing the original data (paper Section 4.1, Table 2).

"Characterizing the original data is important for gaining insight into
what types of compression schemes will or will not be effective for a
particular variable": min, max, mean, standard deviation, and the lossless
NetCDF-4 compression ratio (eq. 1) — a CR close to one flags variables on
which lossless compression is ineffective.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SPECIAL_THRESHOLD
from repro.metrics.streaming import (
    DataCharacteristics,
    StreamingMoments,
    valid_mask,
)

__all__ = ["DataCharacteristics", "characterize", "valid_mask",
           "SPECIAL_THRESHOLD"]


def characterize(
    data: np.ndarray, with_lossless_cr: bool = True
) -> DataCharacteristics:
    """Compute the paper's Section 4.1 characterization of a dataset.

    The statistics are a one-chunk :class:`StreamingMoments` fold.
    ``with_lossless_cr=True`` also compresses the data with the NetCDF-4
    lossless scheme and records eq. (1)'s CR (the "CR" column of Table 2).
    """
    data = np.asarray(data)
    fold = StreamingMoments()
    fold.update(data)
    stats = fold.finalize()
    if not with_lossless_cr:
        return stats
    from repro.compressors.nczlib import NetCDF4Zlib

    blob = NetCDF4Zlib().compress(data)
    return dataclasses.replace(stats, lossless_cr=len(blob) / data.nbytes)
