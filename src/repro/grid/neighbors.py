"""Horizontal adjacency for cubed-sphere grid points.

Some compressors (delta/Lorenzo prediction over space, cf. the "Climate
Compression" method of Bicer et al. discussed in Section 2.2) and the
field-gradient verification metric need to know which grid points are
spatial neighbours.  On the unstructured point list this is a k-nearest-
neighbour graph, exposed as a dense ``(ncol, k)`` index array for
vectorized numerics.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cubed_sphere import CubedSphereGrid

__all__ = ["neighbor_index_array", "great_circle_distances"]


def neighbor_index_array(grid: CubedSphereGrid, k: int = 4) -> np.ndarray:
    """Indices of the ``k`` nearest neighbours of each grid point.

    Returns an ``(ncol, k)`` int array; row ``i`` lists the nearest other
    points to point ``i``, closest first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= grid.ncol:
        raise ValueError(f"k={k} must be smaller than ncol={grid.ncol}")
    from scipy.spatial import cKDTree

    xyz = grid.xyz
    tree = cKDTree(xyz)
    _, idx = tree.query(xyz, k=k + 1)
    # Column 0 is the point itself.
    return idx[:, 1:]


def great_circle_distances(grid: CubedSphereGrid,
                           neighbors: np.ndarray) -> np.ndarray:
    """Great-circle distances (radians) from each point to given neighbours.

    ``neighbors`` is an ``(ncol, k)`` index array as produced by
    :func:`neighbor_index_array`.
    """
    xyz = grid.xyz
    chord = np.linalg.norm(xyz[:, None, :] - xyz[neighbors], axis=-1)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
