"""Grid substrate: the CAM-SE cubed-sphere-like horizontal grid and the
hybrid sigma-pressure vertical coordinate.

The paper (Section 5.1) uses the spectral-element version of CAM at
``ne = 30`` resolution, a 1-degree global grid with 48,602 horizontal grid
points and 30 vertical levels.  This package reproduces that grid geometry:
point counts, latitude/longitude coordinates, cell areas, vertical level
coefficients, and the k-nearest-neighbour index used by the gradient
metric.
"""

from repro.grid.cubed_sphere import CubedSphereGrid, ncol_for_ne
from repro.grid.levels import HybridLevels
from repro.grid.neighbors import neighbor_index_array

__all__ = [
    "CubedSphereGrid",
    "ncol_for_ne",
    "HybridLevels",
    "neighbor_index_array",
]
