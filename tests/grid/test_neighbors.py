"""k-nearest-neighbour adjacency on the grid."""

import numpy as np
import pytest

from repro.grid.neighbors import great_circle_distances, neighbor_index_array


class TestNeighborIndex:
    def test_shape(self, grid):
        idx = neighbor_index_array(grid, k=4)
        assert idx.shape == (grid.ncol, 4)

    def test_no_self_neighbors(self, grid):
        idx = neighbor_index_array(grid, k=4)
        assert (idx != np.arange(grid.ncol)[:, None]).all()

    def test_neighbors_are_close(self, grid):
        idx = neighbor_index_array(grid, k=4)
        dist = great_circle_distances(grid, idx)
        # Typical spacing on ne=3 is ~ sqrt(4pi/ncol) ~ 0.16 rad.
        assert dist.max() < 0.5

    def test_sorted_by_distance(self, grid):
        idx = neighbor_index_array(grid, k=5)
        dist = great_circle_distances(grid, idx)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_invalid_k(self, grid):
        with pytest.raises(ValueError):
            neighbor_index_array(grid, k=0)
        with pytest.raises(ValueError):
            neighbor_index_array(grid, k=grid.ncol)


class TestGreatCircle:
    def test_antipodal_distance(self, grid):
        # Distance from a point to itself is zero.
        idx = np.arange(grid.ncol)[:, None]
        dist = great_circle_distances(grid, idx)
        np.testing.assert_allclose(dist, 0.0, atol=1e-12)
