"""Codec test fixtures shared across modules."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.model.ensemble import CAMEnsemble


@pytest.fixture(scope="session")
def catalog_fields() -> dict[str, np.ndarray]:
    """One member of all 170 catalog variables on the test grid."""
    config = ReproConfig(ne=3, nlev=5, n_members=3, n_2d=83, n_3d=87)
    fields = CAMEnsemble(config).history_snapshot(0)
    assert len(fields) == 170
    return fields
