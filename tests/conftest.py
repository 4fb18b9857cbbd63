"""Shared fixtures: one small ensemble per session, reused everywhere.

Building an ensemble costs a dycore integration (~1 s after the cached
control run), so anything ensemble-shaped is session-scoped.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.compressors.base import Compressor
from repro.config import ReproConfig, test_scale
from repro.grid.cubed_sphere import CubedSphereGrid
from repro.grid.levels import HybridLevels
from repro.model.ensemble import CAMEnsemble
from repro.pvt.tool import CesmPvt


@pytest.fixture(scope="session")
def config() -> ReproConfig:
    return test_scale()


@pytest.fixture(scope="session")
def ensemble(config) -> CAMEnsemble:
    return CAMEnsemble(config)


@pytest.fixture(scope="session")
def pvt(ensemble) -> CesmPvt:
    return CesmPvt(ensemble)


@pytest.fixture(scope="session")
def grid() -> CubedSphereGrid:
    return CubedSphereGrid.create(3)


@pytest.fixture(scope="session")
def levels() -> HybridLevels:
    return HybridLevels.create(10)


@pytest.fixture(scope="session")
def climate_field(ensemble) -> np.ndarray:
    """A realistic 3-D single-member field (U, float32)."""
    return ensemble.member_field("U", 0)


@pytest.fixture(scope="session")
def climate_field_2d(ensemble) -> np.ndarray:
    """A realistic 2-D single-member field (FSDSC, float32)."""
    return ensemble.member_field("FSDSC", 0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def compress_calls(monkeypatch) -> Counter:
    """Count ``Compressor.compress`` calls per codec variant."""
    calls: Counter = Counter()
    real = Compressor.compress

    def counting(self, data):
        calls[self.variant] += 1
        return real(self, data)

    monkeypatch.setattr(Compressor, "compress", counting)
    return calls


@pytest.fixture()
def reconstruct_calls(monkeypatch) -> Counter:
    """Count ``Compressor.reconstruct`` calls per codec variant."""
    calls: Counter = Counter()
    real = Compressor.reconstruct

    def counting(self, data):
        calls[self.variant] += 1
        return real(self, data)

    monkeypatch.setattr(Compressor, "reconstruct", counting)
    return calls
