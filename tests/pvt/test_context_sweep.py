"""The column-tiled context sweep equals the whole-array formulas bit for bit.

The oracle below is the un-tiled computation: the ensemble converted to
float64 at once, the valid columns taken by one fancy index, and every
statistic formed over the full ``(n_members, n_points)`` array.
"""

import tracemalloc

import numpy as np
import pytest

from repro.check import SanitizerError, sanitized
from repro.config import FILL_VALUE
from repro.metrics.characterize import valid_mask
from repro.pvt import zscore
from repro.pvt.acceptance import VariableContext
from repro.pvt.enmax import enmax_distribution
from repro.pvt.zscore import EnsembleStats, ZeroSpreadError


def oracle(ensemble, ddof=1):
    """Whole-array sums, RMSZ distribution and E_nmax distribution."""
    ensemble = np.asarray(ensemble, dtype=np.float64)
    m = ensemble.shape[0]
    flat = ensemble.reshape(m, -1)
    valid = valid_mask(flat).all(axis=0)
    kept = flat if valid.all() else flat[:, valid]
    center = kept.mean(axis=0)
    data = kept - center
    s1 = data.sum(axis=0)
    s2 = (data**2).sum(axis=0)
    floor = 1e-7 * (np.abs(center) + np.abs(data).max(axis=0))

    n = m - 1
    mean = (s1[None, :] - data) / n
    var = ((s2[None, :] - data**2) - n * mean**2) / (n - ddof)
    std = np.sqrt(np.maximum(var, 0.0))
    std = np.where(std <= floor[None, :], 0.0, std)
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = ((data - mean) / std) ** 2
    ok = std > 0.0
    z2 = np.where(ok, z2, 0.0)
    rmsz = np.sqrt(z2.sum(axis=1) / ok.sum(axis=1))

    # E_nmax from each point's two largest / two smallest values.
    top2_idx = np.argpartition(kept, m - 2, axis=0)[m - 2:]
    top2 = np.take_along_axis(kept, top2_idx, axis=0)
    order = np.argsort(top2, axis=0)
    hi1_idx = np.take_along_axis(top2_idx, order[1:2], axis=0)[0]
    hi1 = np.take_along_axis(top2, order[1:2], axis=0)[0]
    hi2 = np.take_along_axis(top2, order[0:1], axis=0)[0]
    bot2_idx = np.argpartition(kept, 1, axis=0)[:2]
    bot2 = np.take_along_axis(kept, bot2_idx, axis=0)
    order = np.argsort(bot2, axis=0)
    lo1_idx = np.take_along_axis(bot2_idx, order[0:1], axis=0)[0]
    lo1 = np.take_along_axis(bot2, order[0:1], axis=0)[0]
    lo2 = np.take_along_axis(bot2, order[1:2], axis=0)[0]
    enmax = np.empty(m)
    for mem in range(m):
        x = kept[mem]
        loo_hi = np.where(hi1_idx == mem, hi2, hi1)
        loo_lo = np.where(lo1_idx == mem, lo2, lo1)
        deviation = np.maximum(np.abs(x - loo_hi), np.abs(x - loo_lo))
        enmax[mem] = deviation.max() / (x.max() - x.min())

    def member_rmsz(mem):
        sub_mean = (s1 - data[mem]) / n
        sub_var = ((s2 - data[mem] ** 2) - n * sub_mean**2) / (n - ddof)
        sub_std = np.sqrt(np.maximum(sub_var, 0.0))
        sub_std = np.where(sub_std <= floor, 0.0, sub_std)
        v = data[mem] + center
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v - (sub_mean + center)) / sub_std
        z[sub_std == 0.0] = np.nan
        return float(np.sqrt(np.mean(z[np.isfinite(z)] ** 2)))

    return {
        "valid": valid, "center": center, "s1": s1, "s2": s2,
        "floor": floor, "rmsz": rmsz, "enmax": enmax,
        "member_rmsz": member_rmsz,
    }


def assert_parity(ensemble, ddof=1):
    want = oracle(ensemble, ddof)
    stats = EnsembleStats(ensemble, ddof=ddof)
    assert np.array_equal(stats.valid, want["valid"])
    assert np.array_equal(stats._center, want["center"])
    assert np.array_equal(stats._s1, want["s1"])
    assert np.array_equal(stats._s2, want["s2"])
    assert np.array_equal(stats._std_floor, want["floor"])
    assert np.array_equal(stats.distribution(), want["rmsz"])
    assert np.array_equal(stats.enmax_distribution(), want["enmax"])
    assert np.array_equal(enmax_distribution(ensemble), want["enmax"])
    for mem in (0, stats.n_members - 1):
        assert stats.member_rmsz(mem) == want["member_rmsz"](mem)
    return stats


def climate_like(rng, shape, magnitude=3.0e4, spread=1.0):
    """float32 members with a large offset and a small spread (Z3-like)."""
    base = magnitude + 50.0 * np.sin(np.linspace(0.0, 9.0, shape[-1]))
    noise = rng.normal(0.0, spread, (13,) + tuple(shape))
    return (base + noise).astype(np.float32)


@pytest.fixture(autouse=True)
def small_tile(monkeypatch):
    # Several tiles and a ragged last one on test-sized ensembles.
    monkeypatch.setattr(zscore, "_TILE", 64)


class TestParity:
    def test_2d_float32(self, rng):
        assert_parity(climate_like(rng, (1000,)))

    def test_3d_float32(self, rng):
        assert_parity(climate_like(rng, (3, 7, 50)))

    def test_fill_masked(self, rng):
        ens = climate_like(rng, (900,), magnitude=280.0, spread=0.5)
        land = rng.random(900) < 0.35
        ens[:, land] = FILL_VALUE
        stats = assert_parity(ens)
        assert stats.n_points == int((~land).sum())

    def test_fill_masked_ragged_tiles(self, rng):
        ens = rng.normal(5.0, 2.0, (9, 301)).astype(np.float32)
        ens[:, 60:130] = FILL_VALUE
        ens[:, 299] = FILL_VALUE
        assert_parity(ens)

    def test_quantized_ties(self, rng):
        # Coarse quantization: many members share each point's max and min.
        ens = np.round(rng.normal(0.0, 1.0, (11, 500)) * 2.0) / 2.0
        assert_parity(ens.astype(np.float32))

    def test_unique_extremum_holder(self, rng):
        ens = rng.normal(0.0, 1.0, (7, 200))
        ens[3] = ens.max(axis=0) + 5.0
        ens[5] = ens.min(axis=0) - 2.0
        assert_parity(ens)

    def test_fewer_points_than_a_tile(self, rng):
        assert_parity(climate_like(rng, (40,)))

    def test_points_not_a_tile_multiple(self, rng):
        assert_parity(climate_like(rng, (64 * 5 + 17,)))

    def test_float64_input(self, rng):
        assert_parity(rng.normal(1.0e3, 0.3, (12, 400)))

    def test_ddof_zero(self, rng):
        assert_parity(climate_like(rng, (300,)), ddof=0)

    def test_zero_spread_points(self, rng):
        ens = climate_like(rng, (200,))
        ens[:, 10:20] = 7.0
        assert_parity(ens)

    def test_default_tile(self, rng, monkeypatch):
        monkeypatch.setattr(zscore, "_TILE", 1024)
        assert_parity(climate_like(rng, (2500,)))


class TestMemory:
    @pytest.mark.parametrize("masked", [False, True])
    def test_context_holds_no_float64_copy(self, rng, masked):
        ens = climate_like(rng, (2000,))
        if masked:
            ens[:, :300] = FILL_VALUE
        m, n = ens.shape
        tracemalloc.start()
        try:
            stats = EnsembleStats(ens)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        full = [name for name, value in vars(stats).items()
                if isinstance(value, np.ndarray)
                and value.dtype == np.float64 and value.size >= m * n // 2]
        assert full == []
        # Per-point and per-member vectors only: far below one float64
        # copy of the members.
        assert retained < m * n * 8 / 2
        assert stats.member_rmsz(4) == oracle(ens)["member_rmsz"](4)


class TestErrors:
    def test_constant_member_raises_zero_division(self, rng):
        ens = rng.normal(0.0, 1.0, (5, 300))
        ens[2] = 4.0
        stats = EnsembleStats(ens)  # the RMSZ statistics are still fine
        assert stats.distribution().shape == (5,)
        with pytest.raises(ZeroDivisionError, match="member 2"):
            stats.enmax_distribution()
        with pytest.raises(ZeroDivisionError, match="member 2"):
            enmax_distribution(ens)

    def test_no_valid_point(self):
        with pytest.raises(ValueError, match="valid"):
            EnsembleStats(np.full((4, 200), FILL_VALUE))

    def test_zero_spread_everywhere(self):
        ens = np.tile(np.arange(200.0), (5, 1))
        with pytest.raises(ZeroSpreadError, match="zero sub-ensemble spread"):
            EnsembleStats(ens).distribution()
        assert issubclass(ZeroSpreadError, ValueError)

    def test_sanitized_context_trips_distribution_finite(self, rng,
                                                         monkeypatch):
        ens = rng.normal(0.0, 1.0, (6, 300))
        sweep = EnsembleStats._sweep

        def corrupt(self, flat):
            sweep(self, flat)
            self._z2_sum[1] = np.nan

        monkeypatch.setattr(EnsembleStats, "_sweep", corrupt)
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            VariableContext.from_ensemble(ens)
        assert excinfo.value.check == "distribution-finite"

    def test_sanitized_context_guards_enmax(self, rng, monkeypatch):
        ens = rng.normal(0.0, 1.0, (6, 300))
        sweep = EnsembleStats._sweep

        def corrupt(self, flat):
            sweep(self, flat)
            self._deviation[0] = np.inf

        monkeypatch.setattr(EnsembleStats, "_sweep", corrupt)
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            VariableContext.from_ensemble(ens)
        assert excinfo.value.check == "distribution-finite"
        assert "EnsembleStats.enmax_distribution" in str(excinfo.value)


class TestMemberRmsz:
    def test_memoized_per_member(self, rng, monkeypatch):
        stats = EnsembleStats(climate_like(rng, (300,)))
        first = stats.member_rmsz(4)
        calls = []
        rmsz = stats.rmsz
        monkeypatch.setattr(stats, "rmsz",
                            lambda *a: calls.append(a) or rmsz(*a))
        assert stats.member_rmsz(4) is first
        assert not calls
        stats.member_rmsz(5)
        assert len(calls) == 1

    def test_out_of_range_not_cached(self, rng):
        stats = EnsembleStats(climate_like(rng, (100,)))
        with pytest.raises(IndexError):
            stats.member_rmsz(13)


class _Ensemble:
    """The slice of ``CAMEnsemble`` that ``EnsembleSummary`` reads."""

    def __init__(self, fields):
        self.fields = fields
        self.n_members = next(iter(fields.values())).shape[0]

    def ensemble_field(self, name):
        return self.fields[name]


class TestSummary:
    def test_summary_matches_whole_array_formulas(self, rng):
        from repro.pvt.summary import EnsembleSummary

        masked = climate_like(rng, (700,), magnitude=280.0, spread=0.5)
        masked[:, rng.random(700) < 0.3] = FILL_VALUE
        fields = {"T": climate_like(rng, (3, 150)), "SST": masked}
        summary = EnsembleSummary.from_ensemble(_Ensemble(fields),
                                                variables=list(fields))
        for name, ens in fields.items():
            got = summary.variables[name]
            want = oracle(ens)
            m = ens.shape[0]
            flat = ens.reshape(m, -1).astype(np.float64)
            valid = want["valid"]
            gmeans = flat[:, valid].mean(axis=1)
            assert np.array_equal(got.valid, valid)
            assert np.array_equal(got.mean, flat[:, valid].mean(axis=0))
            assert np.array_equal(got.std,
                                  flat[:, valid].std(axis=0, ddof=1))
            assert got.gmean_range == (float(gmeans.min()),
                                       float(gmeans.max()))
            assert np.array_equal(got.rmsz_dist, want["rmsz"])
            assert np.array_equal(got.enmax_dist, want["enmax"])
