"""Leave-one-out Z-scores and RMSZ (eqs. 6-8)."""

import tracemalloc

import numpy as np
import pytest

from repro.check import sanitized
from repro.config import FILL_VALUE
from repro.pvt.zscore import (
    EnsembleStats,
    _standardize,
    rmsz_closeness_test,
    rmsz_distribution,
)


def gaussian_ensemble(rng, m=30, n=500, mu=5.0, sigma=2.0):
    return rng.normal(mu, sigma, (m, n))


class TestLeaveOneOut:
    def test_matches_naive_computation(self, rng):
        ens = gaussian_ensemble(rng, m=12, n=40)
        stats = EnsembleStats(ens)
        for m in (0, 5, 11):
            rest = np.delete(ens, m, axis=0)
            mean, std = stats.loo_mean_std(m)
            np.testing.assert_allclose(mean, rest.mean(axis=0), rtol=1e-10)
            np.testing.assert_allclose(
                std, rest.std(axis=0, ddof=1), rtol=1e-8
            )

    def test_ddof_zero(self, rng):
        ens = gaussian_ensemble(rng, m=8, n=30)
        stats = EnsembleStats(ens, ddof=0)
        rest = np.delete(ens, 3, axis=0)
        _, std = stats.loo_mean_std(3)
        np.testing.assert_allclose(std, rest.std(axis=0, ddof=0), rtol=1e-8)

    def test_member_out_of_range(self, rng):
        stats = EnsembleStats(gaussian_ensemble(rng, m=5))
        with pytest.raises(IndexError):
            stats.loo_mean_std(5)

    def test_too_few_members(self, rng):
        with pytest.raises(ValueError):
            EnsembleStats(rng.normal(0, 1, (2, 10)))

    def test_bad_ddof(self, rng):
        with pytest.raises(ValueError):
            EnsembleStats(gaussian_ensemble(rng), ddof=2)


class TestRmsz:
    def test_gaussian_rmsz_near_one(self, rng):
        # For iid Gaussian members, Z-scores are ~N(0,1+1/n) and RMSZ ~ 1.
        ens = gaussian_ensemble(rng, m=50, n=5000)
        dist = rmsz_distribution(ens)
        assert abs(dist.mean() - 1.0) < 0.05
        assert dist.std() < 0.1

    def test_outlier_member_scores_high(self, rng):
        ens = gaussian_ensemble(rng, m=30, n=1000)
        ens[7] += 5.0  # shift one member by 2.5 sigma
        dist = rmsz_distribution(ens)
        assert dist[7] > 2.0
        assert dist[7] == dist.max()

    def test_reconstruction_shifts_rmsz(self, rng):
        ens = gaussian_ensemble(rng, m=20, n=2000)
        stats = EnsembleStats(ens)
        orig = stats.member_rmsz(4)
        recon = ens[4] + rng.normal(0, 1.0, 2000)  # half-sigma error
        shifted = stats.rmsz(recon, 4)
        assert shifted > orig

    def test_rmsz_of_own_field_matches_member_rmsz(self, rng):
        ens = gaussian_ensemble(rng, m=10, n=100)
        stats = EnsembleStats(ens)
        assert stats.rmsz(ens[3], 3) == pytest.approx(stats.member_rmsz(3))

    def test_special_values_excluded(self, rng):
        ens = gaussian_ensemble(rng, m=10, n=100)
        ens[:, :10] = FILL_VALUE
        stats = EnsembleStats(ens)
        assert stats.n_points == 90
        assert np.isfinite(stats.member_rmsz(0))

    def test_all_special_rejected(self):
        ens = np.full((5, 20), FILL_VALUE)
        with pytest.raises(ValueError, match="valid"):
            EnsembleStats(ens)

    def test_zero_spread_points_skipped(self, rng):
        ens = gaussian_ensemble(rng, m=10, n=50)
        ens[:, 0] = 1.0  # identical across members -> sigma = 0
        stats = EnsembleStats(ens)
        z = _standardize(ens[2][stats.valid], *stats.loo_mean_std(2))
        assert np.isnan(z[0])
        assert np.isfinite(stats.member_rmsz(2))

    def test_field_length_mismatch(self, rng):
        stats = EnsembleStats(gaussian_ensemble(rng, m=5, n=100))
        with pytest.raises(ValueError, match="points"):
            stats.rmsz(np.zeros(99), 0)

    def test_multidimensional_input_flattened(self, rng):
        ens3d = rng.normal(0, 1, (8, 4, 25))
        stats = EnsembleStats(ens3d)
        assert stats.n_points == 100


class TestRetention:
    def test_only_test_members_keep_their_statistics(self, rng):
        # Scoring every member once (the distribution test) keeps no
        # per-member vector; a member whose own RMSZ was asked for keeps
        # its leave-one-out mean and std for the codecs screened on it.
        ens = gaussian_ensemble(rng, m=40, n=4096).astype(np.float32)
        stats = EnsembleStats(ens)
        vector = stats.n_points * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for m in range(stats.n_members):
                stats.rmsz(ens[m] + np.float32(0.01), m)
            scored = tracemalloc.get_traced_memory()[0]
            for m in (1, 2, 3):
                stats.member_rmsz(m)
            tested = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert scored - start < vector
        assert tested - scored >= 3 * 2 * vector


class TestClosenessTest:
    def test_eq8_both_criteria(self):
        dist = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
        within, close = rmsz_closeness_test(1.0, 1.05, dist)
        assert within and close
        within, close = rmsz_closeness_test(1.0, 1.15, dist)
        assert within and not close  # |diff| > 0.1
        within, close = rmsz_closeness_test(1.0, 1.3, dist)
        assert not within and not close

    def test_below_distribution_fails_within(self):
        dist = np.array([0.8, 1.2])
        within, _ = rmsz_closeness_test(0.9, 0.7, dist)
        assert not within

    def test_tiny_distribution_rejected(self):
        with pytest.raises(ValueError):
            rmsz_closeness_test(1.0, 1.0, np.array([1.0]))


class TestNonFinite:
    def test_non_finite_value_makes_the_score_nan(self, rng):
        # Only zero-spread points are skipped: a NaN at a point with
        # spread is not, so a mostly-NaN field cannot score as a member.
        # The sanitizer's Z-score guard would reject the infinite score.
        ens = gaussian_ensemble(rng, m=10, n=100)
        stats = EnsembleStats(ens)
        values = np.full(100, np.nan)
        values[0] = ens[3, 0]
        with sanitized(False):
            assert np.isnan(stats.rmsz(values, 3))
            values = ens[3].copy()
            values[::2] = np.inf
            assert stats.rmsz(values, 3) == np.inf
