"""Bias regression with confidence rectangles (eq. 9, Figure 4)."""

import numpy as np
import pytest

from repro.pvt.bias import BiasResult, bias_regression


class TestRegression:
    def test_recovers_known_line(self, rng):
        x = rng.uniform(0.5, 2.0, 101)
        y = 1.02 * x - 0.01 + rng.normal(0, 1e-4, 101)
        fit = bias_regression(x, y)
        assert fit.slope == pytest.approx(1.02, abs=1e-3)
        assert fit.intercept == pytest.approx(-0.01, abs=1e-3)
        assert fit.n == 101

    def test_identity_fit_contains_ideal(self, rng):
        x = rng.uniform(0.5, 2.0, 50)
        y = x + rng.normal(0, 1e-6, 50)
        fit = bias_regression(x, y)
        assert fit.contains_ideal()
        assert fit.passes()

    def test_biased_fit_detected(self, rng):
        x = rng.uniform(0.5, 2.0, 50)
        y = 0.9 * x + rng.normal(0, 1e-6, 50)
        fit = bias_regression(x, y)
        assert not fit.contains_ideal()
        assert not fit.passes()  # |1 - 0.9| > 0.05

    def test_noisy_but_unbiased_fails_on_uncertainty(self, rng):
        # The paper's point: large uncertainty means the RMSZ sample test
        # may not have caught bias; eq. 9 rejects wide rectangles even if
        # the slope estimate is 1.
        x = rng.uniform(0.9, 1.1, 20)  # narrow x-range -> wide slope CI
        y = x + rng.normal(0, 0.2, 20)
        fit = bias_regression(x, y)
        assert fit.slope_ci[1] - fit.slope_ci[0] > 0.1
        assert not fit.passes()

    def test_small_uniform_bias_can_pass_slope_test(self, rng):
        # Figure 4 (U): most rectangles exclude (1,0), but the bias is so
        # small the method is still acceptable under eq. 9.
        x = rng.uniform(0.5, 2.0, 101)
        y = 1.001 * x + 0.002 + rng.normal(0, 1e-5, 101)
        fit = bias_regression(x, y)
        assert not fit.contains_ideal()
        assert fit.passes()

    def test_worst_case_slope(self):
        fit = BiasResult(
            slope=1.0, intercept=0.0, slope_ci=(0.9, 1.02),
            intercept_ci=(-0.1, 0.1), residual_std=0.0, n=10,
        )
        assert fit.worst_case_slope == 0.9
        assert fit.slope_distance == pytest.approx(0.1)
        assert not fit.passes()

    def test_confidence_interval_coverage(self, rng):
        # ~95% of CIs should contain the true slope.
        hits = 0
        for trial in range(200):
            local = np.random.default_rng(trial)
            x = local.uniform(0, 1, 30)
            y = 1.5 * x + local.normal(0, 0.1, 30)
            lo, hi = bias_regression(x, y).slope_ci
            hits += lo <= 1.5 <= hi
        assert 0.90 <= hits / 200 <= 0.99


class TestValidation:
    def test_too_few_points(self, rng):
        with pytest.raises(ValueError):
            bias_regression(np.ones(2), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bias_regression(np.ones(5), np.ones(6))

    def test_degenerate_x(self):
        with pytest.raises(ZeroDivisionError):
            bias_regression(np.ones(10), np.arange(10.0))

    def test_bad_confidence(self, rng):
        x = rng.uniform(0, 1, 10)
        with pytest.raises(ValueError):
            bias_regression(x, x, confidence=1.5)
