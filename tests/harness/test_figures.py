"""Figure data drivers (structure checks at test scale)."""

import numpy as np
import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.figures import (
    figure1_error_boxplots,
    figure2_rmsz_ensemble,
    figure3_enmax_ensemble,
    figure4_bias,
)

VARIANTS = ["fpzip-24", "fpzip-16", "APAX-2"]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.test()


class TestFigure1:
    def test_samples_per_variant(self, ctx):
        data = figure1_error_boxplots(ctx, variants=VARIANTS)
        n = ctx.config.n_variables
        for kind in ("enmax", "nrmse"):
            assert set(data[kind]) == set(VARIANTS)
            for values in data[kind].values():
                assert values.shape == (n,)
                assert (values >= 0).all()

    def test_higher_compression_higher_median_error(self, ctx):
        data = figure1_error_boxplots(ctx, variants=["fpzip-24", "fpzip-16"])
        assert np.median(data["nrmse"]["fpzip-16"]) > np.median(
            data["nrmse"]["fpzip-24"]
        )


class TestFigure2:
    def test_structure(self, ctx):
        data = figure2_rmsz_ensemble(ctx, variables=["U"], variants=VARIANTS)
        entry = data["U"]
        assert entry["distribution"].shape == (ctx.config.n_members,)
        d = entry["distribution"]
        tol = 1e-9 * (1 + abs(d).max())
        assert d.min() - tol <= entry["original"] <= d.max() + tol
        assert set(entry["markers"]) == set(VARIANTS)

    def test_lossless_like_marker_near_original(self, ctx):
        data = figure2_rmsz_ensemble(ctx, variables=["U"],
                                     variants=["fpzip-24"])
        entry = data["U"]
        assert entry["markers"]["fpzip-24"] == pytest.approx(
            entry["original"], abs=0.05
        )


class TestFigure3:
    def test_structure(self, ctx):
        data = figure3_enmax_ensemble(ctx, variables=["U", "FSDSC"],
                                      variants=VARIANTS)
        for entry in data.values():
            assert entry["distribution"].shape == (ctx.config.n_members,)
            assert all(v >= 0 for v in entry["markers"].values())

    def test_marker_ordering(self, ctx):
        data = figure3_enmax_ensemble(ctx, variables=["U"],
                                      variants=["fpzip-24", "fpzip-16"])
        m = data["U"]["markers"]
        assert m["fpzip-16"] > m["fpzip-24"]


class TestFigure4:
    def test_confidence_rectangles(self, ctx):
        data = figure4_bias(ctx, variables=["U"], variants=["fpzip-24"])
        fit = data["U"]["fpzip-24"]
        s_lo, s_hi = fit.slope_ci
        assert s_lo < fit.slope < s_hi
        assert fit.n == ctx.config.n_members
        # A near-lossless codec regresses close to the identity.
        assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fit.intercept == pytest.approx(0.0, abs=0.1)

    def test_variant_without_a_fit_is_left_out(self, ctx):
        # APAX-5 flattens FSDSC's reconstructed ensemble at test scale:
        # its bias verdict gives a reason and no fit, so no point.
        data = figure4_bias(ctx, variables=["FSDSC"],
                            variants=["APAX-5", "fpzip-24"])
        assert list(data["FSDSC"]) == ["fpzip-24"]
