"""Streaming folds: many chunks and merged halves match the one-chunk fold.

The batch metrics (`characterize`, `rmse`/`nrmse`/`psnr`,
`max_pointwise_error`/`normalized_max_error`, `pearson`,
`VariableSummary.rmsz_of`/`verify`) *are* the one-chunk folds, bit for
bit.  So each fold is checked two ways on the same data, including the
special-value masking and the degenerate constant-field semantics: the
batch metric equals the one-chunk fold exactly, and a fold over many
chunks (or two merged halves) matches the one-chunk fold up to the
rounding of the merge.
"""

import numpy as np
import pytest

from repro.config import FILL_VALUE
from repro.metrics.average import nrmse, psnr, rmse
from repro.metrics.characterize import characterize
from repro.metrics.correlation import pearson
from repro.metrics.pointwise import (
    max_pointwise_error,
    normalized_max_error,
)
from repro.pvt.summary import VariableSummary
from repro.pvt.zscore import StreamingRMSZ
from repro.stream import (
    StreamingError,
    StreamingMoments,
    iter_array_chunks,
)

RTOL = 1e-9


@pytest.fixture()
def field(rng):
    data = 260.0 + 30.0 * rng.normal(size=(40, 256))
    data[rng.random(data.shape) < 0.02] = FILL_VALUE
    return data


@pytest.fixture()
def recon(field, rng):
    out = field + 0.01 * rng.normal(size=field.shape)
    out[field == FILL_VALUE] = FILL_VALUE
    return out


def folded(fold_cls, *arrays, chunk_mb=0.02):
    fold = fold_cls()
    streams = [iter_array_chunks(a, chunk_mb=chunk_mb) for a in arrays]
    for chunks in zip(*streams):
        fold.update(*chunks)
    return fold


def random_arrays(rng, count=40):
    """Valid-only vectors of assorted sizes, offsets and spreads."""
    return [
        rng.normal(10.0 ** rng.uniform(-3, 5), 10.0 ** rng.uniform(-6, 3),
                   size=int(rng.integers(2, 5000)))
        for _ in range(count)
    ]


def one_chunk(fold_cls, *arrays):
    fold = fold_cls()
    fold.update(*arrays)
    return fold


class TestStreamingMoments:
    def test_matches_batch_characterize(self, field):
        want = one_chunk(StreamingMoments, field).finalize()
        assert characterize(field, with_lossless_cr=False) == want
        got = folded(StreamingMoments, field).finalize()
        assert got.n_valid == want.n_valid
        assert got.n_special == want.n_special
        assert got.x_min == want.x_min
        assert got.x_max == want.x_max
        assert got.mean == pytest.approx(want.mean, rel=RTOL)
        assert got.std == pytest.approx(want.std, rel=RTOL)
        assert got.lossless_cr is None

    def test_one_chunk_is_numpy_bit_for_bit(self, rng):
        # The batch statistics are numpy's own reductions, not a merge.
        for data in [np.full(3, 0.1)] + random_arrays(rng):
            got = one_chunk(StreamingMoments, data).finalize()
            assert got.mean == data.mean()
            assert got.std == data.std()

    def test_merge_matches_single_fold(self, field):
        whole = one_chunk(StreamingMoments, field).finalize()
        left = folded(StreamingMoments, field[:13])
        right = folded(StreamingMoments, field[13:])
        left.merge(right)
        merged = left.finalize()
        assert merged.n_special == whole.n_special
        assert merged.mean == pytest.approx(whole.mean, rel=RTOL)
        assert merged.std == pytest.approx(whole.std, rel=RTOL)

    def test_all_special_raises_only_at_finalize(self):
        fold = StreamingMoments()
        fold.update(np.full((4, 4), FILL_VALUE))
        with pytest.raises(ValueError, match="no valid"):
            fold.finalize()


class TestStreamingError:
    def test_matches_batch_error_metrics(self, field, recon):
        want = one_chunk(StreamingError, field, recon).finalize()
        assert rmse(field, recon) == want.rmse
        assert nrmse(field, recon) == want.nrmse
        assert psnr(field, recon) == want.psnr
        assert max_pointwise_error(field, recon) == want.e_max
        assert normalized_max_error(field, recon) == want.e_nmax
        assert pearson(field, recon) == want.pearson
        got = folded(StreamingError, field, recon).finalize()
        assert got.n_valid == want.n_valid
        assert got.e_max == want.e_max
        assert got.r_x == want.r_x
        assert got.rmse == pytest.approx(want.rmse, rel=RTOL)
        assert got.nrmse == pytest.approx(want.nrmse, rel=RTOL)
        assert got.psnr == pytest.approx(want.psnr, rel=RTOL)
        assert got.pearson == pytest.approx(want.pearson, rel=RTOL)

    def test_one_chunk_is_numpy_bit_for_bit(self, rng):
        for x in random_arrays(rng):
            y = x + x.std() * 1e-3 * rng.normal(size=x.size)
            got = one_chunk(StreamingError, x, y).finalize()
            cov = np.mean((x - x.mean()) * (y - y.mean()))
            assert got.pearson == np.clip(cov / (x.std() * y.std()), -1, 1)
            assert got.rmse == np.sqrt(np.mean((x - y) ** 2))
            assert got.e_max == np.abs(x - y).max()
            assert got.r_x == x.max() - x.min()

    def test_merge_matches_single_fold(self, field, recon):
        whole = one_chunk(StreamingError, field, recon).finalize()
        left = folded(StreamingError, field[:17], recon[:17])
        right = folded(StreamingError, field[17:], recon[17:])
        left.merge(right)
        merged = left.finalize()
        assert merged.rmse == pytest.approx(whole.rmse, rel=RTOL)
        assert merged.pearson == pytest.approx(whole.pearson, rel=RTOL)
        assert merged.e_max == whole.e_max

    def test_original_side_is_the_characterization(self, field, recon):
        errors = folded(StreamingError, field, recon)
        moments = folded(StreamingMoments, field)
        assert errors.original.finalize() == moments.finalize()

    def test_exact_reconstruction_of_constant_field(self):
        const = np.full((6, 8), 5.0)
        out = folded(StreamingError, const, const.copy()).finalize()
        assert out.pearson == 1.0 == pearson(const, const.copy())
        assert out.nrmse == 0.0
        assert out.e_nmax == 0.0

    def test_inexact_constant_field_raises_like_batch(self):
        const = np.full((6, 8), 5.0)
        off = const + 0.25
        out = folded(StreamingError, const, off).finalize()
        with pytest.raises(ZeroDivisionError, match="R_X is zero"):
            out.nrmse
        with pytest.raises(ZeroDivisionError):
            nrmse(const, off)

    def test_one_sided_constant_pearson_is_zero(self, rng):
        const = np.full((6, 8), 5.0)
        noisy = const + rng.normal(size=const.shape)
        out = folded(StreamingError, const, noisy).finalize()
        assert out.pearson == 0.0 == pearson(const, noisy)

    def test_nan_in_a_later_chunk_is_kept(self, field, recon):
        recon = recon.copy()
        recon.flat[np.flatnonzero(field != FILL_VALUE)[-1]] = np.nan
        out = folded(StreamingError, field, recon).finalize()
        assert np.isnan(out.e_max)
        assert np.isnan(max_pointwise_error(field, recon))

    def test_shape_mismatch_rejected(self):
        fold = StreamingError()
        with pytest.raises(ValueError, match="shape mismatch"):
            fold.update(np.ones(4), np.ones(5))

    def test_no_valid_data_raises(self):
        fold = StreamingError()
        fold.update(np.full(8, FILL_VALUE), np.full(8, FILL_VALUE))
        with pytest.raises(ValueError, match="no valid"):
            fold.finalize()



class TestFoldEquality:
    """Folds compare by value, so a replayed fold equals the first."""

    def test_same_chunks_give_equal_folds(self, field, recon):
        assert folded(StreamingError, field, recon) == \
            folded(StreamingError, field, recon)
        assert folded(StreamingMoments, field) == \
            folded(StreamingMoments, field)

    def test_different_data_differ(self, field, recon):
        assert folded(StreamingError, field, recon) != \
            folded(StreamingError, field, field)
        assert StreamingError() != StreamingMoments()

    def test_nan_error_equals_itself(self):
        x = np.arange(8.0)
        y = x.copy()
        y[3] = np.nan
        assert one_chunk(StreamingError, x, y) == one_chunk(StreamingError,
                                                            x, y)

    def test_merged_one_chunk_partials_equal_updates(self, field, recon):
        # What a parallel_map task returns, merged chunk by chunk, is
        # the fold the old serial loop updated in place.
        total = StreamingError()
        for a, b in zip(iter_array_chunks(field, chunk_mb=0.02),
                        iter_array_chunks(recon, chunk_mb=0.02)):
            total.merge(one_chunk(StreamingError, a, b))
        assert total == folded(StreamingError, field, recon)

def make_summary(rng, npoints=512, members=7):
    fields = 100.0 + rng.normal(size=(members, npoints))
    fields[:, rng.random(npoints) < 0.05] = FILL_VALUE
    valid = np.all(np.abs(fields) < 1e34, axis=0)
    flat = fields[:, valid]
    return VariableSummary(
        name="X",
        shape=(npoints,),
        mean=flat.mean(axis=0),
        std=flat.std(axis=0, ddof=1),
        valid=valid,
        rmsz_dist=np.array([0.5, 1.5]),
        enmax_dist=np.array([0.0]),
        gmean_range=(float(flat.mean()) - 1.0, float(flat.mean()) + 1.0),
    )


def rmsz_fold(summary):
    return StreamingRMSZ(summary.mean, summary.std, summary.valid)


class TestStreamingRMSZ:
    def test_matches_rmsz_of(self, rng):
        summary = make_summary(rng)
        new = 100.0 + rng.normal(size=summary.shape)
        want = rmsz_fold(summary)
        want.update(new)
        assert summary.rmsz_of(new) == want.finalize()
        fold = rmsz_fold(summary)
        for chunk in iter_array_chunks(new, chunk_mb=0.001):
            fold.update(chunk)
        assert fold.finalize() == pytest.approx(want.finalize(), rel=RTOL)

    def test_verify_stream_matches_verify(self, rng):
        summary = make_summary(rng)
        new = 100.0 + rng.normal(size=summary.shape)
        whole = summary.verify_stream([new])
        assert summary.verify(new) == whole
        streamed = summary.verify_stream(
            iter_array_chunks(new, chunk_mb=0.001))
        assert streamed["rmsz"] == pytest.approx(whole["rmsz"], rel=RTOL)
        assert streamed["mean"] == pytest.approx(whole["mean"], rel=RTOL)
        assert streamed["passed"] == whole["passed"]
        assert streamed["rmsz_ok"] == whole["rmsz_ok"]
        assert streamed["mean_ok"] == whole["mean_ok"]

    def test_incomplete_stream_fails_finalize(self, rng):
        summary = make_summary(rng)
        fold = rmsz_fold(summary)
        fold.update(np.zeros(10))
        with pytest.raises(ValueError, match="covered 10 of"):
            fold.finalize()

    def test_overlong_stream_rejected(self, rng):
        summary = make_summary(rng)
        fold = rmsz_fold(summary)
        with pytest.raises(ValueError, match="longer than the field"):
            fold.update(np.zeros(summary.valid.size + 1))

    def test_mismatched_statistics_rejected(self):
        with pytest.raises(ValueError, match="valid mask selects"):
            StreamingRMSZ(np.zeros(4), np.ones(4), np.ones(8, dtype=bool))
