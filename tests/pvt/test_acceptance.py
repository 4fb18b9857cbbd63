"""Combined acceptance testing (Table 6 semantics)."""

from collections import Counter

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import NetCDF4Zlib, get_variant
from repro.compressors.base import Compressor
from repro.metrics.streaming import ErrorSummary
from repro.pvt.acceptance import (
    VariableContext,
    VerdictMemo,
    evaluate_variable,
    reconstruct_ensemble,
)
from repro.pvt.zscore import EnsembleStats

#: The 15 variants a screen judges: the paper's nine and six more.
SCREEN_VARIANTS = (
    "GRIB2", "APAX-2", "APAX-4", "APAX-5", "fpzip-24", "fpzip-16",
    "ISA-0.1", "ISA-0.5", "ISA-1.0", "fpzip-32", "NetCDF-4",
    "SZ-rel-0.001", "SZ-pw-0.005", "BR-8", "BR-auto",
)


@pytest.fixture(scope="module")
def u_fields(ensemble):
    return ensemble.ensemble_field("U")


class TestLosslessAlwaysPasses:
    def test_netcdf4(self, u_fields):
        verdict = evaluate_variable(
            u_fields, NetCDF4Zlib(), [0, 1, 2], variable="U"
        )
        assert verdict.rho.passed
        assert verdict.rmsz.passed
        assert verdict.enmax.passed
        assert verdict.bias.passed
        assert verdict.all_passed
        # Lossless reconstructions score as exact, member by member.
        assert list(verdict.errors) == [0, 1, 2]
        for errors in verdict.errors.values():
            assert errors.mse == 0.0 and errors.e_max == 0.0
            assert errors.pearson == 1.0

    def test_rmsz_scores_identical(self, u_fields):
        verdict = evaluate_variable(
            u_fields, NetCDF4Zlib(), [3], variable="U"
        )
        d = verdict.rmsz.detail["members"][3]
        assert d["original"] == pytest.approx(d["reconstructed"])


class TestTestMemberStatistics:
    def test_screen_builds_each_members_statistics_once(
        self, ensemble, u_fields, monkeypatch
    ):
        built: Counter = Counter()
        centered = EnsembleStats._centered

        def counting(stats, member):
            built[member] += 1
            return centered(stats, member)

        monkeypatch.setattr(EnsembleStats, "_centered", counting)
        members = [int(m) for m in ensemble.pick_members(3)]
        memo = VerdictMemo(u_fields, members, "U")
        verdicts = memo.verdicts(
            [get_variant(v) for v in SCREEN_VARIANTS], run_bias=False)
        assert built == {m: 1 for m in members}

        # Every shared score is the one a context of its own gives.
        monkeypatch.undo()
        fresh = EnsembleStats(u_fields)
        for variant, verdict in verdicts.items():
            for m, row in verdict.rmsz.detail["members"].items():
                recon = get_variant(variant).reconstruct(u_fields[m])
                assert row["reconstructed"] == fresh.rmsz(recon, m)


class TestLossyOutcomes:
    def test_good_codec_passes_u(self, u_fields):
        verdict = evaluate_variable(
            u_fields, get_variant("fpzip-24"), [0, 1, 2], variable="U"
        )
        assert verdict.all_passed

    def test_destructive_codec_fails(self, u_fields):
        verdict = evaluate_variable(
            u_fields, get_variant("fpzip-8"), [0, 1, 2], variable="U"
        )
        assert not verdict.all_passed
        assert not verdict.rho.passed  # 8-bit floats are very lossy

    def test_verdict_row(self, u_fields):
        verdict = evaluate_variable(
            u_fields, get_variant("APAX-2"), [0], variable="U"
        )
        row = verdict.as_row()
        assert row["variable"] == "U" and row["codec"] == "APAX-2"
        assert set(row) >= {"rho", "rmsz", "enmax", "bias", "all"}
        assert "cr" not in row  # the tests never size a blob


class TestOptions:
    def test_run_bias_false_skips(self, u_fields):
        verdict = evaluate_variable(
            u_fields, NetCDF4Zlib(), [0], run_bias=False
        )
        assert verdict.bias is None
        assert verdict.all_passed  # bias ignored when skipped

    def test_context_reuse_equivalent(self, u_fields):
        ctx = VariableContext.from_ensemble(u_fields)
        a = evaluate_variable(u_fields, get_variant("fpzip-24"), [0, 1],
                              run_bias=False, context=ctx)
        b = evaluate_variable(u_fields, get_variant("fpzip-24"), [0, 1],
                              run_bias=False)
        assert a.as_row() == b.as_row()
        assert a.errors == b.errors
        assert a.rmsz.detail["members"] == b.rmsz.detail["members"]

    def test_no_members_rejected(self, u_fields):
        with pytest.raises(ValueError):
            evaluate_variable(u_fields, NetCDF4Zlib(), [])

    def test_custom_thresholds(self, u_fields):
        # Infinitely forgiving thresholds turn failures into passes
        # (except the hard "within distribution" requirements).
        strict = evaluate_variable(
            u_fields, get_variant("APAX-5"), [0], run_bias=False,
            rho_threshold=0.5, rmsz_limit=np.inf, enmax_limit=np.inf,
        )
        assert strict.rho.passed


class TestOneReconstructionPerMember:
    def test_bias_run_reconstructs_each_member_once(self, u_fields,
                                                    compress_calls,
                                                    reconstruct_calls):
        # Every member, the test members included, is reconstructed
        # without the coder, each exactly once; no blob is made.
        with sanitized(False):
            evaluate_variable(u_fields, get_variant("fpzip-24"), [0, 1, 2],
                              run_bias=True)
        assert compress_calls["fpzip-24"] == 0
        assert reconstruct_calls["fpzip-24"] == u_fields.shape[0]

    def test_screen_reconstructs_only_the_test_members(self, u_fields,
                                                       compress_calls,
                                                       reconstruct_calls):
        with sanitized(False):
            evaluate_variable(u_fields, get_variant("fpzip-24"), [0, 1, 2],
                              run_bias=False)
        assert compress_calls["fpzip-24"] == 0
        assert reconstruct_calls["fpzip-24"] == 3

    def test_stack_rows_score_like_solo_roundtrips(self, u_fields):
        codec = get_variant("APAX-4")
        full = evaluate_variable(u_fields, codec, [4, 1], run_bias=True)
        screen = evaluate_variable(u_fields, codec, [4, 1], run_bias=False)
        assert full.errors == screen.errors
        assert full.rmsz.detail["members"] == screen.rmsz.detail["members"]
        # Both score what a solo round trip of the member returns.
        outcome = codec.roundtrip(u_fields[4])
        assert full.errors[4] == ErrorSummary.of(u_fields[4],
                                                 outcome.reconstructed)

    def test_verdict_carries_member_errors(self, u_fields):
        codec = get_variant("fpzip-24")
        verdict = evaluate_variable(u_fields, codec, [2, 0], run_bias=False)
        assert list(verdict.errors) == [2, 0]
        assert not hasattr(verdict, "crs")
        assert verdict.errors[2].pearson == verdict.rho.detail["values"][2]
        assert verdict.errors[2].e_nmax == \
            verdict.enmax.detail["members"][2]["e_nmax"]

    def test_reconstruct_ensemble_keeps_dtype_and_order(self, u_fields):
        codec = get_variant("fpzip-24")
        wide = u_fields[:4].astype(np.float64)
        stack = reconstruct_ensemble(wide, codec, [3, 1])
        assert stack.dtype == np.float64 and stack.shape == (2,) + \
            wide.shape[1:]
        outcome = codec.roundtrip(wide[1])
        np.testing.assert_array_equal(stack[1], outcome.reconstructed)
        everything = reconstruct_ensemble(wide, codec)
        np.testing.assert_array_equal(everything[[3, 1]], stack)

    def test_only_sized_members_round_trip(self, u_fields, compress_calls,
                                           reconstruct_calls):
        # Nothing is sized any more, so no member round-trips: each
        # requested member is reconstructed once, and the rows are the
        # whole-ensemble stack's.
        codec = get_variant("SZ-rel-0.001")
        with sanitized(False):
            stack = reconstruct_ensemble(u_fields[:5], codec, [4, 2])
        assert compress_calls[codec.variant] == 0
        assert reconstruct_calls[codec.variant] == 2
        full = reconstruct_ensemble(u_fields[:5], codec)
        assert stack.tobytes() == full[[4, 2]].tobytes()
        with pytest.raises(TypeError):
            reconstruct_ensemble(u_fields[:5], codec, sized=())


#: One variant per codec family, the lossless baseline included.
FAMILY_VARIANTS = ("GRIB2", "ISA-0.5", "fpzip-16", "APAX-4",
                   "SZ-rel-0.001", "SZ-pw-0.005", "BR-6", "NetCDF-4")


def _same(a, b) -> bool:
    """Equality that looks inside verdict details (dicts, arrays)."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


class TestBiasTrafficAndVerdict:
    """The bias run's codec traffic, and its verdict against the
    all-round-trip path it replaced (the oracle)."""

    @pytest.mark.parametrize("variant", FAMILY_VARIANTS)
    def test_verdict_matches_all_roundtrip_oracle(
        self, u_fields, monkeypatch, variant
    ):
        members = [5, 0, 2]
        ctx = VariableContext.from_ensemble(u_fields)
        calls = Counter()
        real_compress = Compressor.compress

        def counting(self, data):
            calls[self.variant] += 1
            return real_compress(self, data)

        with monkeypatch.context() as patch, sanitized(False):
            patch.setattr(Compressor, "compress", counting)
            got = evaluate_variable(u_fields, get_variant(variant), members,
                                    variable="U", context=ctx)
        assert calls[variant] == 0

        # The oracle scores full round trips of every member, test
        # members included, as the sized path did.
        with monkeypatch.context() as patch:
            patch.setattr(Compressor, "reconstruct",
                          lambda self, data:
                          self.roundtrip(data).reconstructed)
            oracle = evaluate_variable(u_fields, get_variant(variant),
                                       members, variable="U", context=ctx)

        assert got == oracle
        assert list(got.errors) == members
        assert got.errors == oracle.errors
        assert got.as_row() == oracle.as_row()
        for name in ("rho", "rmsz", "enmax", "bias"):
            assert _same(getattr(got, name).detail,
                         getattr(oracle, name).detail), name


class TestAcceptanceMakesNoBlobs:
    @pytest.mark.parametrize("variant", FAMILY_VARIANTS)
    def test_screen_and_bias_make_no_blobs(self, u_fields, monkeypatch,
                                           variant):
        # The four tests read reconstructions only: neither a screen
        # nor a bias run compresses or decompresses anything.
        calls = Counter()
        for method in ("compress", "decompress"):
            real = getattr(Compressor, method)

            def counting(self, arg, _real=real, _method=method):
                calls[_method] += 1
                return _real(self, arg)

            monkeypatch.setattr(Compressor, method, counting)
        codec = get_variant(variant)
        ctx = VariableContext.from_ensemble(u_fields)
        with sanitized(False):
            screen = evaluate_variable(u_fields, codec, [1, 3, 4],
                                       run_bias=False, context=ctx)
            bias = evaluate_variable(u_fields, codec, [1, 3, 4],
                                     run_bias=True, context=ctx)
        assert screen.bias is None and bias.bias is not None
        assert calls == Counter()


class TestFlattenedReconstruction:
    def test_bias_fails_with_its_reason(self, ensemble):
        # APAX-5 maps every FSDSC member onto the same field at test
        # scale: the reconstructed ensemble has no spread, so its RMSZ
        # distribution is undefined and the bias test fails, saying why.
        fields = ensemble.ensemble_field("FSDSC")
        verdict = evaluate_variable(fields, get_variant("APAX-5"),
                                    ensemble.pick_members(3),
                                    variable="FSDSC", run_bias=True)
        assert verdict.bias is not None and not verdict.bias.passed
        assert "zero sub-ensemble spread" in verdict.bias.detail["reason"]
        assert not verdict.all_passed


class HalfNaNCodec(Compressor):
    """fpzip-32's values with every other point set to NaN."""

    name = "half-nan"
    _inner = get_variant("fpzip-32")

    def _encode_values(self, values):
        return self._inner.compress(values)

    def _decode_values(self, payload, count, dtype):
        out = self._inner.decompress(payload).astype(dtype)
        out[::2] = np.nan
        return out

    @classmethod
    def properties(cls):
        return cls._inner.properties()


class TestNonFiniteReconstruction:
    def test_rmsz_and_bias_fail(self, ensemble):
        # NaN at valid points must not be skipped as if it were a
        # zero-spread point or a fill value.  The sanitizer would stop
        # the codec's NaN at the round trip, before the statistics.
        with sanitized(False):
            verdict = evaluate_variable(ensemble.ensemble_field("U"),
                                        HalfNaNCodec(),
                                        ensemble.pick_members(3),
                                        variable="U", run_bias=True)
        scores = verdict.rmsz.detail["members"].values()
        assert all(np.isnan(d["reconstructed"]) for d in scores)
        assert not verdict.rmsz.passed
        assert not verdict.bias.passed
        assert "non-finite" in verdict.bias.detail["reason"]
