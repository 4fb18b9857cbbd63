"""Runtime sanitizer: activation, codec guards, replay, sanitize_guard."""

import numpy as np
import pytest

from repro.check import SanitizerError, sanitize_active, sanitize_guard, \
    sanitized
from repro.check.hooks import boundary
from repro.compressors.base import CodecProperties, Compressor
from repro.parallel.executor import parallel_map
from repro.pvt.enmax import enmax_distribution
from repro.pvt.zscore import EnsembleStats, _standardize


class IdentityCodec(Compressor):
    """Raw-bytes codec: the smallest well-behaved Compressor."""

    name = "identity"

    def _encode_values(self, values):
        return values.tobytes()

    def _decode_values(self, payload, count, dtype):
        return np.frombuffer(payload, dtype=dtype, count=count)

    @classmethod
    def properties(cls):
        return CodecProperties(
            name="identity", lossless_mode=True, special_values=True,
            freely_available=True, fixed_quality=False, fixed_cr=False,
            bits_32_and_64=True,
        )


class NaNInjectingCodec(IdentityCodec):
    """Misbehaving codec: corrupts the first decoded value to NaN."""

    name = "nan-injector"

    def _decode_values(self, payload, count, dtype):
        out = super()._decode_values(payload, count, dtype).copy()
        out[0] = np.nan
        return out


class WrongReconstructCodec(IdentityCodec):
    """Misbehaving codec: its coder-free path drifts by one ulp."""

    name = "wrong-reconstruct"

    def _reconstruct_values(self, values):
        return np.nextafter(values, np.inf)


def _field():
    rng = np.random.default_rng(42)
    return rng.normal(size=(4, 5)).astype(np.float32)


class TestActivation:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_active()

    def test_env_var_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_active()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_active()

    def test_context_manager_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with sanitized():
            assert sanitize_active()
            with sanitized(False):
                assert not sanitize_active()
            assert sanitize_active()
        assert not sanitize_active()

    def test_context_manager_can_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with sanitized(False):
            assert not sanitize_active()
        assert sanitize_active()


class TestCodecGuards:
    def test_well_behaved_roundtrip_passes(self):
        data = _field()
        with sanitized():
            outcome = IdentityCodec().roundtrip(data)
        np.testing.assert_array_equal(outcome.reconstructed, data)

    def test_nan_injection_is_caught(self):
        codec = NaNInjectingCodec()
        data = _field()
        with sanitized():
            blob = codec.compress(data)
            with pytest.raises(SanitizerError) as excinfo:
                codec.decompress(blob)
        err = excinfo.value
        assert err.check == "no-new-nonfinite"
        assert err.subject == "nan-injector"
        assert err.context["first_index"] == 0

    def test_nan_injection_ignored_when_inactive(self):
        codec = NaNInjectingCodec()
        with sanitized(False):
            out = codec.decompress(codec.compress(_field()))
        assert np.isnan(out.reshape(-1)[0])

    def test_junk_blob_fails_container_integrity(self):
        bad_compress = boundary("compress")(
            lambda self, data: b"not a container"
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad_compress(IdentityCodec(), _field())
        assert excinfo.value.check == "container-integrity"

    def test_decoded_shape_lie_is_caught(self):
        codec = IdentityCodec()
        blob = codec.compress(_field())
        bad_decompress = boundary("decompress")(
            lambda self, b: np.zeros(20, dtype=np.float32)
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad_decompress(codec, blob)
        assert excinfo.value.check == "shape-preserved"

    def test_decoded_dtype_lie_is_caught(self):
        codec = IdentityCodec()
        blob = codec.compress(_field())
        bad_decompress = boundary("decompress")(
            lambda self, b: np.zeros((4, 5), dtype=np.float64)
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad_decompress(codec, blob)
        assert excinfo.value.check == "dtype-preserved"

    def test_reconstruct_matching_the_roundtrip_passes(self):
        data = _field()
        with sanitized():
            out = IdentityCodec().reconstruct(data)
        np.testing.assert_array_equal(out, data)

    def test_wrong_reconstruct_is_caught(self):
        codec = WrongReconstructCodec()
        data = _field()
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            codec.reconstruct(data)
        err = excinfo.value
        assert err.check == "reconstruct-parity"
        assert err.subject == "wrong-reconstruct"

    def test_wrong_reconstruct_ignored_when_inactive(self):
        data = _field()
        with sanitized(False):
            out = WrongReconstructCodec().reconstruct(data)
        assert out.tobytes() != data.tobytes()

    def test_fill_values_do_not_trip_the_guard(self):
        # Special values may legally decode to anything non-finite-masked;
        # only points that were valid AND finite are protected.
        data = _field().astype(np.float64)
        data[0, 0] = 1.0e35  # repro: noqa[REP007] -- deliberate magic
        with sanitized():
            out = IdentityCodec().roundtrip(data).reconstructed
        np.testing.assert_array_equal(out, data)


class TestPVTGuards:
    def test_real_zscores_pass(self):
        ensemble = np.random.default_rng(7).normal(size=(6, 40))
        stats = EnsembleStats(ensemble)
        with sanitized():
            z = _standardize(ensemble[0][stats.valid],
                             *stats.loo_mean_std(0))
            dist = stats.distribution()
        assert z.shape == (stats.n_points,)
        assert dist.shape == (6,)

    def test_real_enmax_passes(self):
        ensemble = np.random.default_rng(11).normal(size=(5, 30))
        with sanitized():
            dist = enmax_distribution(ensemble)
        assert dist.shape == (5,)

    def test_zscore_shape_violation(self):
        stats = EnsembleStats(np.random.default_rng(3).normal(size=(4, 10)))
        bad = boundary("zscores")(
            lambda self, values, member: np.zeros((2, 2))
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad(stats, np.zeros(10), 0)
        assert excinfo.value.check == "zscore-shape"

    def test_enmax_nan_violation(self):
        ensemble = np.random.default_rng(5).normal(size=(4, 10))
        bad = boundary("enmax")(
            lambda e: np.array([0.1, np.nan, 0.2, 0.3])
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad(ensemble)
        assert excinfo.value.check == "distribution-finite"

    def test_distribution_negative_violation(self):
        stats = EnsembleStats(np.random.default_rng(9).normal(size=(4, 10)))
        bad = boundary("distribution")(
            lambda self: np.array([0.5, -0.1, 0.5, 0.5])
        )
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            bad(stats)
        assert excinfo.value.check == "distribution-nonnegative"


_replay_state = {"calls": 0}


def _nondeterministic(x):
    _replay_state["calls"] += 1
    return _replay_state["calls"]


def _deterministic(x):
    return x * x


class TestSerialReplay:
    def test_nondeterministic_task_is_caught(self):
        _replay_state["calls"] = 0
        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            parallel_map(_nondeterministic, [1, 2, 3], workers=1)
        assert excinfo.value.check == "deterministic-replay"

    def test_deterministic_task_passes(self):
        with sanitized():
            assert parallel_map(_deterministic, [1, 2, 3], workers=1) == \
                [1, 4, 9]

    def test_no_replay_when_inactive(self):
        _replay_state["calls"] = 0
        with sanitized(False):
            parallel_map(_nondeterministic, [1, 2], workers=1)
        assert _replay_state["calls"] == 2  # one call per item, no replay


class TestSanitizeGuard:
    def test_clean_transform_passes(self):
        @sanitize_guard
        def shift(field):
            return field + 1.0

        data = _field()
        with sanitized():
            np.testing.assert_array_equal(shift(data), data + 1.0)

    def test_dtype_change_is_caught(self):
        @sanitize_guard
        def widen(field):
            return field.astype(np.float64, copy=False)

        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            widen(_field())
        assert excinfo.value.check == "dtype-preserved"

    def test_new_nan_is_caught(self):
        @sanitize_guard(name="poke")
        def poke(field):
            out = field.copy()
            out.reshape(-1)[3] = np.inf
            return out

        with sanitized(), pytest.raises(SanitizerError) as excinfo:
            poke(_field())
        err = excinfo.value
        assert err.check == "no-new-nonfinite"
        assert err.subject == "poke"
        assert err.context["first_index"] == 3

    def test_non_array_signatures_pass_through(self):
        @sanitize_guard
        def join(parts):
            return ",".join(parts)

        with sanitized():
            assert join(["a", "b"]) == "a,b"

    def test_inactive_guard_is_transparent(self):
        @sanitize_guard
        def widen(field):
            return field.astype(np.float64, copy=False)

        with sanitized(False):
            assert widen(_field()).dtype == np.float64


class TestSanitizerError:
    def test_message_carries_check_subject_context(self):
        err = SanitizerError("dtype-preserved", "fpzip-16",
                             "dtype changed", got="float64")
        assert "[dtype-preserved]" in str(err)
        assert "fpzip-16" in str(err)
        assert err.context == {"got": "float64"}
        assert isinstance(err, RuntimeError)
