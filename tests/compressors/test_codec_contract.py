"""Cross-codec contract harness: every registry codec, one invariant suite.

Each test below is parametrized over ``variant_names()``, so any codec
added to the registry is automatically held to the shared contract:
round trips preserve shape and dtype, fingerprints are stable and
parameter-sensitive, degenerate inputs (empty, constant, single-element,
non-contiguous, NaN, ±inf, fill-value) behave predictably, and the streaming
chunk folds agree with a batch computation to within 1e-9.
"""

import json

import numpy as np
import pytest

from repro.compressors import get_variant, variant_names
from repro.config import FILL_VALUE
from repro.stream import stream_roundtrip

ALL_VARIANTS = sorted(variant_names())


def _smooth(shape):
    """A deterministic, smooth, strictly in-range field for any codec."""
    n = int(np.prod(shape))
    t = np.linspace(0.0, 6.0 * np.pi, n)
    return (50.0 * np.sin(t) + 10.0 * t / (1 + t[-1]) + 100.0).astype(
        np.float32
    ).reshape(shape)


@pytest.fixture(params=ALL_VARIANTS)
def codec(request):
    return get_variant(request.param)


class TestRoundTripShapes:
    @pytest.mark.parametrize("shape", [(240,), (12, 20), (3, 4, 20)])
    def test_shape_and_dtype_preserved(self, codec, shape):
        data = _smooth(shape)
        out = codec.decompress(codec.compress(data))
        assert out.shape == data.shape
        assert out.dtype == data.dtype

    def test_float64_support_matches_properties(self, codec):
        data = _smooth((10, 16)).astype(np.float64)
        if codec.properties().bits_32_and_64:
            out = codec.decompress(codec.compress(data))
            assert out.shape == data.shape
            assert out.dtype == np.float64
        else:
            with pytest.raises(TypeError):
                codec.compress(data)

    def test_lossless_claim_is_honest(self, codec):
        data = _smooth((12, 20))
        if codec.is_lossless:
            out = codec.decompress(codec.compress(data))
            np.testing.assert_array_equal(out, data)


class TestFingerprints:
    def test_stable_across_instances(self, codec):
        again = get_variant(codec.variant)
        assert codec.fingerprint() == again.fingerprint()

    def test_divergence_on_param_change(self):
        # Every registered variant must derive a distinct cache identity:
        # two variants with colliding fingerprints would share store
        # artifacts and silently serve each other's reconstructions.
        prints = {
            name: json.dumps(get_variant(name).fingerprint(), sort_keys=True)
            for name in ALL_VARIANTS
        }
        seen: dict[str, str] = {}
        for name, fp in prints.items():
            assert fp not in seen, (
                f"{name} and {seen.get(fp)} share a fingerprint"
            )
            seen[fp] = name


class TestDegenerateInputs:
    def test_empty_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.compress(np.empty(0, dtype=np.float32))

    def test_scalar_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.compress(np.float32(3.5))

    def test_constant_field(self, codec):
        data = np.full((8, 16), 3.25, dtype=np.float32)
        out = codec.decompress(codec.compress(data))
        assert out.shape == data.shape
        assert out.dtype == data.dtype
        assert np.isfinite(out).all()

    def test_single_element(self, codec):
        data = np.array([1.5], dtype=np.float32)
        out = codec.decompress(codec.compress(data))
        assert out.shape == (1,)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()

    def test_non_contiguous_matches_contiguous(self, codec):
        base = _smooth((16, 24))
        view = base[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        blob_view = codec.compress(view)
        blob_copy = codec.compress(np.ascontiguousarray(view))
        np.testing.assert_array_equal(
            codec.decompress(blob_view), codec.decompress(blob_copy)
        )

    def test_nan_input_behaves(self, codec):
        data = _smooth((8, 16))
        data[::3, ::5] = np.nan
        try:
            out = codec.decompress(codec.compress(data))
        except (ValueError, TypeError):
            return  # rejecting NaN with a clear error satisfies the contract
        assert out.shape == data.shape
        assert out.dtype == data.dtype
        # A codec that accepts NaN keeps it in place and must not let it
        # corrupt the finite points around it.
        nan = np.isnan(data)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert np.isfinite(out[~nan]).all()

    def test_inf_input_behaves(self, codec):
        data = _smooth((8, 16))
        data[2, 3] = np.inf
        data[5, 11] = -np.inf
        try:
            out = codec.decompress(codec.compress(data))
        except (ValueError, TypeError):
            return  # rejecting infinities with a clear error is allowed
        assert out.shape == data.shape
        assert out.dtype == data.dtype
        # A codec that accepts +-inf restores each one exactly, in place,
        # and keeps every finite point finite.
        inf = np.isinf(data)
        np.testing.assert_array_equal(out[inf], data[inf])
        np.testing.assert_array_equal(np.isinf(out), inf)
        assert np.isfinite(out[~inf]).all()

    def test_fill_values_pass_through(self, codec):
        data = _smooth((8, 16))
        mask = np.zeros(data.shape, dtype=bool)
        mask[::4, ::3] = True
        data[mask] = np.float32(FILL_VALUE)
        out = codec.decompress(codec.compress(data))
        assert out.shape == data.shape
        assert np.isfinite(out).all()
        if codec.properties().special_values:
            assert (out[mask] == np.float32(FILL_VALUE)).all()


class TestStreamingParity:
    def test_chunk_fold_matches_batch(self, codec):
        # The streaming pipeline compresses the same first-axis chunks the
        # batch loop does, so its folded error metrics must agree with a
        # direct whole-array computation to float64 round-off.
        data = _smooth((12, 10, 24))
        chunks = [data[i:i + 3] for i in range(0, 12, 3)]
        out = stream_roundtrip(codec, iter(chunks))
        recon = np.concatenate(
            [codec.decompress(codec.compress(c)) for c in chunks]
        )
        x = data.astype(np.float64).reshape(-1)
        y = recon.astype(np.float64).reshape(-1)
        err = x - y
        rmse = float(np.sqrt(np.mean(err ** 2)))
        e_max = float(np.abs(err).max())
        rho = 1.0 if np.array_equal(x, y) else float(np.corrcoef(x, y)[0, 1])
        assert out.n_points == data.size
        assert out.errors.rmse == pytest.approx(rmse, rel=1e-9, abs=1e-12)
        assert out.errors.e_max == pytest.approx(e_max, rel=1e-9, abs=1e-12)
        assert out.errors.pearson == pytest.approx(rho, rel=1e-9)
