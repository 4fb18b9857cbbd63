"""The vectorized lossy stages against the loops they replaced.

APAX's ``_quantize_blocks`` and BitRound's ``estimate_keepbits`` are
held to test-local copies of their former per-column and per-plane
loops: the APAX ``_Blocks`` must agree field by field, the keepbits
exactly.  Inputs: every catalog variable on the test grid, in float32
and float64, and the edge cases each kernel special-cases.  ISABELA's
``reconstruct`` reads its lossy stage's own sorted-domain values; a test
pins that it never re-evaluates the splines, while ``decompress`` must.
"""

import zlib

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import Apax, Isabela, estimate_keepbits
from repro.compressors import isabela as isabela_module
from repro.compressors.apax import _BLOCK, _DELTA_GAIN, _Blocks, _exponent_of
from repro.compressors.bitround import _MANTISSA, _MI_FLOOR, _UINT
from repro.config import FILL_VALUE

APAX_CODECS = [Apax(rate=2), Apax(rate=4), Apax(rate=5), Apax(quality_db=40)]


def _loop_quantize_blocks(codec: Apax, values: np.ndarray) -> _Blocks:
    """``Apax._quantize_blocks`` as a loop over all 31 body columns."""
    width = values.dtype.itemsize * 8
    n = values.size
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    padded = np.zeros(n_blocks * _BLOCK, dtype=np.float64)
    padded[:n] = values.astype(np.float64, copy=False)
    blocks = padded.reshape(n_blocks, _BLOCK)

    deltas = np.diff(blocks, axis=1)
    peak_raw = np.abs(blocks).max(axis=1)
    peak_delta = np.abs(deltas).max(axis=1)
    head_peak = np.abs(blocks[:, 0])
    raw_exp = _exponent_of(peak_raw)
    e_delta = _exponent_of(peak_delta) + (peak_delta > 0)
    delta_mode = (peak_delta * _DELTA_GAIN < peak_raw) & (
        raw_exp - e_delta <= 40
    )
    e_head = raw_exp
    e_body = np.where(delta_mode, e_delta, raw_exp)

    exps = np.concatenate([e_head, e_body])
    exp_dtype = np.int8 if (
        exps.min() >= -128 and exps.max() <= 127
    ) else np.int16
    exp_blob = zlib.compress(exps.astype(exp_dtype, copy=False).tobytes(), 4)
    n_delta = int(delta_mode.sum())
    overhead_bits = 8 * (
        len(exp_blob) + (n_blocks + 7) // 8 + 240 + n_blocks // 16
    ) + n_delta * 18
    widths = codec._mantissa_plan(
        head_peak, np.where(delta_mode, peak_delta, peak_raw),
        width, n, overhead_bits,
        prediction_gain_bits=(raw_exp - e_body),
    )

    m1 = (widths - 1).astype(np.float64, copy=False)
    zero_w = widths == 0
    limit = np.maximum(np.exp2(m1) - 1, 0.0)
    head_step = np.exp2(e_head - m1)
    body_step = np.exp2(e_body - m1)

    q = np.zeros((n_blocks, _BLOCK), dtype=np.int64)
    q0 = np.clip(np.rint(blocks[:, 0] / head_step), -limit, limit)
    q[:, 0] = np.where(zero_w | delta_mode, 0, q0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        head_raw = np.where(body_step > 0, blocks[:, 0] / body_step, 0.0)
    head_q = np.where(delta_mode, np.rint(head_raw), 0.0).astype(np.int64)
    head_dequant = head_q * body_step
    recon_prev = np.where(delta_mode, head_dequant, q[:, 0] * head_step)
    for col in range(1, _BLOCK):
        target = np.where(
            delta_mode, blocks[:, col] - recon_prev, blocks[:, col]
        )
        qc = np.clip(np.rint(target / body_step), -limit, limit)
        qc = np.where(zero_w, 0, qc).astype(np.int64)
        q[:, col] = qc
        dequant = qc * body_step
        recon_prev = np.where(delta_mode, recon_prev + dequant, dequant)

    return _Blocks(n, e_head, e_body, delta_mode, widths, q,
                   head_q[delta_mode], exp_blob,
                   1 if exp_dtype is np.int8 else 2)


def _loop_keepbits(values: np.ndarray, ratio: float = 0.99) -> int:
    """``estimate_keepbits`` with a ``bincount`` of pair codes per plane."""
    values = np.asarray(values)
    mant = _MANTISSA[values.dtype]
    x = np.ascontiguousarray(values).reshape(-1)
    usable = np.isfinite(x) & (x != x.dtype.type(FILL_VALUE))
    x = x[usable]
    if x.size < 2:
        return mant
    bits = x.view(_UINT[values.dtype])
    n_pairs = x.size - 1
    floor = _MI_FLOOR / n_pairs
    info = np.zeros(mant)
    for plane in range(mant):
        shift = np.uint64(mant - 1 - plane)
        b = ((bits >> bits.dtype.type(shift)) & bits.dtype.type(1)).astype(
            np.int64, copy=False
        )
        joint = np.bincount(2 * b[:-1] + b[1:], minlength=4) / n_pairs
        pa = joint[2] + joint[3], joint[0] + joint[1]
        pb = joint[1] + joint[3], joint[0] + joint[2]
        mi = 0.0
        for idx, p in enumerate(joint):
            if p > 0:
                mi += p * np.log2(p / (pa[idx < 2] * pb[idx % 2 == 0]))
        info[plane] = mi if mi > floor else 0.0
    noise_onset = np.flatnonzero(info == 0.0)
    if noise_onset.size:
        info[noise_onset[0]:] = 0.0
    total = info.sum()
    if total <= 0.0:
        return 1
    cum = np.cumsum(info)
    return int(np.searchsorted(cum, ratio * total) + 1)


def _assert_same_blocks(codec, data, label):
    values = np.ascontiguousarray(data).reshape(-1)
    got = codec._quantize_blocks(values)
    expected = _loop_quantize_blocks(codec, values)
    for field in _Blocks._fields:
        a, b = getattr(got, field), getattr(expected, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, (label, field)
            np.testing.assert_array_equal(a, b, err_msg=f"{label} {field}")
        else:
            assert a == b, (label, field)
    return got


def _smooth(n, dtype=np.float32, periods=1.0):
    t = np.linspace(0.0, 6.0 * periods, n)
    return (250.0 + 20.0 * np.sin(t)).astype(dtype)


class TestApaxOracle:
    @pytest.mark.parametrize("codec", APAX_CODECS,
                             ids=lambda c: c.variant)
    def test_catalog_variables(self, codec, catalog_fields):
        for name, field in catalog_fields.items():
            for dtype in (np.float32, np.float64):
                _assert_same_blocks(codec, field.astype(dtype),
                                    f"{name} {np.dtype(dtype)}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_raw(self, rng, dtype):
        data = rng.normal(0.0, 1.0, 32 * 20 + 7).astype(dtype)
        blocks = _assert_same_blocks(Apax(rate=4), data, "noise")
        assert not blocks.delta_mode.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_dpcm(self, dtype):
        blocks = _assert_same_blocks(Apax(rate=4), _smooth(32 * 20, dtype),
                                     "smooth")
        assert blocks.delta_mode.all()

    def test_zero_width_blocks(self, rng):
        # At a rate far beyond the side information's share, the
        # budget leaves no mantissa bits, raw or DPCM.
        data = np.concatenate([_smooth(32 * 8),
                               rng.normal(0.0, 1.0, 32 * 8)])
        data = data.astype(np.float32)
        blocks = _assert_same_blocks(Apax(rate=200), data, "zero-width")
        assert (blocks.widths == 0).all()
        assert blocks.delta_mode.any() and not blocks.delta_mode.all()
        assert not blocks.q.any()

    def test_some_zero_width_blocks(self, rng):
        # Just past 32:1 the budget gives the largest blocks (the DPCM
        # ones here) one mantissa bit and the rest none.
        data = np.concatenate([_smooth(32 * 400, periods=10.0),
                               rng.normal(0.0, 1.0, 32 * 400)])
        data = data.astype(np.float32)
        blocks = _assert_same_blocks(Apax(rate=36), data, "some zero")
        dpcm_widths = blocks.widths[blocks.delta_mode]
        assert (dpcm_widths == 0).any() and (dpcm_widths == 1).any()

    def test_quality_mode_mixed_blocks(self, rng):
        data = np.concatenate([_smooth(32 * 6),
                               rng.normal(250.0, 30.0, 32 * 6)])
        for db in (20, 60, 120):
            blocks = _assert_same_blocks(Apax(quality_db=db),
                                         data.astype(np.float32), f"{db}dB")
            assert blocks.delta_mode.any() and not blocks.delta_mode.all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fill_values(self, dtype):
        data = _smooth(32 * 10 + 5, dtype)
        data[::13] = FILL_VALUE
        for codec in APAX_CODECS:
            _assert_same_blocks(codec, data, codec.variant)

    def test_huge_float64_values(self, rng):
        data = rng.normal(0.0, 1e200, 32 * 6)
        for codec in APAX_CODECS:
            _assert_same_blocks(codec, data, codec.variant)


class TestKeepbitsOracle:
    def test_catalog_variables(self, catalog_fields):
        for name, field in catalog_fields.items():
            for dtype in (np.float32, np.float64):
                data = field.astype(dtype)
                assert estimate_keepbits(data) == _loop_keepbits(data), name
            data = field.astype(np.float32)
            assert (estimate_keepbits(data, 0.9)
                    == _loop_keepbits(data, 0.9)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_noise_and_smooth(self, rng, dtype):
        for data in (rng.normal(0.0, 1.0, 5000).astype(dtype),
                     _smooth(5000, dtype),
                     np.cumsum(rng.normal(size=4000)).astype(dtype)):
            assert estimate_keepbits(data) == _loop_keepbits(data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fill_and_non_finite(self, rng, dtype):
        data = np.cumsum(rng.normal(size=3000)).astype(dtype)
        data[::7] = FILL_VALUE
        data[5::11] = np.nan
        data[3] = np.inf
        assert estimate_keepbits(data) == _loop_keepbits(data)

    @pytest.mark.parametrize("data", [
        np.array([], dtype=np.float32),
        np.array([1.5], dtype=np.float32),
        np.array([FILL_VALUE, 2.0, np.nan], dtype=np.float32),
        np.array([np.nan, 2.0], dtype=np.float64),
    ], ids=["empty", "single", "one-usable-f32", "one-usable-f64"])
    def test_fewer_than_two_usable_points(self, data):
        assert estimate_keepbits(data) == _loop_keepbits(data) \
            == _MANTISSA[data.dtype]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_field(self, dtype):
        data = np.full(1000, 3.25, dtype=dtype)
        assert estimate_keepbits(data) == _loop_keepbits(data) == 1


class TestIsabelaReconstruct:
    @pytest.mark.parametrize("tail", [700, 10])
    def test_reconstruct_does_not_restore(self, rng, monkeypatch, tail):
        # Full windows with and without escapes, then a spline or raw tail.
        data = np.concatenate([rng.normal(250.0, 30.0, 1024),
                               10.0 ** rng.uniform(-9, 9, 1024),
                               rng.normal(250.0, 30.0, tail)])
        data = data.astype(np.float32)
        codec = Isabela(rel_error_pct=0.5)
        blob = codec.compress(data)
        expected = codec.decompress(blob)

        def refuse(*args, **kwargs):
            raise AssertionError("_restore re-evaluated the splines")

        monkeypatch.setattr(isabela_module, "_restore", refuse)
        # The sanitizer checks reconstruct against the full round trip,
        # which runs the decoder's restore.
        with sanitized(False):
            got = codec.reconstruct(data)
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(AssertionError, match="re-evaluated"):
            codec.decompress(blob)
