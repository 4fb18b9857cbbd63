"""APAX-style fixed-rate block floating-point codec with predictive mode.

Models Samplify's APAX (paper Section 3.2.4).  "Like fpzip, APAX also uses
predictive encoding": each 32-sample block is stored either *raw* or as
*first differences* (whichever has the smaller dynamic range — smooth
climate fields gain several effective mantissa bits from differencing),
with a shared block exponent and a signed fixed-point mantissa per sample.

Two operating modes mirror the commercial product's signature features:

- **fixed rate** (``Apax(rate=4)``): a closed-loop rate controller picks
  per-block mantissa widths so the payload lands on the target ratio
  (the paper's APAX-2/-4/-5 rows show CR .50/.25/.20 on every variable),
  padding if the data would compress better than the budget;
- **fixed quality** (``Apax(quality_db=...)``): a uniform
  signal-to-residual target per block, with the rate left floating.

:class:`ApaxProfiler` reimplements the "APAX profiler" the paper leans on:
it sweeps encoding rates on sample data and recommends the highest rate
whose reconstruction keeps the Pearson correlation above 0.99999.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.bitio import pack_fixed, unpack_fixed
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.rice import rice_decode, rice_encode
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["Apax", "ApaxProfiler"]

_BLOCK = 32
_MAX_MANTISSA_BITS = 32
#: Differenced storage must shrink the dynamic range by this factor to be
#: worth the cumulative-error cost of the in-block integration at decode.
_DELTA_GAIN = 16.0


def _exponent_of(peak: np.ndarray) -> np.ndarray:
    """frexp exponent of each peak magnitude (0 where the peak is 0)."""
    exp = np.zeros(peak.shape, dtype=np.int64)
    nonzero = peak > 0
    exp[nonzero] = np.frexp(peak[nonzero])[1]
    return exp


class _Blocks(NamedTuple):
    """What the decoder recovers: per-block exponents, DPCM flags and
    mantissa widths, the ``(n_blocks, _BLOCK)`` mantissas ``q``, and the
    fine-step heads of the DPCM blocks.  ``exp_blob``/``exp_size`` are
    the serialized exponents the rate controller measured."""

    n: int
    e_head: np.ndarray
    e_body: np.ndarray
    delta_mode: np.ndarray
    widths: np.ndarray
    q: np.ndarray
    head_q: np.ndarray
    exp_blob: bytes
    exp_size: int


def _restore(blocks: _Blocks, dtype: np.dtype) -> np.ndarray:
    """Mantissas back to values: scale by the block steps, seed the DPCM
    blocks with their heads and integrate them."""
    widths, q, delta_mode = blocks.widths, blocks.q, blocks.delta_mode
    m1 = (widths - 1).astype(np.float64, copy=False)
    coded = np.empty((widths.shape[0], _BLOCK), dtype=np.float64)
    coded[:, 0] = q[:, 0] * np.exp2(blocks.e_head - m1)
    if _BLOCK > 1:
        coded[:, 1:] = q[:, 1:] * np.exp2(blocks.e_body - m1)[:, None]
    coded = np.where((widths == 0)[:, None], 0.0, coded)

    n_delta = int(delta_mode.sum())
    if n_delta:
        body_step = np.exp2(blocks.e_body - m1)
        coded[delta_mode, 0] = blocks.head_q * body_step[delta_mode]

    out = coded
    if _BLOCK > 1 and n_delta:
        integrated = np.cumsum(coded, axis=1)
        out = np.where(delta_mode[:, None], integrated, coded)
    return out.ravel()[:blocks.n].astype(dtype, copy=False)


class Apax(Compressor):
    """Block floating-point coder with fixed-rate and fixed-quality modes.

    Exactly one of ``rate`` / ``quality_db`` must be given.

    Parameters
    ----------
    rate:
        Target compression factor (2 means 2:1, i.e. CR = 0.5).  May be
        fractional.  The emitted blob is padded to the byte budget, so the
        achieved CR equals ``1/rate`` (up to container framing).
    quality_db:
        Target per-block signal-to-residual ratio in dB; mantissa widths
        are fixed at ``ceil(quality_db / 6.02) + 1`` bits and the rate
        floats with the data.
    """

    name = "APAX"

    def __init__(self, rate: float | None = None,
                 quality_db: float | None = None):
        if (rate is None) == (quality_db is None):
            raise ValueError("specify exactly one of rate / quality_db")
        if rate is not None and rate < 1.0:
            raise ValueError(f"rate must be >= 1, got {rate}")
        if quality_db is not None and quality_db <= 0:
            raise ValueError(f"quality_db must be positive, got {quality_db}")
        self.rate = rate
        self.quality_db = quality_db

    @property
    def variant(self) -> str:
        """Table label: APAX-<rate> or APAX-q<dB>dB."""
        if self.rate is not None:
            return f"APAX-{self.rate:g}"
        return f"APAX-q{self.quality_db:g}dB"

    # -- rate control ------------------------------------------------------

    def _mantissa_plan(self, head_peak: np.ndarray, body_peak: np.ndarray,
                       width: int, n_values: int, overhead_bits: int,
                       prediction_gain_bits: np.ndarray) -> np.ndarray:
        """Per-block mantissa widths meeting the configured mode.

        ``overhead_bits`` is the *measured* size of the already-serialized
        side information (exponents, mode bits), so the rate controller
        spends exactly what remains of the byte budget on mantissas.
        ``prediction_gain_bits`` is the per-block dynamic-range reduction
        won by DPCM (raw exponent minus coded exponent): fixed-quality
        mode converts that gain into fewer stored bits.
        """
        n_blocks = head_peak.shape[0]
        if self.quality_db is not None:
            bits = int(np.ceil(self.quality_db / 6.02)) + 1
            per_block = np.clip(bits - prediction_gain_bits, 2,
                                _MAX_MANTISSA_BITS)
            return per_block.astype(np.int64)

        budget_bits = int(n_values * width / self.rate) - overhead_bits
        budget_bits = max(budget_bits, 0)
        base = min(budget_bits // (n_blocks * _BLOCK), _MAX_MANTISSA_BITS)
        widths = np.full(n_blocks, base, dtype=np.int64)
        if base < _MAX_MANTISSA_BITS:
            leftover = budget_bits - base * n_blocks * _BLOCK
            n_upgrade = min(leftover // _BLOCK, n_blocks)
            if n_upgrade > 0:
                # Spend the remainder where it matters: blocks with the
                # largest coded magnitudes get the extra mantissa bit.
                peak = np.maximum(head_peak, body_peak)
                upgrade = np.argsort(peak)[::-1][:n_upgrade]
                widths[upgrade] += 1
        return widths

    # -- encoding -----------------------------------------------------------

    def _quantize_blocks(self, values: np.ndarray) -> _Blocks:
        """The lossy stage: block exponents, widths and mantissas."""
        width = values.dtype.itemsize * 8
        n = values.size
        n_blocks = (n + _BLOCK - 1) // _BLOCK
        padded = np.zeros(n_blocks * _BLOCK, dtype=np.float64)
        padded[:n] = values.astype(np.float64, copy=False)
        blocks = padded.reshape(n_blocks, _BLOCK)

        # Predictive mode decision: DPCM-code the block when it is smooth
        # enough that the first-difference dynamic range is far smaller.
        deltas = np.diff(blocks, axis=1)
        peak_raw = np.abs(blocks).max(axis=1)
        if not np.isfinite(peak_raw).all():
            raise ValueError("APAX cannot encode NaN or inf: block exponents "
                             "and mantissas need finite samples")
        peak_delta = (
            np.abs(deltas).max(axis=1) if deltas.size else np.zeros(n_blocks)
        )
        head_peak = np.abs(blocks[:, 0])
        raw_exp = _exponent_of(peak_raw)
        # One bit of headroom on the DPCM step: the in-loop target is the
        # plain difference plus up to half a step of error feedback, so
        # without headroom the largest-delta sample would clip and the
        # clipping error would propagate through the rest of the block.
        e_delta = _exponent_of(peak_delta) + (peak_delta > 0)
        # Cap the prediction gain at 40 bits: beyond that the Rice-coded
        # head quantizer would overflow, and deltas that small are noise
        # at the stored precision anyway.
        delta_mode = (peak_delta * _DELTA_GAIN < peak_raw) & (
            raw_exp - e_delta <= 40
        )
        e_head = raw_exp
        e_body = np.where(delta_mode, e_delta, raw_exp)

        # Side information first: its exact serialized size feeds the rate
        # controller (exponents vary slowly, so they DEFLATE to a fraction
        # of their raw 2 bytes per block).
        exps = np.concatenate([e_head, e_body])
        # int8 covers float32 exponents (-126..128); float64 data can
        # exceed it, in which case we fall back to int16.
        exp_dtype = np.int8 if (
            exps.min() >= -128 and exps.max() <= 127
        ) else np.int16
        exp_blob = zlib.compress(exps.astype(exp_dtype, copy=False).tobytes(), 4)
        n_delta = int(delta_mode.sum())
        # DPCM blocks carry their first sample (the classic DPCM seed) in
        # a Rice-coded side stream quantized at the fine *body* step, so
        # the seed is as accurate as the deltas without costing a full
        # float32 per block; ~m+gain+2 bits each, estimated below.
        # Fixed framing: container + meta/wtab/streams sections ~ 240
        # bytes, plus the packed mode bits and the (highly compressible)
        # width table.
        overhead_bits = 8 * (
            len(exp_blob) + (n_blocks + 7) // 8 + 240 + n_blocks // 16
        ) + n_delta * 18

        widths = self._mantissa_plan(
            head_peak, np.where(delta_mode, peak_delta, peak_raw),
            width, n, overhead_bits,
            prediction_gain_bits=(raw_exp - e_body),
        )

        # Quantize column 0 against e_head; remaining columns against
        # e_body.  Delta blocks run DPCM with the quantizer in the loop
        # (the encoder tracks the decoder's state), so quantization error
        # does NOT accumulate across the block.
        m1 = (widths - 1).astype(np.float64, copy=False)
        limit = np.maximum(np.exp2(m1) - 1, 0.0)
        head_step = np.exp2(e_head - m1)
        body_step = np.exp2(e_body - m1)

        q = np.empty((n_blocks, _BLOCK), dtype=np.int64)
        q0 = np.clip(np.rint(blocks[:, 0] / head_step), -limit, limit)
        # Raw blocks quantize their head in-band; DPCM blocks carry it in
        # the fine-step Rice side stream, so the mantissa slot stays zero.
        q[:, 0] = np.where(delta_mode, 0, q0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            head_raw = np.where(body_step > 0, blocks[:, 0] / body_step, 0.0)
        head_q = np.where(delta_mode, np.rint(head_raw), 0.0).astype(np.int64)

        # Raw blocks: every body sample is quantized on its own.
        raw = ~delta_mode
        body = np.rint(blocks[raw, 1:] / body_step[raw, None])
        q[raw, 1:] = np.clip(body, -limit[raw, None], limit[raw, None])

        # DPCM blocks: one column at a time, each sample's target the
        # difference from the decoder's running reconstruction.  The
        # clip is np.maximum then np.minimum, which skip np.clip's Python
        # wrapper (a third of the loop's cost) and give the same integers.
        rows = np.flatnonzero(delta_mode)
        if rows.size:
            step, lim = body_step[rows], limit[rows]
            neg_lim = -lim
            cols = blocks[rows].T.copy()
            q_cols = np.zeros((_BLOCK, rows.size), dtype=np.int64)
            recon = head_q[rows] * step
            t = np.empty(rows.size)
            for col in range(1, _BLOCK):
                np.subtract(cols[col], recon, out=t)
                np.divide(t, step, out=t)
                np.rint(t, out=t)
                np.maximum(t, neg_lim, out=t)
                np.minimum(t, lim, out=t)
                q_cols[col] = t
                np.multiply(q_cols[col], step, out=t)
                np.add(recon, t, out=recon)
            q[rows] = q_cols.T
        # A zero-width block stores no mantissas.  Its clip limit is 0,
        # so its DPCM recursion above tracked the same state as the
        # decoder's all-zero one.
        q[widths == 0] = 0

        return _Blocks(n, e_head, e_body, delta_mode, widths, q,
                       head_q[delta_mode], exp_blob,
                       1 if exp_dtype is np.int8 else 2)

    def _encode_values(self, values: np.ndarray) -> bytes:
        blocks = self._quantize_blocks(values)
        widths = blocks.widths
        n, n_blocks = blocks.n, widths.shape[0]
        head_stream = rice_encode(zigzag_encode(blocks.head_q)) \
            if blocks.head_q.size else b""
        # Offset-binary storage: q + 2**(m-1) packs in m bits.  Blocks may
        # carry different widths (rate mode: base/base+1; quality mode:
        # anything), so values are packed per distinct width.
        offset = np.exp2(widths - 1).astype(np.int64)[:, None]
        stored = (blocks.q + offset).astype(np.uint64).ravel()
        per_value_width = np.repeat(widths, _BLOCK)

        writer = SectionWriter()
        writer.add("meta", struct.pack("<QIB", n, n_blocks, blocks.exp_size))
        writer.add("exp", blocks.exp_blob)
        writer.add("mode",
                   np.packbits(blocks.delta_mode.astype(np.uint8)).tobytes())
        writer.add("head", head_stream)
        writer.add("wtab", zlib.compress(widths.astype(np.uint8).tobytes(), 4))
        for w in np.unique(widths):
            w = int(w)
            writer.add(f"m{w}", pack_fixed(stored[per_value_width == w], w))
        blob = writer.tobytes()

        if self.rate is not None:
            # Pad to the fixed-rate contract (APAX guarantees the rate, not
            # "at most the rate").  The base class adds ~70 bytes of
            # container framing around this payload; leave room for it.
            framing = 76
            target = int(n * values.dtype.itemsize / self.rate) - framing
            pad = target - len(blob) - 12  # 12 = section framing for "pad"
            if pad > 0:
                writer.add("pad", b"\x00" * pad)
                blob = writer.tobytes()
        return blob

    # -- decoding -----------------------------------------------------------

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        n, n_blocks, exp_size = struct.unpack("<QIB", reader.get("meta"))
        if n != count:
            raise ValueError(f"blob holds {n} values, expected {count}")
        exp_dtype = {1: np.int8, 2: np.int16}.get(exp_size)
        if exp_dtype is None:
            raise ValueError(f"bad APAX exponent width {exp_size}")
        exps = np.frombuffer(
            zlib.decompress(reader.get("exp")), dtype=exp_dtype
        ).astype(np.int64)
        if exps.shape[0] != 2 * n_blocks:
            raise ValueError("APAX exponent stream has wrong length")
        e_head, e_body = exps[:n_blocks], exps[n_blocks:]
        delta_mode = np.unpackbits(
            np.frombuffer(reader.get("mode"), dtype=np.uint8), count=n_blocks
        ).astype(bool)
        widths = np.frombuffer(
            zlib.decompress(reader.get("wtab")), dtype=np.uint8
        ).astype(np.int64)
        if widths.shape[0] != n_blocks:
            raise ValueError("APAX width table has wrong length")
        per_value_width = np.repeat(widths, _BLOCK)

        total = n_blocks * _BLOCK
        stored = np.zeros(total, dtype=np.uint64)
        for w in np.unique(widths):
            w = int(w)
            mask = per_value_width == w
            stored[mask] = unpack_fixed(reader.get(f"m{w}"), w,
                                        int(mask.sum()))

        offset = np.exp2(widths - 1).astype(np.int64)[:, None]
        q = stored.reshape(n_blocks, _BLOCK).astype(np.int64) - offset

        # DPCM heads come from the fine-step Rice side stream.
        head_q = np.zeros(0, dtype=np.int64)
        if delta_mode.any():
            head_q = zigzag_decode(rice_decode(reader.get("head")))
            if head_q.shape[0] != int(delta_mode.sum()):
                raise ValueError("APAX head stream has wrong length")
        return _restore(_Blocks(n, e_head, e_body, delta_mode, widths, q,
                                head_q, b"", exp_size), dtype)

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        return _restore(self._quantize_blocks(values), values.dtype)

    @classmethod
    def properties(cls) -> CodecProperties:
        """APAX's Table 1 row: fixed quality and fixed CR, commercial."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,  # per Table 1, footnote: not for 64-bit
            special_values=False,
            freely_available=False,  # commercial product
            fixed_quality=True,
            fixed_cr=True,
            bits_32_and_64=True,
        )


class ApaxProfiler:
    """Sweep fixed rates and recommend the best one meeting a quality bar.

    Mirrors the paper's description: "the APAX profiler tool ... illustrates
    the quality of the reconstructed data and recommends encoding rates",
    with the recommended acceptance threshold rho >= 0.99999.
    """

    def __init__(self, rates: tuple[float, ...] = (2, 3, 4, 5, 6, 7, 8),
                 rho_threshold: float = 0.99999):
        if not rates:
            raise ValueError("rates must be non-empty")
        self.rates = tuple(sorted(rates))
        self.rho_threshold = rho_threshold

    def profile(self, data: np.ndarray) -> list[dict[str, float]]:
        """Compress ``data`` at each rate; report CR, rho, and NRMSE.

        ``data`` is a float32/float64 array of any shape; one row dict is
        returned per configured rate, in ascending rate order.
        """
        from repro.metrics.streaming import ErrorSummary

        rows = []
        for rate in self.rates:
            outcome = Apax(rate=rate).roundtrip(data)
            errors = ErrorSummary.of(data, outcome.reconstructed)
            rows.append({"rate": float(rate), "cr": outcome.cr,
                         "rho": errors.pearson, "nrmse": errors.nrmse})
        return rows

    def recommend(self, data: np.ndarray) -> float:
        """Highest rate whose reconstruction meets the rho threshold.

        ``data`` is a float32/float64 array of any shape.  Falls back to
        the lowest configured rate when nothing qualifies.
        """
        rows = self.profile(data)
        passing = [r["rate"] for r in rows if r["rho"] >= self.rho_threshold]
        return max(passing) if passing else min(self.rates)
