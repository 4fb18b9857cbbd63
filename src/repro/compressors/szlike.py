"""SZ-style error-bounded predictor-quantizer codec.

Follows the SZ family of error-bounded compressors (Di & Cappello; see
also "Error bounded compression for weather and climate applications"):

1. quantize each value onto a uniform lattice with spacing ``2 * eb``,
   where ``eb`` is the user's absolute bound (or the relative bound
   scaled by the field's finite, non-fill value range) — rounding to the
   nearest lattice point bounds the error by ``eb`` by construction; the
   ``pw`` mode instead quantizes ``ln|x|`` on a uniform lattice (SZ's
   PW_REL), which bounds the *pointwise* relative error — the right
   shape for tracer-like fields spanning many decades, where a
   range-relative bound either fails the acceptance tests or wastes
   bits;
2. predict each lattice code from its neighbours (2-D Lorenzo over
   levels x columns when a layout is available, first-order delta
   otherwise) and entropy code the zigzagged residuals with whichever of
   three backends is smallest: Golomb-Rice or shuffle+DEFLATE (the
   shared :mod:`repro.encoding.residuals` back-end), or a noise-plane
   split (:mod:`repro.encoding.bitplane`) that stores the
   incompressible low bit planes raw and DEFLATEs only the skewed high
   planes;
3. store *unpredictable* points — non-finite values, the CESM fill
   value, codes that overflow the lattice, or points whose dequantized
   value would violate the bound after rounding to the target dtype —
   bit-exactly in an escape stream (bitmap + shuffle+DEFLATE).

Because every non-escape point is checked against the bound at encode
time with the exact dequantization expression the decoder uses, the
reconstruction satisfies ``max|x - x_hat| <= eb`` unconditionally.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.bitplane import (
    candidate_splits,
    split_decode,
    split_encode,
)
from repro.compressors.prediction import (
    delta_decode,
    delta_encode,
    lorenzo2d_decode,
    lorenzo2d_encode,
)
from repro.config import FILL_VALUE
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.deflate import deflate, inflate
from repro.encoding.residuals import decode_residuals, encode_residuals
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["SzLike"]

#: Residual mode of the noise-plane split; 0 and 1 are the shared
#: back-end's Rice and DEFLATE modes (:mod:`repro.encoding.residuals`).
_MODE_SPLIT = 2

#: DEFLATE level of the escape stream and the split high planes.
_LEVEL = 4

_DOMAIN_LINEAR = 0
_DOMAIN_LOG = 1

#: Lattice codes at or beyond this magnitude take the escape path; far
#: below 2**63 so the int64 prediction arithmetic can never overflow.
_CODE_CAP = float(1 << 40)

# mode, residual width, lattice domain, ncols, lattice step
_META = struct.Struct("<BBBId")


def _dequantize(codes: np.ndarray, step: float, dtype: np.dtype) -> np.ndarray:
    """Lattice codes back to floats — the decoder's exact expression.

    The encoder validates its bound against this same function, so any
    rounding introduced by the float64 multiply or the cast to ``dtype``
    is accounted for before a point is allowed to skip the escape path.
    """
    return (codes.astype(np.float64, copy=False) * step).astype(
        dtype, copy=False
    )


def _dequantize_log(
    codes: np.ndarray, step: float, dtype: np.dtype
) -> np.ndarray:
    """Log-lattice codes back to magnitudes — the decoder's expression.

    Signs travel separately (a packed bitmask section) because the
    lattice lives on ``ln|x|``; zeros and sign flips the mask cannot
    express ride the escape stream.
    """
    with np.errstate(over="ignore"):
        return np.exp(codes.astype(np.float64, copy=False) * step).astype(
            dtype, copy=False
        )


class _Lattice(NamedTuple):
    """What the decoder recovers from a payload: the lossy stage's output.

    ``neg`` (log domain) and ``escape`` are point masks, or ``None``
    where the payload has no such section; ``escaped`` holds the escaped
    points' exact values in mask order.
    """

    codes: np.ndarray
    domain: int
    step: float
    neg: np.ndarray | None
    escape: np.ndarray | None
    escaped: np.ndarray | None


def _restore(lat: _Lattice, dtype: np.dtype) -> np.ndarray:
    """Lattice back to values: dequantize, apply signs, put escapes back."""
    if lat.domain == _DOMAIN_LOG:
        out = _dequantize_log(lat.codes, lat.step, dtype)
        if lat.neg is not None:
            out[lat.neg] = -out[lat.neg]
    elif lat.domain == _DOMAIN_LINEAR:
        out = _dequantize(lat.codes, lat.step, dtype)
    else:
        raise ValueError(f"unknown SZ lattice domain {lat.domain}")
    if lat.escape is not None:
        out[lat.escape] = lat.escaped
    return out


def _unpack_mask(reader: SectionReader, name: str,
                 count: int) -> np.ndarray | None:
    """A packed, zlib-compressed point mask section, if present."""
    if name not in reader:
        return None
    packed = np.frombuffer(zlib.decompress(reader.get(name)), dtype=np.uint8)
    return np.unpackbits(packed, count=count).astype(bool)


class SzLike(Compressor):
    """Error-bounded predictor-quantizer with a hard reconstruction bound.

    Parameters
    ----------
    bound:
        The error bound: with ``mode="abs"`` the maximum absolute
        reconstruction error; with ``mode="rel"`` a fraction of the
        field's value range (max - min over finite, non-fill points);
        with ``mode="pw"`` the maximum *pointwise* relative error
        ``|x - x_hat| <= bound * |x|`` (SZ's PW_REL, via a uniform
        lattice on ``ln|x|``).
    mode:
        ``"abs"``, ``"rel"``, or ``"pw"``.
    predictor:
        ``"lorenzo"`` (2-D, degrades to delta on 1-D inputs) or
        ``"delta"``.
    """

    name = "SZ"

    def __init__(self, bound: float = 1e-3, mode: str = "rel",
                 predictor: str = "lorenzo"):
        bound = float(bound)
        if not np.isfinite(bound) or bound <= 0:
            raise ValueError(f"bound must be a positive finite number, "
                             f"got {bound}")
        if mode not in ("abs", "rel", "pw"):
            raise ValueError(
                f"mode must be 'abs', 'rel', or 'pw', got {mode!r}"
            )
        if predictor not in ("delta", "lorenzo"):
            raise ValueError(
                f"predictor must be 'delta' or 'lorenzo', got {predictor!r}"
            )
        self.bound = bound
        self.mode = mode
        self.predictor = predictor

    @property
    def variant(self) -> str:
        """Table label: SZ-<mode>-<bound>, plus the predictor suffix."""
        suffix = "" if self.predictor == "lorenzo" else "-delta"
        return f"SZ-{self.mode}-{self.bound:g}{suffix}"

    def _absolute_bound(self, finite_values: np.ndarray) -> float:
        """Resolve the configured bound to an absolute error bound.

        Relative bounds scale by the value range of the finite, non-fill
        points (constant fields fall back to the peak magnitude so the
        bound stays meaningful).  Returns 0.0 when no usable bound
        exists — the encoder then routes every point through the escape
        stream, which keeps the guarantee trivially.
        """
        if self.mode == "abs":
            return self.bound
        if not finite_values.size:
            return 0.0
        lo = float(finite_values.min())
        hi = float(finite_values.max())
        span = hi - lo
        if not np.isfinite(span):
            return 0.0
        if span == 0.0:
            span = max(abs(lo), abs(hi))
        eb = self.bound * span
        return eb if np.isfinite(eb) and eb > 0 else 0.0

    def _encode_with_shape(self, values: np.ndarray,
                           shape: tuple[int, ...]) -> bytes:
        ncols = shape[-1] if len(shape) >= 2 else 0
        return self._encode_values(values, ncols=ncols)

    def _quantize_linear(
        self, x: np.ndarray, dtype: np.dtype, finite: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Uniform lattice on the values themselves (abs / rel modes)."""
        eb = self._absolute_bound(x[finite])
        step = 2.0 * eb
        codes = np.zeros(x.shape, dtype=np.int64)
        if eb <= 0.0:
            return codes, np.zeros(x.shape, dtype=bool), step
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = x / step
        in_range = finite & (np.abs(scaled) < _CODE_CAP)
        codes[in_range] = np.rint(scaled[in_range]).astype(
            np.int64, copy=False
        )
        # A cast overflow here just lands the point on the escape path
        # (err comes out inf), so the warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            recon = _dequantize(codes, step, dtype)
            err = np.abs(recon.astype(np.float64, copy=False) - x)
        return codes, in_range & (err <= eb), step

    def _quantize_log(
        self, x: np.ndarray, dtype: np.dtype, finite: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Uniform lattice on ``ln|x|`` (pw mode).

        ``step = 2 * log1p(bound)`` makes the nearest lattice magnitude
        at most a factor ``1 + bound`` away, so the pointwise relative
        bound holds by construction; the handful of points the float64
        exp / dtype cast pushes marginally over simply escape.  Zeros
        have no logarithm and always escape.
        """
        step = 2.0 * float(np.log1p(self.bound))
        absx = np.abs(x)
        codes = np.zeros(x.shape, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.log(absx) / step
        in_range = finite & (absx > 0.0) & (np.abs(scaled) < _CODE_CAP)
        codes[in_range] = np.rint(scaled[in_range]).astype(
            np.int64, copy=False
        )
        mag = _dequantize_log(codes, step, dtype).astype(
            np.float64, copy=False
        )
        err = np.abs(np.where(x < 0.0, -mag, mag) - x)
        return codes, in_range & (err <= self.bound * absx), step

    def _lattice(self, values: np.ndarray) -> _Lattice:
        """The lossy stage: lattice codes, signs and escapes."""
        x = values.astype(np.float64, copy=False)
        fill = values == values.dtype.type(FILL_VALUE)
        finite = np.isfinite(x) & ~fill
        if self.mode == "pw":
            domain = _DOMAIN_LOG
            codes, ok, step = self._quantize_log(x, values.dtype, finite)
        else:
            domain = _DOMAIN_LINEAR
            codes, ok, step = self._quantize_linear(x, values.dtype, finite)
        escape = ~ok
        codes[escape] = 0
        neg = ok & (x < 0.0) if domain == _DOMAIN_LOG else None
        return _Lattice(codes, domain, step, neg, escape, values[escape])

    def _encode_values(self, values: np.ndarray, ncols: int = 0) -> bytes:
        lat = self._lattice(values)
        use_lorenzo = (
            self.predictor == "lorenzo" and ncols > 1
            and values.size % ncols == 0 and values.size > ncols
        )
        if use_lorenzo:
            signed = lorenzo2d_encode(lat.codes.reshape(-1, ncols)).ravel()
        else:
            ncols = 0
            signed = delta_encode(lat.codes)
        residuals = zigzag_encode(signed)

        mode, width, payload = encode_residuals(residuals)
        for k in candidate_splits(residuals):
            split_payload = split_encode(residuals, k, _LEVEL)
            if len(split_payload) < len(payload):
                mode, payload, width = _MODE_SPLIT, split_payload, 0

        writer = SectionWriter()
        writer.add("meta", _META.pack(mode, width, lat.domain, ncols,
                                      lat.step))
        writer.add("q", payload)
        if lat.neg is not None and lat.neg.any():
            writer.add("sgn",
                       zlib.compress(np.packbits(lat.neg).tobytes(), 4))
        if lat.escape.any():
            writer.add("emask",
                       zlib.compress(np.packbits(lat.escape).tobytes(), 4))
            writer.add("eval", deflate(lat.escaped.tobytes(), _LEVEL,
                                       itemsize=values.dtype.itemsize))
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        mode, width, domain, ncols, step = _META.unpack(reader.get("meta"))
        body = reader.get("q")
        if mode == _MODE_SPLIT:
            residuals = split_decode(body, count)
        else:
            residuals = decode_residuals(mode, width, body, count, "SZ")
        signed = zigzag_decode(residuals)
        if ncols:
            codes = lorenzo2d_decode(signed.reshape(-1, ncols)).ravel()
        else:
            codes = delta_decode(signed)
        neg = _unpack_mask(reader, "sgn", count)
        escape = _unpack_mask(reader, "emask", count)
        escaped = None
        if escape is not None:
            raw = inflate(reader.get("eval"),
                          itemsize=np.dtype(dtype).itemsize)
            escaped = np.frombuffer(raw, dtype=dtype)
        return _restore(_Lattice(codes, domain, step, neg, escape, escaped),
                        dtype)

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        return _restore(self._lattice(values), values.dtype)

    @classmethod
    def properties(cls) -> CodecProperties:
        """SZ's Table 1 row: bounded error (fixed quality), special
        values via the bit-exact escape stream, variable rate."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=False,
            special_values=True,
            freely_available=True,
            fixed_quality=True,
            fixed_cr=False,
            bits_32_and_64=True,
        )
