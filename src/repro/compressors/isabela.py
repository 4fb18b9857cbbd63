"""ISABELA-style sort-and-spline codec.

Follows Lakshminarasimhan et al. (paper Section 3.2.2): within each window
of ``window`` points (default 1024, the paper's recommendation) the data is
*sorted*, which turns an arbitrarily noisy signal into a smooth monotone
curve; that curve is fit with a least-squares cubic B-spline; the sort
permutation is stored explicitly so decode can undo it.  A per-point
relative-error bound is enforced by Rice-coded quantized corrections.

The permutation index is the dominant storage cost for single-precision
data (``log2(1024) = 10`` bits of the 32 per value), which reproduces the
paper's observation that ISABELA's compression ratio saturates around
0.36-0.57 and that its three error variants differ little in CR.

Like the original, the method is *local*: each window decodes independently
(`decode_window` exposes the random access the original advertises).
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.bitio import pack_fixed, unpack_fixed
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.rice import rice_decode, rice_encode
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["Isabela"]

_DEGREE = 3
#: Windows shorter than this are stored raw (a spline fit is pointless).
_MIN_SPLINE_WINDOW = 16
#: Absolute-error floor relative to the window's max magnitude, protecting
#: the relative-error bound from blowing up storage on near-zero values.
_EPS_FRACTION = 1e-7


@lru_cache(maxsize=32)
def _design_matrices(window: int, n_coeffs: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix A (window x n_coeffs) for a clamped uniform cubic
    B-spline on [0, 1], and its pseudo-inverse for least-squares fitting."""
    # Imported on first use (the cache makes that once per shape):
    # scipy.interpolate would otherwise load with the codec registry.
    from scipy.interpolate import BSpline

    t_interior = np.linspace(0.0, 1.0, n_coeffs - _DEGREE + 1)
    knots = np.concatenate(
        [np.zeros(_DEGREE), t_interior, np.ones(_DEGREE)]
    )
    x = np.linspace(0.0, 1.0, window)
    design = BSpline.design_matrix(x, knots, _DEGREE).toarray()
    pinv = np.linalg.pinv(design)
    return design, pinv


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")`` for finite rows:
    each row's sorting permutation, equal values (-0.0 and +0.0 among
    them) in index order.

    A float32 value maps to an unsigned integer key that sorts as the
    value does; with the point's index in the low bits, the keys are
    distinct, so one plain integer sort gives the stable order.  A
    float64 key leaves no bits for the index: float64 rows take the
    stable argsort itself.
    """
    if values.dtype != np.float32:
        return np.argsort(values, axis=-1, kind="stable")
    width = values.shape[-1]
    bits = max(1, (width - 1).bit_length())
    x = values + np.float32(0.0)  # -0.0 becomes +0.0
    # Flip every bit of a negative value, only the sign bit of the rest.
    flip = (x.view(np.int32) >> 31).view(np.uint32) | np.uint32(1 << 31)
    keys = (x.view(np.uint32) ^ flip).astype(np.uint64) << np.uint64(bits)
    keys |= np.arange(width, dtype=np.uint64)
    keys.sort(axis=-1)
    return (keys & np.uint64((1 << bits) - 1)).astype(np.intp)


def _index_width(window: int) -> int:
    return max(1, int(np.ceil(np.log2(window)))) if window > 1 else 1


class _Fit(NamedTuple):
    """What the decoder recovers from a payload: the lossy stage's output.

    ``order``/``coeffs`` are the full windows' sort permutations and
    float32 spline coefficients, ``order_t``/``coeffs_t`` the spline
    tail's (a tail too short for a spline is ``raw``, in float32); ``q``
    and ``eps`` are the correction codes and per-window floors, full
    windows first; ``esc_idx``/``esc_val`` the sorted-domain escapes.
    Absent parts are ``None``.
    """

    n: int
    window: int
    rel_error: float
    order: np.ndarray | None
    coeffs: np.ndarray | None
    order_t: np.ndarray | None
    coeffs_t: np.ndarray | None
    raw: np.ndarray | None
    q: np.ndarray | None
    eps: np.ndarray | None
    esc_idx: np.ndarray | None
    esc_val: np.ndarray | None


def _restore(fit: _Fit, dtype: np.dtype) -> np.ndarray:
    """Evaluate the splines, add the corrections, put the escapes back
    and undo each window's sort."""
    n, w = fit.n, fit.window
    n_full = n // w
    tail = n - n_full * w
    values = np.empty(n, dtype=np.float64)
    if n_full:
        coeffs = fit.coeffs.astype(np.float64, copy=True)
        design, _ = _design_matrices(w, coeffs.shape[1])
        recon = coeffs @ design.T
        eps = fit.eps[:n_full]
        step = fit.rel_error * np.maximum(np.abs(recon), eps[:, None])
        q = fit.q[: n_full * w].reshape(n_full, w)
        values[: n_full * w] = (recon + q * step).ravel()

    if tail:
        if fit.raw is not None:
            values[n_full * w:] = fit.raw
        else:
            design_t, _ = _design_matrices(tail, fit.coeffs_t.size)
            recon_t = design_t @ fit.coeffs_t.astype(np.float64, copy=True)
            eps_t = fit.eps[n_full]
            step_t = fit.rel_error * np.maximum(np.abs(recon_t), eps_t)
            values[n_full * w:] = recon_t + fit.q[n_full * w:] * step_t
    if fit.esc_idx is not None:
        values[fit.esc_idx] = fit.esc_val
    return _unsort(fit, values, dtype)


def _unsort(fit: _Fit, values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Put sorted-domain ``values`` (float64, full windows then the
    tail) back in each window's original order."""
    n, w = fit.n, fit.window
    n_sorted = (n // w) * w
    out = np.empty(n, dtype=np.float64)
    if fit.order is not None:
        np.put_along_axis(out[:n_sorted].reshape(fit.order.shape), fit.order,
                          values[:n_sorted].reshape(fit.order.shape), axis=1)
    if fit.order_t is not None:
        out[n_sorted:][fit.order_t] = values[n_sorted:]
    elif fit.raw is not None:
        out[n_sorted:] = values[n_sorted:]
    return out.astype(dtype, copy=False)


class Isabela(Compressor):
    """Sort + B-spline codec with a per-point relative error bound.

    Parameters
    ----------
    rel_error_pct:
        Per-point relative error in percent (the paper's 1.0 / 0.5 / 0.1).
    window:
        Sort window length (paper recommendation: 1024).
    n_coeffs:
        Cubic B-spline coefficients per full window.
    """

    name = "ISABELA"

    def __init__(
        self,
        rel_error_pct: float = 1.0,
        window: int = 1024,
        n_coeffs: int = 30,
    ):
        if rel_error_pct <= 0:
            raise ValueError(f"rel_error_pct must be positive, got {rel_error_pct}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if n_coeffs < _DEGREE + 1:
            raise ValueError(f"n_coeffs must be >= {_DEGREE + 1}, got {n_coeffs}")
        if n_coeffs > window:
            raise ValueError("n_coeffs cannot exceed the window length")
        self.rel_error = rel_error_pct / 100.0
        self.rel_error_pct = rel_error_pct
        self.window = window
        self.n_coeffs = n_coeffs

    @property
    def variant(self) -> str:
        """Table label: ISA-<relative error percent>."""
        label = f"{self.rel_error_pct:g}"
        if "." not in label:
            label += ".0"
        return f"ISA-{label}"

    def _fit(self, values: np.ndarray) -> tuple[_Fit, np.ndarray]:
        """The lossy stage: sort, spline fit, quantized corrections and
        escapes, per window.  Also returns the values the decoder will
        form before it undoes the sort (float64, full windows then the
        tail)."""
        if not np.isfinite(values).all():
            raise ValueError("ISABELA cannot encode NaN or inf: the "
                             "sorted-window spline needs finite samples")
        n = values.size
        w = self.window
        n_full = n // w
        tail = n - n_full * w

        order = coeffs = order_t = coeffs_t = raw = None
        sorted_recon = np.empty(n, dtype=np.float64)
        corrections: list[np.ndarray] = []
        steps: list[np.ndarray] = []
        escape_idx: list[np.ndarray] = []
        escape_val: list[np.ndarray] = []

        if n_full:
            block = values[: n_full * w].reshape(n_full, w)
            order = _stable_order(block)
            block = block.astype(np.float64, copy=False)
            sorted_vals = np.take_along_axis(block, order, axis=1)
            design, pinv = _design_matrices(w, self.n_coeffs)
            coeffs = sorted_vals @ pinv.T  # (n_full, n_coeffs)
            coeffs = coeffs.astype(np.float32, copy=False)
            recon = coeffs.astype(np.float64, copy=True) @ design.T
            q, eps, esc, recon = self._quantize_corrections(sorted_vals,
                                                            recon)
            sorted_recon[: n_full * w] = recon.ravel()
            corrections.append(q.ravel())
            steps.append(eps)
            if esc.any():
                flat = np.flatnonzero(esc.ravel())
                escape_idx.append(flat)
                escape_val.append(sorted_vals.ravel()[flat])

        if tail:
            tail_vals = values[n_full * w:].astype(np.float64, copy=False)
            if tail >= _MIN_SPLINE_WINDOW:
                k = min(self.n_coeffs, tail)
                k = max(k, _DEGREE + 1)
                order_t = _stable_order(values[n_full * w:])
                sorted_t = tail_vals[order_t]
                design_t, pinv_t = _design_matrices(tail, k)
                coeffs_t = (pinv_t @ sorted_t).astype(np.float32, copy=False)
                recon_t = design_t @ coeffs_t.astype(np.float64, copy=True)
                q_t, eps_t, esc_t, recon_t = self._quantize_corrections(
                    sorted_t[None, :], recon_t[None, :]
                )
                sorted_recon[n_full * w:] = recon_t.ravel()
                corrections.append(q_t.ravel())
                steps.append(eps_t)
                if esc_t.any():
                    flat = np.flatnonzero(esc_t.ravel())
                    escape_idx.append(flat + n_full * w)
                    escape_val.append(sorted_t[flat])
            else:
                raw = tail_vals.astype(np.float32, copy=False)
                sorted_recon[n_full * w:] = raw

        q_all = eps_all = esc_idx = esc_val = None
        if corrections:
            q_all = np.concatenate(corrections)
            eps_all = np.concatenate(steps)
        if escape_idx:
            esc_idx = np.concatenate(escape_idx)
            esc_val = np.concatenate(escape_val).astype(values.dtype,
                                                        copy=False)
        return _Fit(n, w, self.rel_error, order, coeffs, order_t, coeffs_t,
                    raw, q_all, eps_all, esc_idx, esc_val), sorted_recon

    def _encode_values(self, values: np.ndarray) -> bytes:
        fit, _ = self._fit(values)
        n, w = fit.n, fit.window
        tail = n - (n // w) * w
        writer = SectionWriter()
        writer.add("meta", struct.pack("<QIIdI", n, w, self.n_coeffs,
                                       fit.rel_error, tail))
        if fit.order is not None:
            writer.add("index", pack_fixed(fit.order.ravel().astype(np.uint64),
                                           _index_width(w)))
            writer.add("coeffs", fit.coeffs.tobytes())
        if fit.order_t is not None:
            writer.add("tindex", pack_fixed(fit.order_t.astype(np.uint64),
                                            _index_width(tail)))
            writer.add("tcoeffs", struct.pack("<I", fit.coeffs_t.size)
                       + fit.coeffs_t.tobytes())
        elif fit.raw is not None:
            writer.add("raw", fit.raw.tobytes())
        if fit.q is not None:
            writer.add("corr", rice_encode(zigzag_encode(fit.q)))
            writer.add("eps", fit.eps.tobytes())
        if fit.esc_idx is not None:
            writer.add("eidx", zlib.compress(
                fit.esc_idx.astype(np.uint64).tobytes(), 4))
            writer.add("eval", fit.esc_val.tobytes())
        return writer.tobytes()

    def _quantize_corrections(
        self, sorted_vals: np.ndarray, recon: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Quantize (sorted - recon) so the reconstructed point lands within
        the relative-error bound.

        The step is derived from the *spline* value (available at decode)
        with a per-window absolute floor.  Points the correction cannot
        bring within the bound (the spline can overshoot wildly near step
        discontinuities) are flagged for the exact-value escape list, so
        the per-point relative guarantee is unconditional.  Returns the
        codes, the floors, the escape mask and the values the decoder
        will rebuild: spline plus correction, escapes exact.
        """
        eps = _EPS_FRACTION * np.maximum(
            np.abs(sorted_vals).max(axis=1), np.finfo(np.float64).tiny
        )
        step = self.rel_error * np.maximum(np.abs(recon), eps[:, None])
        residual = sorted_vals - recon
        q = np.rint(residual / step).astype(np.int64)
        reconstructed = recon + q * step
        tol = self.rel_error * np.maximum(np.abs(sorted_vals), eps[:, None])
        escapes = np.abs(sorted_vals - reconstructed) > tol
        q[escapes] = 0
        # An escape is stored in the input's dtype, from which the
        # float64 sorted value came exactly.
        np.copyto(reconstructed, sorted_vals, where=escapes)
        return q, eps, escapes, reconstructed

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        n, w, n_coeffs, rel_error, tail = struct.unpack("<QIIdI",
                                                        reader.get("meta"))
        if n != count:
            raise ValueError(f"blob holds {n} values, expected {count}")
        n_full = (n - tail) // w

        q_all = eps_all = None
        if "corr" in reader:
            q_all = zigzag_decode(rice_decode(reader.get("corr")))
            eps_all = np.frombuffer(reader.get("eps"), dtype=np.float64)
        esc_idx, esc_val = self._read_escapes(reader, dtype)

        order = coeffs = order_t = coeffs_t = raw = None
        if n_full:
            order = unpack_fixed(reader.get("index"), _index_width(w),
                                 n_full * w).astype(np.int64)
            order = order.reshape(n_full, w)
            coeffs = np.frombuffer(reader.get("coeffs"), dtype=np.float32)
            coeffs = coeffs.reshape(n_full, n_coeffs)
        if tail:
            if "raw" in reader:
                raw = np.frombuffer(reader.get("raw"), dtype=np.float32)
            else:
                order_t = unpack_fixed(reader.get("tindex"),
                                       _index_width(tail), tail).astype(np.int64)
                coeffs_t = np.frombuffer(reader.get("tcoeffs")[4:],
                                         dtype=np.float32)
        return _restore(_Fit(n, w, rel_error, order, coeffs, order_t,
                             coeffs_t, raw, q_all, eps_all, esc_idx,
                             esc_val), dtype)

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        # Rice coding and the permutation index pack are lossless, and
        # the lossy stage already formed the decoder's sorted values.
        fit, sorted_recon = self._fit(values)
        return _unsort(fit, sorted_recon, values.dtype)

    @staticmethod
    def _read_escapes(reader: SectionReader, dtype):
        """Exact-value escape list (sorted-domain indices and values)."""
        if "eidx" not in reader:
            return None, None
        idx = np.frombuffer(zlib.decompress(reader.get("eidx")),
                            dtype=np.uint64).astype(np.int64)
        val = np.frombuffer(reader.get("eval"), dtype=dtype)
        if idx.shape[0] != val.shape[0]:
            raise ValueError("ISABELA escape streams disagree in length")
        return idx, val

    def decode_window(self, blob: bytes, window_index: int) -> np.ndarray:
        """Randomly access one full window of a compressed blob.

        This exercises ISABELA's signature capability (paper Section 3.2.2):
        "a subset of the data (instead of the entire dataset) can be
        decoded".  Only full windows are addressable.
        """
        reader = SectionReader(blob)
        head = reader.get("head")
        # Reuse the base-class framing: dtype code at offset 1, ndim at 3.
        dtype = np.dtype(head[1:3].decode())
        payload = SectionReader(reader.get("data"))
        n, w, n_coeffs, rel_error, tail = struct.unpack("<QIIdI",
                                                        payload.get("meta"))
        n_full = (n - tail) // w
        if not 0 <= window_index < n_full:
            raise IndexError(
                f"window_index {window_index} out of range 0..{n_full - 1}"
            )
        i = window_index
        width = _index_width(w)
        # Decode just this window's index, coefficients and corrections.
        index_bytes = payload.get("index")
        bits_per_window = width * w
        # Windows are bit-aligned one after another; slice at byte level by
        # decoding the containing byte range then trimming.
        start_bit = i * bits_per_window
        start_byte, bit_in_byte = divmod(start_bit, 8)
        end_byte = (start_bit + bits_per_window + 7) // 8
        chunk = index_bytes[start_byte:end_byte]
        bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))
        bits = bits[bit_in_byte : bit_in_byte + bits_per_window]
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        order = (bits.reshape(w, width).astype(np.uint64) << shifts).sum(
            axis=1, dtype=np.uint64
        ).astype(np.int64)

        coeffs = np.frombuffer(payload.get("coeffs"), dtype=np.float32)
        coeffs = coeffs.reshape(n_full, n_coeffs)[i].astype(np.float64,
                                                            copy=True)
        design, _ = _design_matrices(w, n_coeffs)
        recon = design @ coeffs
        q_all = zigzag_decode(rice_decode(payload.get("corr")))
        eps = np.frombuffer(payload.get("eps"), dtype=np.float64)[i]
        step = rel_error * np.maximum(np.abs(recon), eps)
        recon = recon + q_all[i * w : (i + 1) * w] * step
        esc_idx, esc_val = self._read_escapes(payload, dtype)
        if esc_idx is not None:
            in_window = (esc_idx >= i * w) & (esc_idx < (i + 1) * w)
            recon[esc_idx[in_window] - i * w] = esc_val[in_window]
        window = np.empty(w, dtype=np.float64)
        window[order] = recon
        return window.astype(dtype, copy=False)

    @classmethod
    def properties(cls) -> CodecProperties:
        """ISABELA's Table 1 row: no lossless mode, freely available."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=False,
            special_values=False,
            freely_available=True,
            fixed_quality=False,
            fixed_cr=False,
            bits_32_and_64=True,
        )
