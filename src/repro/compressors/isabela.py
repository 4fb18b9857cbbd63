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

import numpy as np
from scipy.interpolate import BSpline

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
    t_interior = np.linspace(0.0, 1.0, n_coeffs - _DEGREE + 1)
    knots = np.concatenate(
        [np.zeros(_DEGREE), t_interior, np.ones(_DEGREE)]
    )
    x = np.linspace(0.0, 1.0, window)
    design = BSpline.design_matrix(x, knots, _DEGREE).toarray()
    pinv = np.linalg.pinv(design)
    return design, pinv


def _index_width(window: int) -> int:
    return max(1, int(np.ceil(np.log2(window)))) if window > 1 else 1


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

    def _encode_values(self, values: np.ndarray) -> bytes:
        n = values.size
        w = self.window
        n_full = n // w
        tail = n - n_full * w

        writer = SectionWriter()
        writer.add("meta", struct.pack("<QIIdI", n, w, self.n_coeffs,
                                       self.rel_error, tail))

        corrections: list[np.ndarray] = []
        steps_meta: list[float] = []
        escape_idx: list[np.ndarray] = []
        escape_val: list[np.ndarray] = []

        if n_full:
            block = values[: n_full * w].reshape(n_full, w).astype(
                np.float64, copy=False)
            order = np.argsort(block, axis=1, kind="stable")
            sorted_vals = np.take_along_axis(block, order, axis=1)
            design, pinv = _design_matrices(w, self.n_coeffs)
            coeffs = sorted_vals @ pinv.T  # (n_full, n_coeffs)
            coeffs = coeffs.astype(np.float32, copy=False)
            recon = coeffs.astype(np.float64, copy=True) @ design.T
            q, eps, esc = self._quantize_corrections(sorted_vals, recon)
            corrections.append(q.ravel())
            steps_meta.extend(eps.tolist())
            if esc.any():
                flat = np.flatnonzero(esc.ravel())
                escape_idx.append(flat.astype(np.uint64))
                escape_val.append(sorted_vals.ravel()[flat])

            writer.add("index", pack_fixed(order.ravel().astype(np.uint64),
                                           _index_width(w)))
            writer.add("coeffs", coeffs.tobytes())

        if tail:
            tail_vals = values[n_full * w:].astype(np.float64, copy=False)
            if tail >= _MIN_SPLINE_WINDOW:
                k = min(self.n_coeffs, tail)
                k = max(k, _DEGREE + 1)
                order_t = np.argsort(tail_vals, kind="stable")
                sorted_t = tail_vals[order_t]
                design_t, pinv_t = _design_matrices(tail, k)
                coeffs_t = (pinv_t @ sorted_t).astype(np.float32, copy=False)
                recon_t = design_t @ coeffs_t.astype(np.float64, copy=True)
                q_t, eps_t, esc_t = self._quantize_corrections(
                    sorted_t[None, :], recon_t[None, :]
                )
                corrections.append(q_t.ravel())
                steps_meta.extend(eps_t.tolist())
                if esc_t.any():
                    flat = np.flatnonzero(esc_t.ravel()) + n_full * w
                    escape_idx.append(flat.astype(np.uint64))
                    escape_val.append(
                        sorted_t[np.flatnonzero(esc_t.ravel())]
                    )
                writer.add("tindex", pack_fixed(order_t.astype(np.uint64),
                                                _index_width(tail)))
                writer.add("tcoeffs", struct.pack("<I", k) + coeffs_t.tobytes())
            else:
                writer.add("raw",
                           tail_vals.astype(np.float32, copy=False).tobytes())

        if corrections:
            q_all = np.concatenate(corrections)
            writer.add("corr", rice_encode(zigzag_encode(q_all)))
            writer.add("eps", np.asarray(steps_meta, dtype=np.float64).tobytes())
        if escape_idx:
            idx_all = np.concatenate(escape_idx)
            val_all = np.concatenate(escape_val).astype(values.dtype,
                                                        copy=False)
            writer.add("eidx", zlib.compress(idx_all.tobytes(), 4))
            writer.add("eval", val_all.tobytes())
        return writer.tobytes()

    def _quantize_corrections(
        self, sorted_vals: np.ndarray, recon: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantize (sorted - recon) so the reconstructed point lands within
        the relative-error bound.

        The step is derived from the *spline* value (available at decode)
        with a per-window absolute floor.  Points the correction cannot
        bring within the bound (the spline can overshoot wildly near step
        discontinuities) are flagged for the exact-value escape list, so
        the per-point relative guarantee is unconditional.
        """
        eps = _EPS_FRACTION * np.maximum(
            np.abs(sorted_vals).max(axis=1), np.finfo(np.float64).tiny
        )
        if np.isnan(eps).any():
            raise ValueError("ISABELA cannot encode NaN: the sorted-window "
                             "spline needs finite samples")
        step = self.rel_error * np.maximum(np.abs(recon), eps[:, None])
        residual = sorted_vals - recon
        q = np.rint(residual / step).astype(np.int64)
        reconstructed = recon + q * step
        tol = self.rel_error * np.maximum(np.abs(sorted_vals), eps[:, None])
        escapes = np.abs(sorted_vals - reconstructed) > tol
        q[escapes] = 0
        return q, eps, escapes

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        n, w, n_coeffs, rel_error, tail = struct.unpack("<QIIdI",
                                                        reader.get("meta"))
        if n != count:
            raise ValueError(f"blob holds {n} values, expected {count}")
        n_full = (n - tail) // w

        q_all = None
        eps_all = None
        if "corr" in reader:
            q_all = zigzag_decode(rice_decode(reader.get("corr")))
            eps_all = np.frombuffer(reader.get("eps"), dtype=np.float64)

        out = np.empty(n, dtype=np.float64)
        esc_idx, esc_val = self._read_escapes(reader, dtype)
        q_off = 0
        eps_off = 0
        if n_full:
            order = unpack_fixed(reader.get("index"), _index_width(w),
                                 n_full * w).astype(np.int64)
            order = order.reshape(n_full, w)
            coeffs = np.frombuffer(reader.get("coeffs"), dtype=np.float32)
            coeffs = coeffs.reshape(n_full, n_coeffs).astype(np.float64,
                                                             copy=True)
            design, _ = _design_matrices(w, n_coeffs)
            recon = coeffs @ design.T
            eps = eps_all[:n_full]
            step = rel_error * np.maximum(np.abs(recon), eps[:, None])
            q = q_all[: n_full * w].reshape(n_full, w)
            recon = recon + q * step
            if esc_idx is not None:
                in_full = esc_idx < n_full * w
                recon.ravel()[esc_idx[in_full]] = esc_val[in_full]
            block = np.empty_like(recon)
            np.put_along_axis(block, order, recon, axis=1)
            out[: n_full * w] = block.ravel()
            q_off = n_full * w
            eps_off = n_full

        if tail:
            if "raw" in reader:
                out[n_full * w:] = np.frombuffer(reader.get("raw"),
                                                 dtype=np.float32)
            else:
                order_t = unpack_fixed(reader.get("tindex"),
                                       _index_width(tail), tail).astype(np.int64)
                tc = reader.get("tcoeffs")
                (k,) = struct.unpack_from("<I", tc, 0)
                coeffs_t = np.frombuffer(tc[4:], dtype=np.float32)
                design_t, _ = _design_matrices(tail, k)
                recon_t = design_t @ coeffs_t.astype(np.float64, copy=True)
                eps_t = eps_all[eps_off]
                step_t = rel_error * np.maximum(np.abs(recon_t), eps_t)
                recon_t = recon_t + q_all[q_off : q_off + tail] * step_t
                if esc_idx is not None:
                    in_tail = esc_idx >= n_full * w
                    recon_t[esc_idx[in_tail] - n_full * w] = esc_val[in_tail]
                seg = np.empty(tail, dtype=np.float64)
                seg[order_t] = recon_t
                out[n_full * w:] = seg
        return out.astype(dtype, copy=False)

    @staticmethod
    def _read_escapes(reader: SectionReader, dtype):
        """Exact-value escape list (sorted-domain indices and values)."""
        if "eidx" not in reader:
            return None, None
        idx = np.frombuffer(zlib.decompress(reader.get("eidx")),
                            dtype=np.uint64).astype(np.int64)
        val = np.frombuffer(reader.get("eval"), dtype=dtype).astype(
            np.float64, copy=True
        )
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
