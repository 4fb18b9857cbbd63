"""Uniform compressor API: headers, dtype/shape handling, special values.

A :class:`Compressor` turns an n-dimensional float array into a
self-describing byte blob and back.  Subclasses implement only the 1-D
``_encode_values`` / ``_decode_values`` pair; the base class owns the
container framing (shape, dtype, codec name) so blobs are portable across
codecs and sessions.

Every lossy codec here is a *lossy stage* (quantize, truncate, round,
fit) followed by a *lossless coder* (prediction, entropy coding,
packing), so its reconstruction does not depend on the coder.
:meth:`Compressor.reconstruct` returns exactly
``decompress(compress(data))`` without producing a blob.  A split codec
writes its stages once and composes them three ways:

- ``_encode_values``: lossy stage, then coder;
- ``_decode_values``: decoder, then *restore* (the dequantization);
- ``_reconstruct_values``: lossy stage, then the same restore.

Restore is the decoder's own expression, so the reconstruction is
bit-for-bit the round trip's by construction.  A lossless codec has no
lossy stage, so it reconstructs by copy: NetCDF-4, the one the PVT
judges, says so.  A codec that overrides nothing (ISOBAR, MAFISC)
inherits the default ``_reconstruct_values``: the decoder applied to
the encoder's payload.  The array's shape only
steers a coder's predictor (``_encode_with_shape``), never a lossy
stage, so reconstruction works on the flat values.

The compression ratio convention follows the paper's eq. (1):
``CR = compressed_size / original_size`` — *smaller is better* and the
lossless NetCDF-4 baseline lands around 0.6-0.75 on CAM variables.
"""

from __future__ import annotations

import abc
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.check.hooks import boundary
from repro.config import FILL_VALUE
from repro.encoding.container import SectionReader, SectionWriter

__all__ = [
    "CodecProperties",
    "Compressor",
    "CompressionOutcome",
    "SpecialValueAdapter",
    "compression_ratio",
]

_SUPPORTED_DTYPES = {"f4": np.float32, "f8": np.float64}

# Observability contract (docs/observability.md): every round trip emits
# the byte counters below; span durations flow to the active sinks.
_BYTES_IN = obs.counter("compressors.bytes_in")
_BYTES_OUT = obs.counter("compressors.bytes_out")
_ROUNDTRIPS = obs.counter("compressors.roundtrips")
_LAST_CR = obs.gauge("compressors.cr")


@dataclass(frozen=True)
class CodecProperties:
    """The Table 1 property matrix for one method."""

    name: str
    lossless_mode: bool
    special_values: bool
    freely_available: bool
    fixed_quality: bool
    fixed_cr: bool
    bits_32_and_64: bool

    def as_row(self) -> dict[str, str]:
        """Render as the Y/N row of the paper's Table 1."""
        flag = lambda b: "Y" if b else "N"  # noqa: E731
        return {
            "Method": self.name,
            "lossless mode": flag(self.lossless_mode),
            "special values": flag(self.special_values),
            "freely avail.": flag(self.freely_available),
            "fixed quality": flag(self.fixed_quality),
            "fixed CR": flag(self.fixed_cr),
            "32- & 64-bit": flag(self.bits_32_and_64),
        }


@dataclass(frozen=True)
class CompressionOutcome:
    """A compress+reconstruct round trip with its bookkeeping."""

    codec: str
    blob: bytes
    reconstructed: np.ndarray
    original_nbytes: int

    @property
    def compressed_nbytes(self) -> int:
        """Size of the emitted blob in bytes."""
        return len(self.blob)

    @property
    def cr(self) -> float:
        """Compression ratio per the paper's eq. (1) (smaller is better)."""
        return self.compressed_nbytes / self.original_nbytes


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Paper eq. (1): filesize(F_comp) / filesize(F_orig)."""
    if original_nbytes <= 0:
        raise ValueError(f"original size must be positive, got {original_nbytes}")
    return compressed_nbytes / original_nbytes


class Compressor(abc.ABC):
    """Base class for all codecs.

    Subclasses set :attr:`name` (the family name, e.g. ``"fpzip"``) and
    implement :meth:`_encode_values` / :meth:`_decode_values` over flat
    arrays plus :meth:`properties`.  :attr:`variant` is the table label
    (e.g. ``"fpzip-16"``); the default is the family name.
    """

    #: Codec family name; subclasses must override.
    name: str = "abstract"

    _HEADER = struct.Struct("<B2sB")  # version, dtype code, ndim

    @property
    def variant(self) -> str:
        """Label used in the paper's tables (e.g. ``APAX-4``)."""
        return self.name

    @property
    def is_lossless(self) -> bool:
        """Whether this *configured instance* reconstructs bit-for-bit."""
        return False

    def fingerprint(self) -> dict:
        """Cache-key identity for :mod:`repro.store`.

        Captures the codec class, its variant label, and every primitive
        instance parameter (rates, tolerances, precisions), so two
        instances that would produce different blobs derive different
        artifact keys.  Array dtype/shape are *not* included — store
        keys hash the data content separately.
        """
        params = {
            name: value for name, value in sorted(vars(self).items())
            if isinstance(value, (bool, int, float, str))
        }
        return {
            "codec": type(self).__qualname__,
            "variant": self.variant,
            "params": params,
        }

    # -- public API ------------------------------------------------------

    def _dtype_code(self, data: np.ndarray) -> str:
        """The input checks :meth:`compress` and :meth:`reconstruct`
        share; returns the container's dtype code."""
        dtype_code = data.dtype.str.lstrip("<>|=")
        if dtype_code not in _SUPPORTED_DTYPES:
            raise TypeError(
                f"{self.name} supports float32/float64 arrays, got {data.dtype}"
            )
        if dtype_code == "f8" and not self.properties().bits_32_and_64:
            raise TypeError(f"{self.name} does not support 64-bit data")
        if data.ndim == 0 or data.size == 0:
            raise ValueError("cannot compress an empty array")
        if data.ndim > 255:
            raise ValueError("too many dimensions")
        return dtype_code

    @boundary("compress")
    def compress(self, data: np.ndarray) -> bytes:
        """Compress an array into a self-describing blob.

        Under ``REPRO_SANITIZE=1`` the emitted blob's container header is
        verified against the input's dtype/shape and this codec's tag.
        """
        data = np.asarray(data)
        dtype_code = self._dtype_code(data)

        with obs.span("compressors.compress", codec=self.variant) as sp:
            flat = np.ascontiguousarray(data).reshape(-1)
            payload = self._encode_with_shape(flat, data.shape)

            writer = SectionWriter()
            writer.add(
                "head",
                self._HEADER.pack(1, dtype_code.encode(), data.ndim)
                + struct.pack(f"<{data.ndim}Q", *data.shape)
                + self._codec_tag().encode("utf-8"),
            )
            writer.add("data", payload)
            blob = writer.tobytes()
            sp.note(bytes=data.nbytes, bytes_out=len(blob))
            _BYTES_IN.add(data.nbytes)
            _BYTES_OUT.add(len(blob))
        return blob

    @boundary("decompress")
    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the array from a blob produced by :meth:`compress`.

        Under ``REPRO_SANITIZE=1`` the result is verified against the blob
        header (dtype/shape) and, when the blob's source array is still
        known, against the original: same dtype and shape, and no NaN/Inf
        introduced at points that were valid and finite on the way in.
        """
        with obs.span("compressors.decompress", codec=self.variant) as sp:
            reader = SectionReader(blob)
            head = reader.get("head")
            version, dtype_code, ndim = self._HEADER.unpack_from(head, 0)
            if version != 1:
                raise ValueError(f"unsupported blob version {version}")
            shape = struct.unpack_from(f"<{ndim}Q", head, self._HEADER.size)
            tag = head[self._HEADER.size + 8 * ndim :].decode("utf-8")
            if tag != self._codec_tag():
                raise ValueError(
                    f"blob was written by {tag!r}, "
                    f"this codec is {self._codec_tag()!r}"
                )
            dtype = _SUPPORTED_DTYPES[dtype_code.decode()]
            count = int(np.prod(shape))
            values = self._decode_values(reader.get("data"), count, dtype)
            out = values.astype(dtype, copy=False).reshape(shape)
            sp.note(bytes=out.nbytes)
        return out

    @boundary("reconstruct")
    def reconstruct(self, data: np.ndarray) -> np.ndarray:
        """Exactly ``decompress(compress(data))``, without the coder.

        Runs the lossy stage and the decoder's restore step only, so no
        blob is produced or read; use it where the compressed size is
        not needed.  Applies :meth:`compress`'s input checks and raises
        what it raises.  Under ``REPRO_SANITIZE=1`` the result is
        compared byte for byte with the full round trip.
        """
        data = np.asarray(data)
        dtype = _SUPPORTED_DTYPES[self._dtype_code(data)]
        with obs.span("compressors.reconstruct", codec=self.variant) as sp:
            flat = np.ascontiguousarray(data).reshape(-1)
            values = self._reconstruct_values(flat)
            out = values.astype(dtype, copy=False).reshape(data.shape)
            sp.note(bytes=out.nbytes)
        return out

    def roundtrip(self, data: np.ndarray) -> CompressionOutcome:
        """Compress and reconstruct, returning sizes alongside the result.

        ``data`` is a float32/float64 array; the reconstruction comes back
        with identical dtype and shape.
        """
        data = np.asarray(data)
        with obs.span("compressors.roundtrip", codec=self.variant) as sp:
            blob = self.compress(data)
            outcome = CompressionOutcome(
                codec=self.variant,
                blob=blob,
                reconstructed=self.decompress(blob),
                original_nbytes=data.nbytes,
            )
            sp.note(cr=outcome.cr)
            _ROUNDTRIPS.add(1)
            _LAST_CR.set(outcome.cr, codec=self.variant)
            return outcome

    # -- subclass hooks ---------------------------------------------------

    def _encode_with_shape(self, values: np.ndarray,
                           shape: tuple[int, ...]) -> bytes:
        """Encode with the original array shape available.

        Most codecs are shape-oblivious (the default forwards to
        :meth:`_encode_values`); codecs with dimensional predictors (e.g.
        fpzip's Lorenzo mode) override this to exploit the layout.
        """
        return self._encode_values(values)

    @abc.abstractmethod
    def _encode_values(self, values: np.ndarray) -> bytes:
        """Encode a flat float array into a payload."""

    @abc.abstractmethod
    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        """Decode ``count`` values of ``dtype`` from ``payload``."""

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        """What decoding ``_encode_values(values)`` returns.

        The default runs the coder; split codecs override it with their
        lossy stage followed by the decoder's restore step, and
        NetCDF-4 with a copy.
        """
        return self._decode_values(self._encode_values(values),
                                   values.size, values.dtype)

    @classmethod
    @abc.abstractmethod
    def properties(cls) -> CodecProperties:
        """The codec family's Table 1 property row."""

    def _codec_tag(self) -> str:
        """Identity check written into blobs; variants share decoders only
        when their parameters match, so the tag includes the variant."""
        return self.variant

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.variant!r}>"


class SpecialValueAdapter(Compressor):
    """Wrap a codec with fill-value pre/post-processing.

    The paper notes (Section 5.4) that fpzip and APAX lack special-value
    support but that it "could be ... handled through our pre- and
    post-processing".  This adapter implements that: fill values (CESM's
    1e35) are removed before encoding, recorded in a DEFLATE-compressed
    bitmap, and re-inserted exactly on decode.
    """

    def __init__(self, inner: Compressor, fill_value: float = FILL_VALUE):
        if isinstance(inner, SpecialValueAdapter):
            raise TypeError("SpecialValueAdapter cannot be nested")
        self.inner = inner
        self.fill_value = float(fill_value)
        self.name = inner.name

    @property
    def variant(self) -> str:
        """Inner variant label with the special-value suffix."""
        return self.inner.variant + "+sv"

    @property
    def is_lossless(self) -> bool:
        """Losslessness follows the wrapped codec."""
        return self.inner.is_lossless

    def fingerprint(self) -> dict:
        """Adapter identity plus the wrapped codec's full fingerprint."""
        fp = super().fingerprint()
        fp["inner"] = self.inner.fingerprint()
        return fp

    def _encode_values(self, values: np.ndarray) -> bytes:
        mask = values == values.dtype.type(self.fill_value)
        writer = SectionWriter()
        writer.add("mask", zlib.compress(np.packbits(mask).tobytes(), 4))
        valid = values[~mask]
        if valid.size:
            writer.add("body", self.inner._encode_values(valid))
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        packed = np.frombuffer(zlib.decompress(reader.get("mask")), dtype=np.uint8)
        mask = np.unpackbits(packed, count=count).astype(bool)
        out = np.full(count, self.fill_value, dtype=dtype)
        n_valid = count - int(mask.sum())
        if n_valid:
            out[~mask] = self.inner._decode_values(
                reader.get("body"), n_valid, dtype
            )
        return out

    def _reconstruct_values(self, values: np.ndarray) -> np.ndarray:
        mask = values == values.dtype.type(self.fill_value)
        out = np.full(values.size, self.fill_value, dtype=values.dtype)
        valid = values[~mask]
        if valid.size:
            out[~mask] = self.inner._reconstruct_values(valid)
        return out

    def properties(self) -> CodecProperties:  # type: ignore[override]
        """Inner codec's properties with special-value support switched on."""
        inner = self.inner.properties()
        return CodecProperties(
            name=inner.name + "+sv",
            lossless_mode=inner.lossless_mode,
            special_values=True,
            freely_available=inner.freely_available,
            fixed_quality=inner.fixed_quality,
            fixed_cr=inner.fixed_cr,
            bits_32_and_64=inner.bits_32_and_64,
        )
