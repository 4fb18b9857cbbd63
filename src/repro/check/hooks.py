"""Low-overhead runtime hook points for the numeric sanitizer.

Production modules (:mod:`repro.compressors.base`, :mod:`repro.pvt`,
:mod:`repro.parallel`) decorate their boundary functions with
:func:`boundary`.  When the sanitizer is inactive — the default — a
decorated call costs one flag check; when ``REPRO_SANITIZE=1`` (or inside
:func:`repro.check.sanitize.sanitized`), each boundary runs cheap invariant
checks and raises a structured :class:`SanitizerError` naming the check,
the offending codec/function, and the diagnostic context.

This module deliberately imports nothing from :mod:`repro` except the
stdlib-only :mod:`repro.config` (thresholds and environment knobs) and
the dependency-free container framing, so any layer can hook into it
without import cycles.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from functools import wraps
from typing import Any, Callable

import numpy as np

from repro import config
from repro.config import SPECIAL_THRESHOLD
from repro.encoding.container import SectionReader

__all__ = [
    "SanitizerError",
    "active",
    "boundary",
    "check_serial_replay",
    "get_override",
    "set_override",
]

_HEADER = struct.Struct("<B2sB")  # must match Compressor._HEADER
_DTYPES = {"f4": np.dtype(np.float32), "f8": np.dtype(np.float64)}


class SanitizerError(RuntimeError):
    """A runtime invariant of the compression/PVT pipeline was violated.

    Attributes
    ----------
    check:
        Short name of the failed guard (e.g. ``"dtype-preserved"``).
    subject:
        The codec variant or function the violation was observed in.
    context:
        Diagnostic key/value pairs (offending dtype, shape, indices...).
    """

    def __init__(self, check: str, subject: str, message: str,
                 **context: Any) -> None:
        self.check = check
        self.subject = subject
        self.context = dict(context)
        detail = ""
        if context:
            pairs = ", ".join(f"{k}={v!r}" for k, v in context.items())
            detail = f" [{pairs}]"
        super().__init__(f"[{check}] {subject}: {message}{detail}")


# -- activation --------------------------------------------------------------

#: Tri-state override installed by ``repro.check.sanitize.sanitized``;
#: ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
_override: bool | None = None


def set_override(value: bool | None) -> None:
    """Force the sanitizer on/off (``None`` restores env control)."""
    global _override
    _override = value


def get_override() -> bool | None:
    """Current override state (``None`` means env-controlled)."""
    return _override


def active() -> bool:
    """Whether sanitizer guards should run for the current call."""
    if _override is not None:
        return _override
    return config.env_flag("REPRO_SANITIZE")


# -- blob metadata cache -----------------------------------------------------

# compress() records what went into a blob so that decompress() can verify
# the round trip (dtype in == dtype out, no new NaN/Inf outside the fill
# mask) no matter how far apart the two calls happen.  Keyed by the blob's
# built-in hash (salted per process, stable within one); bounded so large
# sweeps cannot accumulate masks.
_BLOB_META: OrderedDict[tuple[int, int], dict[str, Any]] = OrderedDict()
_BLOB_META_MAX = 8


def _remember_blob(blob: bytes, data: np.ndarray) -> None:
    flat = np.ascontiguousarray(data).reshape(-1)
    valid = np.isfinite(flat) & (np.abs(flat) < SPECIAL_THRESHOLD)
    key = (len(blob), hash(blob))
    _BLOB_META[key] = {
        "dtype": data.dtype,
        "shape": tuple(data.shape),
        "valid_bits": np.packbits(valid),
        "count": flat.shape[0],
    }
    while len(_BLOB_META) > _BLOB_META_MAX:
        _BLOB_META.popitem(last=False)


def _recall_blob(blob: bytes) -> dict[str, Any] | None:
    return _BLOB_META.get((len(blob), hash(blob)))


def _parse_header(blob: bytes, subject: str) -> tuple[np.dtype, tuple[int, ...], str]:
    """Parse and integrity-check a compressor blob's container header."""
    try:
        reader = SectionReader(blob)
    except ValueError as exc:
        raise SanitizerError(
            "container-integrity", subject,
            f"blob is not a parseable section container: {exc}",
        ) from exc
    for section in ("head", "data"):
        if section not in reader:
            raise SanitizerError(
                "container-integrity", subject,
                f"blob is missing its {section!r} section",
                sections=reader.names(),
            )
    head = reader.get("head")
    version, dtype_code, ndim = _HEADER.unpack_from(head, 0)
    if version != 1:
        raise SanitizerError(
            "container-integrity", subject,
            f"unknown blob version {version}",
        )
    code = dtype_code.decode()
    if code not in _DTYPES:
        raise SanitizerError(
            "container-integrity", subject,
            f"blob declares unsupported dtype code {code!r}",
        )
    shape = struct.unpack_from(f"<{ndim}Q", head, _HEADER.size)
    tag = head[_HEADER.size + 8 * ndim:].decode("utf-8")
    return _DTYPES[code], tuple(int(s) for s in shape), tag


# -- boundary checks ---------------------------------------------------------

def _subject(obj: Any, fallback: str) -> str:
    variant = getattr(obj, "variant", None)
    if isinstance(variant, str):
        return variant
    return getattr(type(obj), "__name__", fallback)


def _check_compress(fn: Callable, args: tuple, kwargs: dict) -> Any:
    blob = fn(*args, **kwargs)
    codec = args[0]
    subject = _subject(codec, "compress")
    data = np.asarray(args[1] if len(args) > 1 else kwargs["data"])
    dtype, shape, tag = _parse_header(blob, subject)
    if dtype != data.dtype:
        raise SanitizerError(
            "container-integrity", subject,
            "blob header dtype disagrees with the input array",
            header_dtype=str(dtype), input_dtype=str(data.dtype),
        )
    if shape != tuple(data.shape):
        raise SanitizerError(
            "container-integrity", subject,
            "blob header shape disagrees with the input array",
            header_shape=shape, input_shape=tuple(data.shape),
        )
    expected_tag = getattr(codec, "_codec_tag", lambda: tag)()
    if tag != expected_tag:
        raise SanitizerError(
            "container-integrity", subject,
            "blob codec tag disagrees with the emitting codec",
            blob_tag=tag, codec_tag=expected_tag,
        )
    _remember_blob(blob, data)
    return blob


def _check_decompress(fn: Callable, args: tuple, kwargs: dict) -> Any:
    out = fn(*args, **kwargs)
    codec = args[0]
    subject = _subject(codec, "decompress")
    blob = args[1] if len(args) > 1 else kwargs["blob"]
    dtype, shape, _ = _parse_header(blob, subject)
    out = np.asarray(out)
    if out.dtype != dtype:
        raise SanitizerError(
            "dtype-preserved", subject,
            "decoded dtype disagrees with the blob header",
            header_dtype=str(dtype), output_dtype=str(out.dtype),
        )
    if tuple(out.shape) != shape:
        raise SanitizerError(
            "shape-preserved", subject,
            "decoded shape disagrees with the blob header",
            header_shape=shape, output_shape=tuple(out.shape),
        )
    meta = _recall_blob(blob)
    if meta is not None:
        if out.dtype != meta["dtype"] or tuple(out.shape) != meta["shape"]:
            raise SanitizerError(
                "dtype-preserved", subject,
                "round trip changed the array's dtype or shape",
                input_dtype=str(meta["dtype"]), output_dtype=str(out.dtype),
                input_shape=meta["shape"], output_shape=tuple(out.shape),
            )
        valid = np.unpackbits(
            meta["valid_bits"], count=meta["count"]
        ).astype(bool)
        flat = np.ascontiguousarray(out).reshape(-1)
        bad = valid & ~np.isfinite(flat)
        if bad.any():
            where = np.flatnonzero(bad)
            raise SanitizerError(
                "no-new-nonfinite", subject,
                "round trip introduced NaN/Inf at points that were valid "
                "and finite in the input",
                n_bad=int(where.size), first_index=int(where[0]),
                first_value=float(flat[where[0]]),
            )
    return out


def _check_reconstruct(fn: Callable, args: tuple, kwargs: dict) -> Any:
    out = fn(*args, **kwargs)
    codec = args[0]
    subject = _subject(codec, "reconstruct")
    data = args[1] if len(args) > 1 else kwargs["data"]
    expected = codec.decompress(codec.compress(data))
    out = np.asarray(out)
    if (out.dtype != expected.dtype or out.shape != expected.shape
            or out.tobytes() != expected.tobytes()):
        raise SanitizerError(
            "reconstruct-parity", subject,
            "reconstruct() disagrees with decompress(compress())",
            dtype=str(out.dtype), expected_dtype=str(expected.dtype),
            shape=tuple(out.shape), expected_shape=tuple(expected.shape),
        )
    return out


def _check_zscores(fn: Callable, args: tuple, kwargs: dict) -> Any:
    z = fn(*args, **kwargs)
    subject = getattr(fn, "__qualname__", "zscores")
    z = np.asarray(z)
    # One Z-score per point of the statistics it was standardized against.
    mean = args[1] if len(args) > 1 else kwargs.get("mean")
    n_points = None if mean is None else int(np.size(mean))
    if z.ndim != 1 or (n_points is not None and z.shape[0] != n_points):
        raise SanitizerError(
            "zscore-shape", subject,
            "Z-score vector does not cover the valid grid points",
            shape=tuple(z.shape), n_points=n_points,
        )
    if np.isinf(z).any():
        raise SanitizerError(
            "zscore-finite", subject,
            "infinite Z-score (a zero-spread point escaped the std floor)",
            n_inf=int(np.isinf(z).sum()),
        )
    return z


def _check_distribution(fn: Callable, args: tuple, kwargs: dict) -> Any:
    dist = fn(*args, **kwargs)
    stats = args[0]
    subject = type(stats).__name__ + ".distribution"
    arr = np.asarray(dist)
    n_members = getattr(stats, "n_members", None)
    _check_dist_array(arr, subject, n_members, "RMSZ")
    return dist


def _check_enmax(fn: Callable, args: tuple, kwargs: dict) -> Any:
    dist = fn(*args, **kwargs)
    source = args[0] if args else kwargs["ensemble"]
    # Either the module function (given the ensemble) or the method of
    # the statistics object that built the distribution.
    n_members = getattr(source, "n_members", None)
    if n_members is None:
        subject = "enmax_distribution"
        n_members = np.asarray(source).shape[0]
    else:
        subject = type(source).__name__ + ".enmax_distribution"
    _check_dist_array(np.asarray(dist), subject, n_members, "E_nmax")
    return dist


def _check_dist_array(arr: np.ndarray, subject: str,
                      n_members: int | None, what: str) -> None:
    if arr.ndim != 1 or (n_members is not None and arr.shape[0] != n_members):
        raise SanitizerError(
            "distribution-shape", subject,
            f"{what} distribution must have one entry per member",
            shape=tuple(arr.shape), n_members=n_members,
        )
    if not np.isfinite(arr).all():
        raise SanitizerError(
            "distribution-finite", subject,
            f"{what} distribution contains NaN/Inf",
            n_bad=int((~np.isfinite(arr)).sum()),
        )
    if (arr < 0.0).any():
        raise SanitizerError(
            "distribution-nonnegative", subject,
            f"{what} is a root-mean-square/ratio statistic and cannot be "
            "negative",
            min=float(arr.min()),
        )


_CHECKERS: dict[str, Callable[[Callable, tuple, dict], Any]] = {
    "compress": _check_compress,
    "decompress": _check_decompress,
    "reconstruct": _check_reconstruct,
    "zscores": _check_zscores,
    "distribution": _check_distribution,
    "enmax": _check_enmax,
}


def boundary(kind: str) -> Callable[[Callable], Callable]:
    """Mark a function as a sanitizer boundary of the given ``kind``.

    Inactive sanitizer: the wrapper is a single flag check.  Active: the
    kind's guard validates inputs/outputs and raises :class:`SanitizerError`
    on violation.  Known kinds: ``compress``, ``decompress``,
    ``reconstruct``, ``zscores``, ``distribution``, ``enmax``.
    """
    checker = _CHECKERS[kind]

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not active():
                return fn(*args, **kwargs)
            return checker(fn, args, kwargs)

        wrapper.__sanitize_boundary__ = kind  # type: ignore[attr-defined]
        return wrapper

    return decorate


# -- deterministic replay ----------------------------------------------------

def _results_equal(a: Any, b: Any) -> bool:
    """Best-effort equality that treats incomparable objects as equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        try:
            return bool(np.array_equal(a, b, equal_nan=True))
        except (TypeError, ValueError):
            return True
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _results_equal(x, y) for x, y in zip(a, b)
        )
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return True


def check_serial_replay(fn: Callable, item: Any, expected: Any) -> None:
    """Re-run ``fn(item)`` and require the same result (determinism guard).

    Called by ``parallel_map``'s serial path when the sanitizer is active:
    a task function whose output changes between identical invocations
    (unseeded RNG, shared mutable state) silently invalidates the PVT
    verdicts, so it is surfaced here as a :class:`SanitizerError`.
    """
    replay = fn(item)
    if not _results_equal(expected, replay):
        raise SanitizerError(
            "deterministic-replay",
            getattr(fn, "__qualname__", repr(fn)),
            "task function returned different results for identical "
            "invocations; seed its RNG or remove shared mutable state",
            item=repr(item)[:80],
        )
