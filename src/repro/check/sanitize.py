"""Runtime sanitizer: ``REPRO_SANITIZE=1`` invariant guards.

Three ways to switch the guards on:

- environment: ``REPRO_SANITIZE=1 python -m pytest tests/compressors``;
- context manager: ``with sanitized(): codec.roundtrip(field)``;
- decorator: ``@sanitize_guard`` on any array-in/array-out function.

The guarded boundaries live in the production modules themselves (see
:func:`repro.check.hooks.boundary`): ``Compressor.compress``/``decompress``
verify container-header integrity, dtype/shape preservation, and that no
NaN/Inf appears at points that were valid in the input;
``Compressor.reconstruct`` must match ``decompress(compress())`` byte for
byte; the PVT z-score
and E_nmax paths verify their distributions are finite, non-negative, and
member-shaped; ``parallel_map``'s serial path replays the first task to
catch nondeterministic task functions.  Violations raise
:class:`SanitizerError` with the offending codec/function named.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator

import numpy as np

from repro.check.hooks import SanitizerError, active, get_override, \
    set_override

__all__ = ["SanitizerError", "sanitize_active", "sanitized", "sanitize_guard"]


def sanitize_active() -> bool:
    """Whether sanitizer guards currently run (env var or context)."""
    return active()


@contextmanager
def sanitized(enabled: bool = True) -> Iterator[None]:
    """Force the sanitizer on (or off) for the duration of the block.

    Nests correctly: the previous state — an outer ``sanitized`` block's
    override, or ``None`` meaning the ``REPRO_SANITIZE`` environment
    default — is restored on exit, so leaving the outermost block hands
    control back to the environment rather than pinning a stale value.
    """
    previous = get_override()
    set_override(bool(enabled))
    try:
        yield
    finally:
        set_override(previous)


def sanitize_guard(fn: Callable | None = None, *,
                   name: str | None = None) -> Callable:
    """Decorator: guard an array-transforming function's numeric contract.

    When the sanitizer is active and both the first positional argument
    and the return value are ``np.ndarray``, checks that the function
    preserved dtype and shape and introduced no NaN/Inf at positions that
    were finite on the way in.  Use on helper transforms that sit between
    the codecs and the PVT metrics, e.g.::

        @sanitize_guard
        def detrend(field: np.ndarray) -> np.ndarray: ...

    Functions with other signatures pass through unchecked rather than
    erroring, so the decorator is safe on mixed-type utilities.
    """

    def decorate(func: Callable) -> Callable:
        label = name or getattr(func, "__qualname__", repr(func))

        @wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            if not active() or not args:
                return result
            source, out = args[0], result
            if not (isinstance(source, np.ndarray)
                    and isinstance(out, np.ndarray)):
                return result
            if out.dtype != source.dtype:
                raise SanitizerError(
                    "dtype-preserved", label,
                    "function changed the array dtype",
                    input_dtype=str(source.dtype),
                    output_dtype=str(out.dtype),
                )
            if out.shape != source.shape:
                raise SanitizerError(
                    "shape-preserved", label,
                    "function changed the array shape",
                    input_shape=tuple(source.shape),
                    output_shape=tuple(out.shape),
                )
            bad = np.isfinite(source) & ~np.isfinite(out)
            if bad.any():
                where = np.flatnonzero(bad.reshape(-1))
                raise SanitizerError(
                    "no-new-nonfinite", label,
                    "function introduced NaN/Inf at finite input points",
                    n_bad=int(where.size), first_index=int(where[0]),
                )
            return result

        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
