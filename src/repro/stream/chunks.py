"""Chunk sources: arrays, NCH variables, and synthetic streams.

A *chunk stream* is any iterable of numpy arrays that are consecutive
first-axis blocks of one logical dataset.  The folds and pipeline in
this package consume chunk streams without ever concatenating them, so
the dataset behind a stream may be far larger than memory; every source
here guarantees that at most one chunk is materialized at a time.

Chunk size is expressed in MiB (``chunk_mb``, default
:data:`DEFAULT_CHUNK_MB`) and translated to a row count per block with
:func:`chunk_rows`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import FILL_VALUE
from repro.ncio.format import HistoryFile

__all__ = [
    "DEFAULT_CHUNK_MB",
    "chunk_rows",
    "iter_array_chunks",
    "iter_file_chunks",
    "synthetic_chunks",
]

#: Default block size.  Big enough that per-chunk codec overhead is
#: negligible, small enough that a handful of in-flight blocks stay
#: comfortably inside any laptop's RAM.
DEFAULT_CHUNK_MB = 8.0


def chunk_rows(shape: tuple[int, ...], itemsize: int,
               chunk_mb: float | None = None) -> int:
    """First-axis rows per block so one block is about ``chunk_mb`` MiB."""
    if chunk_mb is None:
        chunk_mb = DEFAULT_CHUNK_MB
    if chunk_mb <= 0:
        raise ValueError(f"chunk_mb must be positive, got {chunk_mb}")
    row_bytes = itemsize * int(np.prod(shape[1:], dtype=np.int64))
    return max(1, int(chunk_mb * 2**20) // max(row_bytes, 1))


def iter_array_chunks(data: np.ndarray,
                      chunk_mb: float | None = None) -> Iterator[np.ndarray]:
    """Yield an in-memory array as consecutive first-axis blocks (views).

    The memory-bound sources are the file and synthetic streams; this
    adapter exists so batch-shaped callers can feed the same folds.
    """
    data = np.asarray(data)
    if data.ndim == 0:
        raise ValueError("cannot chunk a scalar")
    rows = chunk_rows(data.shape, data.dtype.itemsize, chunk_mb)
    for start in range(0, data.shape[0], rows):
        yield data[start:start + rows]


def iter_file_chunks(path, name: str, chunk_mb: float | None = None,
                     codec=None) -> Iterator[np.ndarray]:
    """Stream an NCH variable as blocks of decoded first-axis slices.

    One block is decoded at a time directly from the chunk table, so
    reading a variable much larger than RAM needs only block-sized
    memory.  ``codec`` overrides the decoder for lossy-coded variables
    (the footer names the writing variant).
    """
    with HistoryFile(path) as fh:
        info = fh.info(name)
        rows = chunk_rows(info.shape, np.dtype(info.dtype).itemsize,
                          chunk_mb)
        yield from fh.iter_chunks(name, rows=rows, codec=codec)


def synthetic_chunks(total_mb: float, chunk_mb: float | None = None,
                     ncol: int = 2048, seed: int = 20140623,
                     fill_fraction: float = 0.0) -> Iterator[np.ndarray]:
    """Generate a deterministic CAM-like chunk stream of ``total_mb`` MiB.

    Each block is float64 ``(rows, ncol)``: a smooth zonal harmonic
    drifting over the row (pseudo-time) axis plus unit Gaussian noise —
    compressible but not trivially so, like a temperature field.
    ``fill_fraction > 0`` scatters CESM fill values to exercise the
    valid-point masking.  Randomness is seeded per fixed 64-row stripe
    of the *absolute* row index, so the stream's values are identical
    for every ``chunk_mb`` — and the whole dataset never exists in
    memory at once.
    """
    if total_mb <= 0:
        raise ValueError(f"total_mb must be positive, got {total_mb}")
    stripe = 64
    row_bytes = 8 * ncol
    total_rows = max(1, int(total_mb * 2**20) // row_bytes)
    rows = chunk_rows((total_rows, ncol), 8, chunk_mb)
    x = np.linspace(0.0, 2.0 * np.pi, ncol)
    zonal = 30.0 * np.sin(3.0 * x) + 5.0 * np.cos(11.0 * x)
    start = 0
    while start < total_rows:
        stop = min(start + rows, total_rows)
        block = np.empty((stop - start, ncol), dtype=np.float64)
        t = np.arange(start, stop, dtype=np.float64)[:, None]
        block[...] = 260.0 + zonal[None, :] * np.cos(0.01 * t)
        row = start
        while row < stop:
            s0 = (row // stripe) * stripe
            s1 = min(s0 + stripe, total_rows)
            rng = np.random.default_rng((seed, s0))
            noise = rng.standard_normal((s1 - s0, ncol))
            take = slice(row - s0, min(stop, s1) - s0)
            out = slice(row - start, row - start + take.stop - take.start)
            block[out] += noise[take]
            if fill_fraction > 0.0:
                mask = rng.random((s1 - s0, ncol)) < fill_fraction
                block[out][mask[take]] = FILL_VALUE
            row = s0 + take.stop
        yield block
        start = stop
