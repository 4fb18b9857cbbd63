"""Chunk-at-a-time codec round trips with bounded peak RSS.

:func:`stream_roundtrip` drives one codec over a chunk stream:
compress, decompress, and fold each chunk once — one
:class:`StreamingError` yields the error metrics of the reconstruction
and, from its original side, the characterization of the data.
Every width runs one loop: each window of chunks is one
:func:`~repro.parallel.parallel_map`, whose tasks return only fold
partials — a few dozen floats per chunk.  Inline a window is one
chunk, so peak memory is a small constant multiple of one chunk
regardless of how many chunks flow through (provable with
``REPRO_TRACE_MEM``; the throughput benchmark asserts it).  On the pool
it is ``2 * workers`` chunks, crossing via shared-memory descriptors
(:mod:`repro.parallel.shm`) rather than pickle.

Under ``REPRO_TRACE=1`` a run is a ``stream.roundtrip`` span with
``stream.chunks`` / ``stream.bytes_in`` / ``stream.bytes_out``
counters; each chunk's metric fold is a ``stream.fold`` span inside its
task (its p50/p95 show in ``repro stats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from repro import obs
from repro.compressors.base import Compressor
from repro.metrics.characterize import DataCharacteristics
from repro.parallel.executor import effective_workers, parallel_map
from repro.metrics.streaming import ErrorSummary, StreamingError

__all__ = ["StreamOutcome", "stream_roundtrip"]

_CHUNKS = obs.counter("stream.chunks")
_BYTES_IN = obs.counter("stream.bytes_in")
_BYTES_OUT = obs.counter("stream.bytes_out")


@dataclass(frozen=True)
class StreamOutcome:
    """Everything one streaming round trip learned about a codec."""

    variant: str
    n_chunks: int
    n_points: int
    bytes_in: int
    bytes_out: int
    characteristics: DataCharacteristics
    errors: ErrorSummary

    @property
    def cr(self) -> float:
        """Compression ratio, eq. (1) convention: compressed/original."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 0.0


def _roundtrip_chunk(args: tuple) -> tuple:
    """One map task: round-trip one chunk, return small fold partials."""
    codec, chunk = args
    blob = codec.compress(chunk)
    recon = codec.decompress(blob).reshape(chunk.shape)
    errors = StreamingError()
    with obs.span("stream.fold"):
        errors.update(chunk, recon)
    return errors, int(chunk.nbytes), len(blob), int(chunk.size)


def stream_roundtrip(
    codec: Compressor,
    chunks: Iterable[np.ndarray],
    *,
    workers: int = 0,
) -> StreamOutcome:
    """Round-trip a chunk stream through ``codec`` and fold the metrics.

    Parameters
    ----------
    codec:
        Any registered :class:`~repro.compressors.base.Compressor`.
    chunks:
        A stream of float32/float64 chunk arrays of any shape (see
        :mod:`repro.stream.chunks`); consumed once.
    workers:
        Handed to :func:`~repro.parallel.parallel_map`.  ``<= 1``: one
        chunk at a time, inline — the bounded-RSS guarantee.  ``> 1``:
        windows of ``2 * workers`` chunks round-trip concurrently on the
        pool; peak RSS grows with the window, never with the stream.
    """
    width = effective_workers(workers)
    per_map = 2 * width if width > 1 else 1
    chunks = iter(chunks)
    errors = StreamingError()
    n_chunks = n_points = bytes_in = bytes_out = 0

    with obs.span("stream.roundtrip", variant=codec.variant,
                  workers=width) as sp:
        while window := [(codec, np.asarray(c))
                         for c in islice(chunks, per_map)]:
            parts = parallel_map(_roundtrip_chunk, window,
                                 workers=workers, shm=True)
            for part, nbytes, blob_len, size in parts:
                errors.merge(part)
                n_chunks += 1
                n_points += size
                bytes_in += nbytes
                bytes_out += blob_len
                _CHUNKS.add(1)
                _BYTES_IN.add(nbytes)
                _BYTES_OUT.add(blob_len)
        sp.note(chunks=n_chunks, bytes_in=bytes_in, bytes_out=bytes_out)

    return StreamOutcome(
        variant=codec.variant,
        n_chunks=n_chunks,
        n_points=n_points,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        characteristics=errors.original.finalize(),
        errors=errors.finalize(),
    )
