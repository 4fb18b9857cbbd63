"""Streaming out-of-core compression pipeline.

The paper's methodology — compress, decompress, error metrics — is
defined over whole variables, but a whole variable at paper scale (or
an SDRBench-style multi-GB field) need not fit in memory.  This package
re-expresses the methodology as *streaming folds* over chunks:

- :mod:`chunks` — chunk sources: slice an in-memory array, read an NCH
  variable block-by-block (:meth:`repro.ncio.format.HistoryFile.
  iter_chunks`), or generate a deterministic CAM-like synthetic stream
  of any size without ever materializing it;
- :mod:`folds` — the methodology as folds: :class:`StreamingMoments`
  (Section 4.1 characterization) and :class:`StreamingError` (e_max,
  RMSE/NRMSE, Pearson — eqs. 2-5), re-exported from
  :mod:`repro.metrics.streaming`.  They are the only implementation:
  each batch metric is the fold over one chunk, bit for bit (RMSZ
  against stored ensemble statistics is
  :class:`repro.pvt.zscore.StreamingRMSZ`);
- :mod:`pipeline` — :func:`stream_roundtrip` drives codec round trips
  chunk-at-a-time, serially (peak RSS bounded by the chunk size) or
  across worker processes with shared-memory array transport
  (``parallel_map(..., shm=True)``), and folds the partials into one
  :class:`StreamOutcome`.

``repro stream`` is the CLI front end and
``benchmarks/bench_stream_throughput.py`` asserts its RSS and transfer
bounds; see ``docs/streaming.md`` for the chunk model and RSS
guarantees.
"""

from repro.stream.chunks import (
    DEFAULT_CHUNK_MB,
    chunk_rows,
    iter_array_chunks,
    iter_file_chunks,
    synthetic_chunks,
)
from repro.metrics.streaming import ErrorSummary
from repro.stream.folds import StreamingError, StreamingMoments
from repro.stream.pipeline import StreamOutcome, stream_roundtrip

__all__ = [
    "DEFAULT_CHUNK_MB",
    "ErrorSummary",
    "StreamOutcome",
    "StreamingError",
    "StreamingMoments",
    "chunk_rows",
    "iter_array_chunks",
    "iter_file_chunks",
    "stream_roundtrip",
    "synthetic_chunks",
]
