"""Streaming pipeline benchmark: throughput, RSS bound, transfer overhead.

Three claims from ``docs/streaming.md`` are measured and asserted:

1. *Throughput*: bytes/sec per codec variant for the full streaming
   round trip (compress -> decompress -> folded metrics) over a
   synthetic CAM-like stream sized as one 3-D ensemble variable.
2. *Bounded RSS*: the serial pipeline's peak allocation is sub-linear
   in dataset size — streaming 4x the data must grow the tracemalloc
   peak by far less than 4x (it stays a small multiple of one chunk).
3. *Transfer overhead*: moving chunk payloads to process workers over
   the shared-memory descriptor transport beats pickling the arrays
   through the result queue.

Scale honours :func:`repro.config.example_scale`: the defaults are the
paper's ne=30 / 30 levels / 101 members (~1.1 GiB of float64 per
variable), and the ``REPRO_NE`` / ``REPRO_NLEV`` / ``REPRO_MEMBERS``
knobs shrink the stream the same way they shrink the examples — which
is how ``tests/test_benchmarks_smoke.py`` runs this file in seconds.
"""

import time

from conftest import alternating_medians, save_table, save_text

from repro import config, obs
from repro.compressors import get_variant
from repro.parallel.executor import parallel_map
from repro.stream import stream_roundtrip, synthetic_chunks

#: Codec variants whose streaming throughput is measured (one lossy,
#: two lossless with different speed/ratio trade-offs).
_VARIANTS = ("fpzip-24", "NetCDF-4", "ISOBAR")

_CHUNK_MB = 8.0
_TRANSFER_CHUNKS = 16
_TRANSFER_REPEATS = 5

#: Paper-scale defaults, shrinkable via the ``REPRO_*`` knobs.
_CFG = config.example_scale(ne=30, nlev=30, n_members=101, n_2d=83,
                            n_3d=87)


def _stream_mb() -> float:
    """One 3-D ensemble variable in MiB at the configured scale."""
    return _CFG.ncol * _CFG.nlev * _CFG.n_members * 8 / 2**20


def _chunk_mb(total_mb: float) -> float:
    """Block size: the default 8 MiB, capped so tiny runs still chunk."""
    return min(_CHUNK_MB, max(total_mb / 8, 0.001))


def test_streaming_throughput_per_codec(results_dir):
    total_mb = _stream_mb()
    chunk_mb = _chunk_mb(total_mb)
    rows = []
    for name in _VARIANTS:
        codec = get_variant(name)
        t0 = time.perf_counter()
        out = stream_roundtrip(
            codec, synthetic_chunks(total_mb, chunk_mb=chunk_mb))
        elapsed = time.perf_counter() - t0
        mib_s = out.bytes_in / elapsed / 2**20
        rows.append([name, out.n_chunks, out.bytes_in / 2**20,
                     out.cr, mib_s])
        assert out.errors.pearson > 0.999
    save_table(results_dir, "stream_throughput",
               ["variant", "chunks", "MiB", "CR", "MiB/s"], rows,
               title=f"Streaming round-trip throughput "
                     f"({total_mb:.0f} MiB synthetic, "
                     f"{chunk_mb:g} MiB chunks)")
    cr = {row[0]: row[3] for row in rows}
    # ISOBAR's byte-plane split never loses to plain shuffle+DEFLATE by
    # more than its per-chunk plane headers.
    assert cr["ISOBAR"] <= 1.01 * cr["NetCDF-4"], cr


def test_peak_rss_sublinear_in_dataset_size(results_dir):
    # Stream 4x the data; the bounded-RSS guarantee says the pipeline's
    # peak allocation must not follow (it is a small constant multiple
    # of one chunk).  tracemalloc peaks stand in for RSS because they
    # are exact per-span and immune to allocator hysteresis.
    codec = get_variant("ISOBAR")
    total_mb = _stream_mb()
    small_mb, large_mb = total_mb / 8, total_mb / 2
    chunk_mb = _chunk_mb(small_mb)
    peaks = {}
    for label, mb in (("small", small_mb), ("large", large_mb)):
        agg = obs.Aggregator()
        with obs.tracing(sinks=[agg]), obs.profiling_memory():
            stream_roundtrip(codec, synthetic_chunks(mb,
                                                     chunk_mb=chunk_mb))
        peaks[label] = agg.get("stream.roundtrip").mem_peak
    growth = peaks["large"] / peaks["small"]
    save_text(
        results_dir, "stream_rss.txt",
        f"ISOBAR streaming peak: {peaks['small'] / 1e6:.1f} MB at "
        f"{small_mb:.0f} MiB vs {peaks['large'] / 1e6:.1f} MB at "
        f"{large_mb:.0f} MiB (4x data -> {growth:.2f}x peak; "
        f"{chunk_mb:g} MiB chunks)",
    )
    assert growth < 2.0, (
        f"peak allocation grew {growth:.2f}x on 4x data — the stream "
        "is accumulating chunks instead of folding them"
    )
    # The peak is a few chunks (codec scratch copies) plus fixed
    # interpreter overhead — never a function of the dataset.
    bound = 16 * chunk_mb * 2**20 + 8 * 2**20
    assert peaks["large"] < bound, (
        f"peak allocation {peaks['large'] / 1e6:.1f} MB exceeds the "
        f"chunk-proportional bound {bound / 1e6:.1f} MB"
    )


def _echo(arr):
    return arr


def _transfer_seconds(chunks):
    """Median echo time of ``chunks`` per transport, ``(pickle, shm)``,
    the transports alternating round by round."""
    for use_shm in (False, True):  # warm the worker pool path
        parallel_map(_echo, chunks[:2], workers=2, shm=use_shm)

    def echo(use_shm):
        out = parallel_map(_echo, chunks, workers=2, shm=use_shm)
        for sent, got in zip(chunks, out):
            assert sent.shape == got.shape

    pickle_s, shm_s = alternating_medians(
        [lambda: echo(False), lambda: echo(True)],
        repeats=_TRANSFER_REPEATS,
    )
    return pickle_s, shm_s


def test_shm_transfer_beats_pickle(results_dir):
    # Floor the chunk size above the shm eligibility threshold so the
    # descriptor path is exercised even on an env-shrunk smoke run.
    chunk_mb = max(_chunk_mb(_stream_mb()), 0.5)
    chunks = list(synthetic_chunks(_TRANSFER_CHUNKS * chunk_mb,
                                   chunk_mb=chunk_mb))
    pickle_s, shm_s = _transfer_seconds(chunks)
    speedup = pickle_s / shm_s
    save_text(
        results_dir, "stream_transfer.txt",
        f"echoing {len(chunks)} x {chunk_mb:g} MiB chunks through 2 "
        f"process workers: pickle {pickle_s * 1e3:.0f} ms, shm "
        f"{shm_s * 1e3:.0f} ms ({speedup:.2f}x)",
    )
    # Below ~1 MiB chunks, per-map pool overhead drowns the transfer
    # cost and the comparison is noise; the smoke run only checks that
    # both transports complete.
    if chunk_mb >= 1.0:
        assert shm_s < pickle_s, (
            f"shared-memory transfer ({shm_s:.3f}s) should beat "
            f"pickled arrays ({pickle_s:.3f}s)"
        )
