"""Chunk sources: sizing math, determinism, and file streaming."""

import numpy as np
import pytest

from repro.config import FILL_VALUE
from repro.ncio.format import HistoryFile, HistoryFileWriter
from repro.stream import chunk_rows, iter_array_chunks, synthetic_chunks
from repro.stream.chunks import DEFAULT_CHUNK_MB, iter_file_chunks


class TestChunkRows:
    def test_targets_the_requested_block_size(self):
        # 1 MiB rows: one row per 1-MiB block.
        assert chunk_rows((100, 2**17), 8, chunk_mb=1.0) == 1
        # 8 KiB rows: 128 rows per 1-MiB block, 1024 per default block.
        assert chunk_rows((100, 1024), 8, chunk_mb=1.0) == 128
        assert DEFAULT_CHUNK_MB == 8.0
        assert chunk_rows((2000, 1024), 8) == 1024

    def test_huge_rows_still_make_progress(self):
        assert chunk_rows((10, 2**24), 8, chunk_mb=1.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            chunk_rows((4, 4), 8, chunk_mb=0.0)


class TestArrayChunks:
    def test_blocks_reassemble_to_the_array(self, rng):
        data = rng.normal(size=(37, 64))
        blocks = list(iter_array_chunks(data, chunk_mb=0.005))
        assert len(blocks) > 1
        np.testing.assert_array_equal(np.concatenate(blocks), data)

    def test_blocks_are_views_not_copies(self, rng):
        data = rng.normal(size=(8, 8))
        block = next(iter_array_chunks(data, chunk_mb=1.0))
        assert np.shares_memory(block, data)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            next(iter_array_chunks(np.float64(3.0)))


class TestSyntheticChunks:
    def test_deterministic_and_chunk_size_invariant(self):
        a = np.concatenate(list(synthetic_chunks(1.0, chunk_mb=0.125)))
        b = np.concatenate(list(synthetic_chunks(1.0, chunk_mb=0.5)))
        np.testing.assert_array_equal(a, b)
        assert a.nbytes == pytest.approx(2**20, rel=0.01)

    def test_fill_fraction_scatters_fill_values(self):
        data = np.concatenate(
            list(synthetic_chunks(0.5, chunk_mb=0.125, fill_fraction=0.01))
        )
        frac = float((data == FILL_VALUE).mean())
        assert 0.005 < frac < 0.02

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError, match="positive"):
            next(synthetic_chunks(0.0))


class TestFileChunks:
    def test_streams_equal_get(self, tmp_path, rng):
        data = rng.normal(size=(24, 5, 7)).astype(np.float32)
        path = tmp_path / "x.nch"
        with HistoryFileWriter(path, compression="zlib") as w:
            w.put_var("T", data, dims=("time", "lev", "ncol"))
        blocks = list(iter_file_chunks(path, "T", chunk_mb=0.0005))
        assert len(blocks) > 1
        np.testing.assert_array_equal(np.concatenate(blocks), data)
        with HistoryFile(path) as fh:
            np.testing.assert_array_equal(fh.get("T"), data)

    def test_one_dimensional_variable_is_a_single_block(self, tmp_path):
        data = np.arange(16.0, dtype=np.float64)
        path = tmp_path / "y.nch"
        with HistoryFileWriter(path, compression=None) as w:
            w.put_var("lat", data, dims=("ncol",))
        blocks = list(iter_file_chunks(path, "lat", chunk_mb=0.000001))
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], data)
