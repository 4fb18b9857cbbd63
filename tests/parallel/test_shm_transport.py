"""Shared-memory descriptor transport: correctness and segment hygiene.

The transport's contract is that the parent owns every segment it
creates and destroys it when the carrying task settles — on success,
failure, worker crash, and abandoned rounds alike.  These tests
drive real process pools through injected faults and assert the strictest
observable form of that contract: ``/dev/shm`` holds no ``repro-shm-*``
segment owned by this process once the map returns.
"""

import os

import numpy as np
import pytest

from repro.parallel import ArrayRef, ShmTransport, TaskError, parallel_map
from repro.parallel.shm import (
    DEFAULT_MIN_BYTES,
    open_payload,
    reclaim_orphans,
)
from repro.testing import FaultPlan

#: One array comfortably over the pickle/descriptor threshold.
BIG_SHAPE = (64, DEFAULT_MIN_BYTES // (64 * 8) + 8)


def our_segments(shm_dir="/dev/shm"):
    """``repro-shm`` segments owned by this test process."""
    prefix = f"repro-shm-{os.getpid()}-"
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-Linux fallback
        return []
    return sorted(n for n in names if n.startswith(prefix))


def big_arrays(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=BIG_SHAPE) for _ in range(n)]


def total(item):
    """Module-level task: sum the array in an ``(index, array)`` item."""
    _, arr = item
    return float(np.asarray(arr).sum())


def identity_array(item):
    """Return the payload array itself — a view into the segment."""
    return item[1]


# -- transport unit behaviour ------------------------------------------------

class TestShmTransport:
    def test_encode_substitutes_refs_and_decode_roundtrips(self):
        transport = ShmTransport(min_bytes=0)
        data = np.arange(12.0).reshape(3, 4)
        try:
            encoded = transport.encode("k", {"x": data, "tag": "t"})
            assert isinstance(encoded["x"], ArrayRef)
            assert encoded["tag"] == "t"
            decoded, atts = open_payload(encoded)
            np.testing.assert_array_equal(decoded["x"], data)
            atts.close()
        finally:
            transport.release_all()
        assert our_segments() == []

    def test_small_arrays_stay_pickled(self):
        transport = ShmTransport(min_bytes=DEFAULT_MIN_BYTES)
        small = np.ones(4)
        encoded = transport.encode("k", [small])
        assert encoded[0] is small
        assert transport.live_segments() == 0

    def test_release_is_idempotent_and_keyed(self):
        transport = ShmTransport(min_bytes=0)
        transport.encode("a", np.ones(8))
        transport.encode("b", np.ones(8))
        assert transport.live_segments() == 2
        transport.release("a")
        transport.release("a")
        assert transport.live_segments() == 1
        transport.release_all()
        assert transport.live_segments() == 0
        assert our_segments() == []

    def test_detach_copies_aliased_results(self):
        transport = ShmTransport(min_bytes=0)
        data = np.arange(6.0)
        try:
            decoded, atts = open_payload(transport.encode("k", data))
            result = atts.detach({"echo": decoded, "n": 6})
            atts.close()
        finally:
            transport.release_all()
        # The copy must survive the segment's destruction.
        np.testing.assert_array_equal(result["echo"], np.arange(6.0))
        assert result["n"] == 6


def test_reclaim_orphans_sweeps_only_dead_owners(tmp_path):
    shm_dir = tmp_path / "shm"
    shm_dir.mkdir()
    # A pid from a long-dead process: pid 1 is alive, 2**22 + 1 is
    # beyond the default pid_max.
    (shm_dir / "repro-shm-4194305-1").write_bytes(b"x")
    (shm_dir / "repro-shm-1-1").write_bytes(b"x")
    (shm_dir / f"repro-shm-{os.getpid()}-9").write_bytes(b"x")
    (shm_dir / "unrelated-file").write_bytes(b"x")
    assert reclaim_orphans(str(shm_dir)) == 1
    assert sorted(p.name for p in shm_dir.iterdir()) == [
        "repro-shm-1-1",
        f"repro-shm-{os.getpid()}-9",
        "unrelated-file",
    ]
    # Idempotent: a second sweep finds nothing.
    assert reclaim_orphans(str(shm_dir)) == 0


# -- through the executor ----------------------------------------------------

def shm_map(fn, items, on_failure="raise"):
    return parallel_map(fn, items, workers=2, on_failure=on_failure,
                        shm=True)


def test_process_map_matches_serial_and_leaks_nothing():
    arrays = big_arrays(6)
    items = list(enumerate(arrays))
    out = shm_map(total, items)
    assert out == [float(a.sum()) for a in arrays]
    assert our_segments() == []


def test_result_aliasing_segment_view_survives_release():
    arrays = big_arrays(3, seed=1)
    items = list(enumerate(arrays))
    out = shm_map(identity_array, items)
    for got, sent in zip(out, arrays):
        np.testing.assert_array_equal(got, sent)
    assert our_segments() == []


def test_worker_crash_releases_segments(tmp_path):
    # on_failure="raise": the map aborts on the crash with tasks still
    # registered, and the abort path must release them too.
    plan = FaultPlan(tmp_path).crash(1, times=10)
    items = list(enumerate(big_arrays(4, seed=2)))
    with pytest.raises(TaskError) as excinfo:
        shm_map(plan.wrap(total), items)
    assert excinfo.value.failure.kind == "crash"
    assert excinfo.value.failure.index == 1
    assert our_segments() == []


def test_task_timeout_releases_segments(tmp_path):
    # Tasks have no deadline, so a slow task is never killed.  The case
    # that remains: on_failure="raise" aborts the map on task 1's error
    # while task 0 is still in flight (a real, finite sleep), and the
    # in-flight task's segments must go too.
    plan = FaultPlan(tmp_path).hang(0, duration=0.5).fail(1, times=10,
                                                          message="boom")
    items = list(enumerate(big_arrays(3, seed=4)))
    with pytest.raises(ValueError, match="boom"):
        shm_map(plan.wrap(total), items)
    assert our_segments() == []


def test_exhausted_crash_failure_releases_segments(tmp_path):
    plan = FaultPlan(tmp_path).crash(0, times=10)
    items = list(enumerate(big_arrays(3, seed=3)))
    # Tasks merely in flight beside the crasher are not charged for the
    # broken pool; they re-run one at a time and succeed.
    result = shm_map(plan.wrap(total), items, on_failure="collect")
    assert result.failed_indices() == [0]
    assert [result[1], result[2]] == [total(items[1]), total(items[2])]
    assert our_segments() == []
