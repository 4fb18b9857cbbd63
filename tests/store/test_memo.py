"""cached(): compute-once semantics and fallbacks."""

import numpy as np

from repro.store import (
    ArtifactStore,
    SkipStore,
    cached,
    clear_override,
    storing,
)


def test_cached_without_store_always_computes():
    clear_override()
    calls = []
    with storing(None):
        assert cached("0" * 64, lambda: calls.append(1) or 7) == 7
        assert cached("0" * 64, lambda: calls.append(1) or 7) == 7
    assert len(calls) == 2


def test_cached_computes_once(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    with storing(tmp_path):
        first = cached("a" * 64, compute, kind="json", stage="s")
        second = cached("a" * 64, compute, kind="json", stage="s")
    assert first == second == {"answer": 42}
    assert len(calls) == 1


def test_cached_encode_decode(tmp_path):
    arr = np.arange(4, dtype=np.float64)
    with storing(tmp_path):
        for _ in range(2):
            got = cached(
                "b" * 64,
                lambda: arr,
                kind="npz",
                encode=lambda a: {"arr": a},
                decode=lambda d: d["arr"],
            )
            np.testing.assert_array_equal(got, arr)


def test_cached_explicit_store_param(tmp_path):
    st = ArtifactStore(tmp_path)
    clear_override()
    with storing(None):  # ambient store off; explicit store still used
        cached("c" * 64, lambda: 1, store=st)
    assert st.contains("c" * 64)


def test_cached_put_failure_still_returns_value(tmp_path, monkeypatch):
    st = ArtifactStore(tmp_path)

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(st, "put", boom)
    with storing(st):
        assert cached("d" * 64, lambda: 5) == 5


def test_corrupt_artifact_triggers_recompute(tmp_path):
    """Acceptance criterion: corrupted artifacts fall back to recompute."""
    calls = []

    def compute():
        calls.append(1)
        return {"rows": [1, 2, 3]}

    key = "e" * 64
    with storing(tmp_path) as st:
        cached(key, compute, kind="json")
        # Truncate the artifact on disk behind the store's back.
        path = st._object_path(key)
        path.write_bytes(path.read_bytes()[:-4])
        got = cached(key, compute, kind="json")
        assert got == {"rows": [1, 2, 3]}
        assert len(calls) == 2  # recomputed, not served corrupt bytes
        # The recompute repopulated a now-valid artifact.
        assert cached(key, compute, kind="json") == {"rows": [1, 2, 3]}
        assert len(calls) == 2


def test_skipstore_returns_value_without_a_store():
    clear_override()

    def degraded():
        raise SkipStore("partial")

    with storing(None):
        assert cached("d" * 64, degraded) == "partial"


def test_skipstore_suppresses_the_write(tmp_path):
    degraded_calls = []

    def degraded():
        degraded_calls.append(1)
        raise SkipStore({"rows": 1})

    full_calls = []

    def full():
        full_calls.append(1)
        return {"rows": 9}

    with storing(tmp_path):
        # A vetoed value reaches the caller but never the store: the
        # second call recomputes instead of hitting a cached partial.
        assert cached("e" * 64, degraded, kind="json", stage="s") == {
            "rows": 1
        }
        assert cached("e" * 64, degraded, kind="json", stage="s") == {
            "rows": 1
        }
        assert len(degraded_calls) == 2
        # A later clean compute fills the slot normally.
        assert cached("e" * 64, full, kind="json", stage="s") == {"rows": 9}
        assert cached("e" * 64, full, kind="json", stage="s") == {"rows": 9}
    assert len(full_calls) == 1


def test_skipstore_ticks_the_skipped_counter(tmp_path):
    from repro import obs

    def degraded():
        raise SkipStore(5)

    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]), storing(tmp_path):
        assert cached("f" * 64, degraded, stage="deg") == 5
    assert agg.counters["store.skipped[stage=deg]"] == 1
