"""Property-based tests: the executor is ``map``, whatever the knobs.

For random task counts and chunk sizes, both execution paths — inline
(one worker) and the process pool (two or more) — must return exactly
``list(map(fn, args))``: same values, same order.
"""

from hypothesis import given, settings, strategies as st

from repro.parallel import parallel_map

n_tasks = st.integers(min_value=0, max_value=12)
chunksizes = st.integers(min_value=1, max_value=5)


def affine(x):
    """Module-level task so the process pool can pickle it."""
    return 2 * x + 1


def reference(n):
    return [affine(i) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(n_tasks, chunksizes)
def test_serial_backend_is_map(n, cs):
    assert parallel_map(affine, range(n), workers=1,
                        chunksize=cs) == reference(n)


@settings(max_examples=8, deadline=None)
@given(n_tasks, st.integers(min_value=2, max_value=3), chunksizes)
def test_process_backend_is_map(n, w, cs):
    # Few examples: each parallel draw builds a real process pool.
    assert parallel_map(affine, range(n), workers=w,
                        chunksize=cs) == reference(n)


@settings(max_examples=30, deadline=None)
@given(n_tasks, chunksizes, st.integers(min_value=0, max_value=3))
def test_retry_knobs_do_not_change_faultless_results(n, cs, retries):
    # With no faults, retries/timeouts are invisible.
    assert parallel_map(affine, range(n), workers=1, chunksize=cs,
                        retries=retries, task_timeout=60.0) == reference(n)

