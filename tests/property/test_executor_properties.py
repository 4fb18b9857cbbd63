"""Property-based tests: the executor is ``map``.

For random task and worker counts, both execution paths — inline (one
worker) and the process pool (two or more) — must return exactly
``list(map(fn, args))``: same values, same order.
"""

from hypothesis import given, settings, strategies as st

from repro.parallel import parallel_map

n_tasks = st.integers(min_value=0, max_value=12)


def affine(x):
    """Module-level task so the process pool can pickle it."""
    return 2 * x + 1


def reference(n):
    return [affine(i) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(n_tasks)
def test_serial_backend_is_map(n):
    assert parallel_map(affine, range(n), workers=1) == reference(n)


@settings(max_examples=8, deadline=None)
@given(n_tasks, st.integers(min_value=2, max_value=3))
def test_process_backend_is_map(n, w):
    # Few examples: each parallel draw builds a real process pool.
    assert parallel_map(affine, range(n), workers=w) == reference(n)
