"""Process-pool map."""

import functools
import os

import pytest

from repro.check.sanitize import sanitized
from repro.parallel.executor import effective_workers, parallel_map


def square(x):
    return x * x


def failing(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


class TestParallelMap:
    def test_order_preserved(self):
        assert parallel_map(square, range(20), workers=4) == [
            i * i for i in range(20)
        ]

    def test_serial_fallback(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_single_task_stays_in_process(self):
        marker = []

        def record(x):
            marker.append(x)
            return x

        # Non-picklable closure works because a single task never leaves
        # the calling process.  The sanitizer's determinism replay would
        # invoke record twice, so switch it off for the invocation count.
        with sanitized(False):
            assert parallel_map(record, [7], workers=8) == [7]
        assert marker == [7]

    def test_empty(self):
        assert parallel_map(square, [], workers=4) == []

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(failing, [1, 2, 3, 4], workers=2)

    def test_bad_chunksize(self):
        # One task per submission; no chunk size is accepted.
        with pytest.raises(TypeError, match="chunksize"):
            parallel_map(square, [1], chunksize=0)


def worker_pid(x):
    return os.getpid()


class TestSingleTask:
    """A one-task map degrades to the inline path."""

    def test_default_single_task_degrades_to_inline(self):
        (pid,) = parallel_map(worker_pid, [0], workers=2)
        assert pid == os.getpid()


class TestPathSelection:
    """The worker count alone picks inline or the process pool."""

    def test_two_workers_run_outside_the_caller(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        pids = parallel_map(worker_pid, range(4), workers=2)
        assert os.getpid() not in pids

    def test_one_worker_runs_inside_the_caller(self):
        pids = parallel_map(worker_pid, range(4), workers=1)
        assert pids == [os.getpid()] * 4


class TestPicklabilityValidation:
    """Unpicklable callables fail fast, before any worker is spawned."""

    def test_lambda_rejected_on_parallel_path(self):
        with pytest.raises(TypeError, match="lambda"):
            parallel_map(lambda x: x, [1, 2, 3], workers=2)

    def test_nested_function_rejected_on_parallel_path(self):
        def local(x):
            return x

        with pytest.raises(TypeError, match="module level"):
            parallel_map(local, [1, 2, 3], workers=2)

    def test_error_names_the_offender(self):
        def helper(x):
            return x

        with pytest.raises(TypeError, match="helper"):
            parallel_map(helper, [1, 2, 3], workers=2)

    def test_partial_of_module_level_function_accepted(self):
        bound = functools.partial(square)
        assert parallel_map(bound, [1, 2], workers=2) == [1, 4]

    def test_partial_wrapping_lambda_rejected(self):
        bound = functools.partial(lambda x: x)
        with pytest.raises(TypeError, match="lambda"):
            parallel_map(bound, [1, 2, 3], workers=2)

    def test_lambda_allowed_on_serial_path(self):
        # Serial execution never pickles; the early check must not
        # over-reject what actually works.
        with sanitized(False):
            assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]


class TestEffectiveWorkers:
    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_workers() == (os.cpu_count() or 1)

    def test_capped_by_tasks(self):
        assert effective_workers(8, n_tasks=3) == 3

    def test_minimum_one(self):
        assert effective_workers(0, n_tasks=0) == 1

    def test_only_none_means_full_width(self, monkeypatch):
        # Callers pass their int ``workers`` (default 0) straight
        # through, so any int <= 1 must mean inline.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_workers(0) == effective_workers(-1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(0) == effective_workers(-1) == 1
        assert effective_workers(None) == 3

    def test_workers_zero_maps_inline(self):
        # A closure cannot cross to a pool: it runs only inline.
        seen = []

        def record(x):
            seen.append(x)
            return x

        with sanitized(False):
            assert parallel_map(record, [1, 2, 3], workers=0) == [1, 2, 3]
        assert seen == [1, 2, 3]


class TestReproWorkersEnv:
    """$REPRO_WORKERS bounds pool width without code changes."""

    def test_env_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers() == 3

    def test_env_caps_an_explicit_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert effective_workers(8) == 2

    def test_env_does_not_raise_an_explicit_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "16")
        assert effective_workers(2) == 2

    def test_task_cap_still_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert effective_workers(n_tasks=3) == 3

    @pytest.mark.parametrize("bad", ["", "  ", "zero", "-1", "0", "2.5"])
    def test_invalid_values_are_ignored(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        assert effective_workers() == (os.cpu_count() or 1)

    def test_env_reaches_parallel_map(self, monkeypatch):
        # With the pool capped to one worker the map takes the inline
        # path, so a closure (unpicklable) succeeds.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        marker = []

        def record(x):
            marker.append(x)
            return x

        with sanitized(False):
            assert parallel_map(record, [1, 2], workers=4) == [1, 2]
        assert marker == [1, 2]
