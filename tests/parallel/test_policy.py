"""Executor arguments, the backoff schedule, and failure records."""

import pytest

from repro.parallel import (
    Executor,
    MapResult,
    TaskError,
    TaskFailure,
    parallel_map,
)
from repro.testing import FakeClock, FaultPlan


def double(x):
    return x * 2


class TestExecutorArguments:
    def test_defaults_preserve_legacy_behaviour(self):
        ex = Executor()
        assert (ex.retries, ex.task_timeout, ex.shm) == (0, None, False)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            Executor(retries=-1)
        with pytest.raises(ValueError, match="retries"):
            parallel_map(double, [1], retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            Executor(task_timeout=0)
        with pytest.raises(ValueError, match="task_timeout"):
            parallel_map(double, [1], task_timeout=-1.0)

    def test_backend_is_not_an_argument(self):
        # The worker count picks the path; there is no backend to name.
        with pytest.raises(TypeError):
            Executor("process")
        with pytest.raises(TypeError):
            parallel_map(double, [1], backend="process")

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            parallel_map(double, [1], on_failure="ignore")

    def test_collect_on_success_is_ok_mapresult(self):
        result = parallel_map(double, [1, 2, 3], workers=1,
                              on_failure="collect")
        assert isinstance(result, MapResult)
        assert result.ok
        assert result.values == [2, 4, 6]
        assert list(result) == [2, 4, 6]
        assert "succeeded" in result.summary()


class TestBackoff:
    def test_backoff_schedule_is_exponential_and_capped(self, tmp_path):
        # Task 0 fails seven times; each retry round waits on the
        # virtual clock: 0.05 s, doubling, capped at 2 s.
        plan = FaultPlan(tmp_path).fail(0, times=7)
        clock = FakeClock()
        out = parallel_map(plan.wrap(double), range(2), workers=1,
                           retries=7, clock=clock)
        assert out == [0, 2]
        assert clock.sleeps == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0])


class TestFailureRecords:
    def _failure(self, **over):
        base = dict(index=4, kind="timeout", error_type="Timeout",
                    message="exceeded task_timeout=1s", attempts=3)
        base.update(over)
        return TaskFailure(**base)

    def test_str_names_task_kind_and_attempts(self):
        text = str(self._failure())
        assert "task 4" in text and "timeout" in text and "3" in text

    def test_as_error_prefers_original_exception(self):
        original = KeyError("missing")
        failure = self._failure(kind="exception", exc=original)
        assert failure.as_error() is original

    def test_as_error_falls_back_to_taskerror(self):
        failure = self._failure()
        err = failure.as_error()
        assert isinstance(err, TaskError)
        assert err.failure is failure

    def test_mapresult_values_raises_on_failure(self):
        failure = self._failure(index=1)
        result = MapResult([0, failure, 4], [failure])
        assert not result.ok
        with pytest.raises(TaskError):
            result.values
        assert result.value(1, default=-1) == -1
        assert result.value(0) == 0
