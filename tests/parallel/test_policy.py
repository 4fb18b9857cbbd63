"""``parallel_map`` arguments and failure records."""

import inspect

import pytest

from repro.parallel import (
    MapResult,
    TaskError,
    TaskFailure,
    parallel_map,
)


def double(x):
    return x * 2


class TestExecutorArguments:
    def test_defaults_preserve_legacy_behaviour(self):
        params = inspect.signature(parallel_map).parameters
        assert {name: p.default for name, p in params.items()
                if p.kind is p.KEYWORD_ONLY} == {
            "workers": None, "on_failure": "raise", "shm": False}
        out = parallel_map(double, [1, 2, 3], workers=1)
        assert type(out) is list and out == [2, 4, 6]

    def test_fault_knobs_are_not_arguments(self):
        # One attempt per task, one task per submission, no deadlines:
        # there is nothing to tune.
        for knob, value in [("retries", 1), ("task_timeout", 30.0),
                            ("chunksize", 2), ("clock", object())]:
            with pytest.raises(TypeError, match=knob):
                parallel_map(double, [1], workers=1, **{knob: value})

    def test_negative_retries_rejected(self):
        # Every task gets one attempt; no retry count is accepted.
        with pytest.raises(TypeError, match="retries"):
            parallel_map(double, [1], retries=-1)

    def test_nonpositive_timeout_rejected(self):
        # Tasks have no deadline; no timeout is accepted.
        with pytest.raises(TypeError, match="task_timeout"):
            parallel_map(double, [1], task_timeout=-1.0)

    def test_backend_is_not_an_argument(self):
        # The worker count picks the path; there is no backend to name.
        with pytest.raises(TypeError):
            parallel_map(double, [1], backend="process")
        with pytest.raises(TypeError):
            parallel_map(double, [1], "process")

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


class TestFailureRecords:
    def _failure(self, **over):
        base = dict(index=4, kind="crash", error_type="BrokenProcessPool",
                    message="a worker died")
        base.update(over)
        return TaskFailure(**base)

    def test_str_names_task_and_kind(self):
        text = str(self._failure())
        assert "task 4" in text and "crash" in text
        assert "BrokenProcessPool: a worker died" in text

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
