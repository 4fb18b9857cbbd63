"""Chaos suite: seeded fault injection against both execution paths.

Each test drives :func:`repro.parallel.parallel_map` through a
deterministic :class:`repro.testing.FaultPlan` and asserts the executor's
contract: non-faulted tasks return exactly their ``map`` values in input
order, each task gets one attempt, a failed task settles as a structured
:class:`TaskFailure`, a crash is charged only to its culprit, and
completed work is never lost — even when the fault kills a real worker
process mid-map.
"""

import pytest

from repro.parallel import (
    MapResult,
    TaskError,
    TaskFailure,
    parallel_map,
)
from repro.testing import CORRUPTED, FaultPlan

#: The two paths, keyed by the worker count that selects them: one
#: worker runs inline ("serial"), two run on a process pool ("process")
#: even though CI may expose a single CPU.
PATHS = {"serial": 1, "process": 2}

#: How long a ``hang`` fault keeps its task in flight (real seconds).
SLOW = 0.5

pytestmark = pytest.mark.parametrize("path", list(PATHS))


def triple(x):
    """Module-level task so the process pool can pickle it."""
    return x * 3


def expected(n):
    return [triple(i) for i in range(n)]


def run(fn, n, path, **kwargs):
    return parallel_map(fn, range(n), workers=PATHS[path], **kwargs)


# -- crashes ------------------------------------------------------------------

def test_crash_is_rescheduled_on_a_rebuilt_pool(path, tmp_path):
    # Task 0 is still running when task 1 kills its worker.  On the pool
    # the culprit is unknowable, so neither is charged: both re-run
    # alone on the rebuilt pool, where task 1's one-off crash does not
    # recur.  Inline, the crash has one culprit and is charged at once.
    plan = FaultPlan(tmp_path).hang(0, duration=SLOW).crash(1, times=1)
    result = run(plan.wrap(triple), 6, path, on_failure="collect")
    if path == "process":
        assert result.ok
        assert list(result) == expected(6)
        assert plan.attempts(1) == 2
    else:
        assert result.failed_indices() == [1]
        assert plan.attempts(1) == 1
        assert [result.value(i) for i in (0, 2, 3, 4, 5)] == \
            [triple(i) for i in (0, 2, 3, 4, 5)]


def test_exhausted_crash_failure_kind(path, tmp_path):
    plan = FaultPlan(tmp_path).crash(0, times=10)
    result = run(plan.wrap(triple), 3, path, on_failure="collect")
    assert result.failed_indices() == [0]
    assert result[0].kind == "crash"
    assert result[0].exc is None
    assert [result[1], result[2]] == [triple(1), triple(2)]


def test_crash_is_never_charged_to_a_bystander(path, tmp_path):
    # Task 1 is still running (a real, finite sleep) when task 0 kills
    # its worker.  Charging the broken pool to task 1 would fail it; it
    # must re-run instead, and only the crasher settles as a failure.
    plan = FaultPlan(tmp_path).crash(0, times=10).hang(1, duration=SLOW)
    result = run(plan.wrap(triple), 4, path, on_failure="collect")
    assert result.failed_indices() == [0]
    assert result[0].kind == "crash"
    assert [result.value(i) for i in (1, 2, 3)] == \
        [triple(i) for i in (1, 2, 3)]


def test_raise_policy_crash_raises_taskerror(path, tmp_path):
    plan = FaultPlan(tmp_path).crash(1, times=10)
    with pytest.raises(TaskError) as excinfo:
        run(plan.wrap(triple), 3, path)
    assert excinfo.value.failure.kind == "crash"
    assert excinfo.value.failure.index == 1


# -- exceptions ---------------------------------------------------------------

def test_exhausted_retries_become_taskfailure(path, tmp_path):
    # One attempt per task, so the first failure exhausts it: a fault
    # that would clear on a second try still settles the task as failed.
    plan = FaultPlan(tmp_path).fail(2, times=1, message="broken once")
    result = run(plan.wrap(triple), 5, path, on_failure="collect")
    assert isinstance(result, MapResult)
    assert not result.ok
    assert result.failed_indices() == [2]
    assert plan.attempts(2) == 1
    failure = result[2]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "exception"
    assert failure.error_type == "ValueError"
    assert "broken once" in failure.message
    assert "ValueError" in failure.traceback
    # Non-faulted slots are exactly the map values, in order.
    assert [result.value(i) for i in (0, 1, 3, 4)] == \
        [triple(i) for i in (0, 1, 3, 4)]


def test_failures_do_not_poison_chunkmates(path, tmp_path):
    # Faulted tasks sit between healthy ones submitted in the same
    # round; the healthy ones must still land their values.
    plan = FaultPlan(tmp_path).fail(1, times=10).fail(2, times=10)
    result = run(plan.wrap(triple), 6, path, on_failure="collect")
    assert result.failed_indices() == [1, 2]
    assert [result.value(i) for i in (0, 3, 4, 5)] == \
        [triple(i) for i in (0, 3, 4, 5)]


def test_raise_policy_raises_original_exception(path, tmp_path):
    plan = FaultPlan(tmp_path).fail(1, times=10, message="boom")
    with pytest.raises(ValueError, match="boom"):
        run(plan.wrap(triple), 4, path)


# -- determinism and no lost work --------------------------------------------

def test_seeded_chaos_is_deterministic_and_loses_nothing(path, tmp_path):
    n = 12
    results = []
    for attempt_dir in ("a", "b"):
        workdir = tmp_path / attempt_dir
        workdir.mkdir()
        plan = FaultPlan.seeded(workdir, seed=7, n_tasks=n, n_faults=4,
                                kinds=("raise", "crash"), times=10)
        results.append(run(plan.wrap(triple), n, path,
                           on_failure="collect"))
    # Exactly the faulted tasks fail, every other slot is its map
    # value, and the same seed replays the identical schedule.
    first, second = results
    assert first.failed_indices() == sorted(plan.faults)
    healthy = [i for i in range(n) if i not in plan.faults]
    assert [first.value(i) for i in healthy] == \
        [triple(i) for i in healthy]
    assert [(f.index, f.kind, f.error_type) for f in first.failures] == \
        [(f.index, f.kind, f.error_type) for f in second.failures]


def test_corruption_passes_through_undetected(path, tmp_path):
    # `corrupt` proves the executor's blind spot by construction: the
    # wrong value arrives as a success — catching it is the job of the
    # verification layers above.
    plan = FaultPlan(tmp_path).corrupt(2)
    out = run(plan.wrap(triple), 4, path)
    assert out[2] == CORRUPTED
    assert [out[0], out[1], out[3]] == [triple(0), triple(1), triple(3)]


def test_multiple_fault_kinds_in_one_map(path, tmp_path):
    # Every fault recurs on every attempt: task 7 may finish before
    # task 4's crash or re-run as a suspect beside it, and corrupts
    # either way.
    plan = (FaultPlan(tmp_path)
            .fail(0, times=10)
            .crash(4, times=10)
            .corrupt(7, times=10))
    result = run(plan.wrap(triple), 9, path, on_failure="collect")
    assert result.failed_indices() == [0, 4]
    assert (result[0].kind, result[0].error_type) == ("exception",
                                                      "ValueError")
    assert result[4].kind == "crash"
    assert result[7] == CORRUPTED
    ok = [i for i in range(9) if i not in (0, 4, 7)]
    assert [result.value(i) for i in ok] == [triple(i) for i in ok]
    assert "2/9" in result.summary()
