"""Chaos suite: seeded fault injection against both execution paths.

Each test drives :func:`repro.parallel.parallel_map` through a
deterministic :class:`repro.testing.FaultPlan` and asserts the executor's
contract: non-faulted tasks return exactly their ``map`` values in input
order, faulted tasks either recover within their retry budget or settle
as structured :class:`TaskFailure` records, and completed work is never
lost — even when the fault kills a real worker process mid-map.
"""

import pytest

from repro.parallel import (
    MapResult,
    TaskError,
    TaskFailure,
    parallel_map,
)
from repro.testing import CORRUPTED, FakeClock, FaultPlan

#: The two paths, keyed by the worker count that selects them: one
#: worker runs inline ("serial"), two run on a process pool ("process")
#: even though CI may expose a single CPU.
PATHS = {"serial": 1, "process": 2}

pytestmark = pytest.mark.parametrize("path", list(PATHS))


def triple(x):
    """Module-level task so the process pool can pickle it."""
    return x * 3


def expected(n):
    return [triple(i) for i in range(n)]


def run(fn, n, path, **kwargs):
    return parallel_map(fn, range(n), workers=PATHS[path], **kwargs)


# -- retry-then-succeed -------------------------------------------------------

def test_transient_exception_retries_then_succeeds(path, tmp_path):
    plan = FaultPlan(tmp_path).fail(3, times=2)
    clock = FakeClock()
    out = run(plan.wrap(triple), 8, path, retries=2, clock=clock)
    assert out == expected(8)
    assert plan.attempts(3) == 3  # two injected failures + the success
    # The backoff schedule ran (on the virtual clock, so instantly) and
    # grew between rounds.
    waits = [s for s in clock.sleeps if s > 0]
    assert len(waits) == 2 and waits[1] > waits[0]


def test_crash_is_rescheduled_on_a_rebuilt_pool(path, tmp_path):
    # On the process pool this is a real os._exit in the worker: the
    # pool breaks, is rebuilt, and the map still completes.
    plan = FaultPlan(tmp_path).crash(1, times=1)
    out = run(plan.wrap(triple), 6, path, retries=1)
    assert out == expected(6)
    assert plan.attempts(1) == 2


def test_hang_is_killed_and_retried(path, tmp_path):
    clock = FakeClock()
    hang_clock = clock if path == "serial" else None
    plan = FaultPlan(tmp_path).hang(0, duration=30.0, times=1)
    out = run(plan.wrap(triple, clock=hang_clock), 4, path,
              retries=1, task_timeout=0.5,
              clock=clock if path == "serial" else None)
    assert out == expected(4)
    assert plan.attempts(0) == 2


# -- retries exhausted --------------------------------------------------------

def test_exhausted_retries_become_taskfailure(path, tmp_path):
    plan = FaultPlan(tmp_path).fail(2, times=10, message="always broken")
    result = run(plan.wrap(triple), 5, path, retries=1,
                 on_failure="collect", clock=FakeClock())
    assert isinstance(result, MapResult)
    assert not result.ok
    assert result.failed_indices() == [2]
    failure = result[2]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "exception"
    assert failure.error_type == "ValueError"
    assert failure.attempts == 2
    assert "always broken" in failure.message
    # Non-faulted slots are exactly the map values, in order.
    assert [result.value(i) for i in (0, 1, 3, 4)] == \
        [triple(i) for i in (0, 1, 3, 4)]


def test_exhausted_crash_failure_kind(path, tmp_path):
    plan = FaultPlan(tmp_path).crash(0, times=10)
    result = run(plan.wrap(triple), 3, path, retries=1,
                 on_failure="collect", clock=FakeClock())
    assert result.failed_indices() == [0]
    assert result[0].kind == "crash"
    assert result[0].attempts == 2
    assert [result[1], result[2]] == [triple(1), triple(2)]


def test_crash_is_never_charged_to_a_bystander(path, tmp_path):
    # Task 1 is still running when task 0 kills its worker.  With no
    # retries, charging the broken pool to task 1 would fail it; it must
    # re-run instead, and only the crasher settles as a failure.
    clock = FakeClock()
    plan = FaultPlan(tmp_path).crash(0, times=10).hang(1, duration=1.0)
    result = run(plan.wrap(triple,
                           clock=clock if path == "serial" else None),
                 4, path, retries=0, on_failure="collect", clock=clock)
    assert result.failed_indices() == [0]
    assert result[0].kind == "crash"
    assert result[0].attempts == 1
    assert [result.value(i) for i in (1, 2, 3)] == \
        [triple(i) for i in (1, 2, 3)]


def test_raise_policy_raises_original_exception(path, tmp_path):
    plan = FaultPlan(tmp_path).fail(1, times=10, message="boom")
    with pytest.raises(ValueError, match="boom"):
        run(plan.wrap(triple), 4, path, retries=1, clock=FakeClock())


def test_raise_policy_timeout_raises_taskerror(path, tmp_path):
    clock = FakeClock()
    hang_clock = clock if path == "serial" else None
    plan = FaultPlan(tmp_path).hang(1, duration=30.0, times=10)
    with pytest.raises(TaskError) as excinfo:
        run(plan.wrap(triple, clock=hang_clock), 3, path,
            task_timeout=0.3, clock=clock if path == "serial" else None)
    assert excinfo.value.failure.kind == "timeout"
    assert excinfo.value.failure.index == 1


# -- determinism and no lost work --------------------------------------------

def test_seeded_chaos_is_deterministic_and_loses_nothing(path, tmp_path):
    n = 12
    results = []
    for attempt_dir in ("a", "b"):
        workdir = tmp_path / attempt_dir
        workdir.mkdir()
        plan = FaultPlan.seeded(workdir, seed=7, n_tasks=n, n_faults=4,
                                kinds=("raise", "crash"), times=1)
        out = run(plan.wrap(triple), n, path, retries=2,
                  clock=FakeClock())
        results.append(out)
    # Every fault recovers within the budget, results are complete and
    # ordered, and the same seed replays the identical schedule.
    assert results[0] == expected(n)
    assert results[0] == results[1]


def test_failures_do_not_poison_chunkmates(path, tmp_path):
    # chunksize > 1 puts faulted and healthy tasks in one chunk; the
    # healthy ones must still land their values.
    plan = FaultPlan(tmp_path).fail(1, times=10)
    result = run(plan.wrap(triple), 6, path, retries=0, chunksize=3,
                 on_failure="collect")
    assert result.failed_indices() == [1]
    assert [result.value(i) for i in (0, 2, 3, 4, 5)] == \
        [triple(i) for i in (0, 2, 3, 4, 5)]


def test_corruption_passes_through_undetected(path, tmp_path):
    # `corrupt` proves the executor's blind spot by construction: the
    # wrong value arrives as a success — catching it is the job of the
    # verification layers above.
    plan = FaultPlan(tmp_path).corrupt(2)
    out = run(plan.wrap(triple), 4, path)
    assert out[2] == CORRUPTED
    assert [out[0], out[1], out[3]] == [triple(0), triple(1), triple(3)]


def test_multiple_fault_kinds_in_one_map(path, tmp_path):
    plan = (FaultPlan(tmp_path)
            .fail(0, times=1)
            .crash(4, times=1)
            .fail(7, times=10, message="hopeless"))
    result = run(plan.wrap(triple), 9, path, retries=1,
                 on_failure="collect", clock=FakeClock())
    assert result.failed_indices() == [7]
    assert result[7].error_type == "ValueError"
    ok = [i for i in range(9) if i != 7]
    assert [result.value(i) for i in ok] == [triple(i) for i in ok]
    assert "1/9" in result.summary()
