"""The fault-injection harness itself: plans and attempt counting."""

import pickle
import time

import pytest

from repro.parallel import WorkerCrashError
from repro.testing import CORRUPTED, Fault, FaultPlan
from repro.testing.faults import index_of


def ident(x):
    return x


class TestFaultAuthoring:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(index=0, kind="explode")

    def test_zero_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            Fault(index=0, kind="raise", times=0)

    def test_duplicate_index_rejected(self, tmp_path):
        plan = FaultPlan(tmp_path).fail(1)
        with pytest.raises(ValueError, match="already has a fault"):
            plan.crash(1)

    def test_workdir_must_exist(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            FaultPlan(tmp_path / "missing")

    def test_index_of_accepts_scalars_and_tuples(self):
        assert index_of(3) == 3
        assert index_of((2, "payload")) == 2
        assert index_of([5]) == 5


class TestFaultExecution:
    def test_unfaulted_tasks_pass_through(self, tmp_path):
        fn = FaultPlan(tmp_path).fail(1).wrap(ident)
        assert fn(0) == 0

    def test_raise_then_recover(self, tmp_path):
        plan = FaultPlan(tmp_path).fail(0, times=2, message="flaky")
        fn = plan.wrap(ident)
        for _ in range(2):
            with pytest.raises(ValueError, match="flaky"):
                fn(0)
        assert fn(0) == 0  # third attempt recovers
        assert plan.attempts(0) == 3

    def test_crash_in_test_process_is_emulated(self, tmp_path):
        fn = FaultPlan(tmp_path).crash(0).wrap(ident)
        with pytest.raises(WorkerCrashError):
            fn(0)

    def test_hang_sleeps_then_computes(self, tmp_path):
        fn = FaultPlan(tmp_path).hang(0, duration=0.05).wrap(ident)
        t0 = time.perf_counter()
        assert fn(0) == 0
        assert time.perf_counter() - t0 >= 0.05
        assert fn(0) == 0  # only the first attempt sleeps

    def test_corrupt_returns_wrong_value(self, tmp_path):
        fn = FaultPlan(tmp_path).corrupt(0, value="junk").wrap(ident)
        assert fn(0) == "junk"
        fn = FaultPlan(tmp_path).corrupt(1).wrap(ident)
        assert fn(1) == CORRUPTED

    def test_wrapped_fn_is_picklable(self, tmp_path):
        fn = FaultPlan(tmp_path).fail(0).wrap(ident)
        clone = pickle.loads(pickle.dumps(fn))
        assert clone(5) == 5

    def test_attempt_counting_is_shared_through_the_workdir(self, tmp_path):
        # Two independently-pickled copies (as two pool workers would
        # be) observe one shared attempt sequence.
        plan = FaultPlan(tmp_path).fail(0, times=1)
        a = plan.wrap(ident)
        b = pickle.loads(pickle.dumps(a))
        with pytest.raises(ValueError):
            a(0)
        assert b(0) == 0  # copy sees attempt 1 already claimed
        assert plan.attempts(0) == 2


class TestSeededPlans:
    def test_same_seed_same_schedule(self, tmp_path):
        kw = dict(seed=11, n_tasks=30, n_faults=6, kinds=("raise", "crash"))
        (d1 := tmp_path / "x").mkdir()
        (d2 := tmp_path / "y").mkdir()
        p1 = FaultPlan.seeded(d1, **kw)
        p2 = FaultPlan.seeded(d2, **kw)
        assert {i: f.kind for i, f in p1.faults.items()} == \
            {i: f.kind for i, f in p2.faults.items()}
        assert len(p1.faults) == 6

    def test_different_seed_different_schedule(self, tmp_path):
        (d1 := tmp_path / "x").mkdir()
        (d2 := tmp_path / "y").mkdir()
        p1 = FaultPlan.seeded(d1, seed=1, n_tasks=50, n_faults=8)
        p2 = FaultPlan.seeded(d2, seed=2, n_tasks=50, n_faults=8)
        assert p1.faults.keys() != p2.faults.keys() or \
            {i: f.kind for i, f in p1.faults.items()} != \
            {i: f.kind for i, f in p2.faults.items()}

    def test_n_faults_capped_by_n_tasks(self, tmp_path):
        plan = FaultPlan.seeded(tmp_path, seed=0, n_tasks=3, n_faults=10)
        assert len(plan.faults) == 3
