"""Span/metric propagation across parallel_map worker processes."""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.parallel.executor import parallel_map
from repro.testing import FaultPlan


def traced_task(x: int) -> int:
    """Module-level (picklable) task that emits a span and a counter."""
    with obs.span("work.unit", item=x):
        obs.counter("work.items").add(1)
        return x * x


def test_counters_aggregate_across_workers():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        results = parallel_map(traced_task, list(range(6)), workers=2)
    assert results == [x * x for x in range(6)]
    assert agg.counters["work.items"] == 6
    # parallel.tasks counts submissions on the parent side.
    assert agg.counters["parallel.tasks"] == 6
    assert agg.get("work.unit").count == 6


def test_worker_spans_nest_under_parallel_map():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        parallel_map(traced_task, [1, 2, 3, 4], workers=2)
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        parallel_map(traced_task, [1, 2], workers=2)
    spans = [e for e in buf.events if isinstance(e, obs.SpanRecord)]
    workers = [r for r in spans if r.name == "work.unit"]
    tasks = [r for r in spans if r.name == "parallel.task"]
    outer = [r for r in spans if r.name == "parallel.map"]
    assert len(workers) == 2 and len(tasks) == 2 and len(outer) == 1
    for record in tasks:
        assert record.parent == "parallel.map"
        assert record.depth == 1
    for record in workers:
        assert record.parent == "parallel.task"
        assert record.depth == 2


def test_worker_pid_preserved():
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        parallel_map(traced_task, [1, 2, 3, 4], workers=2)
    parent_pid = os.getpid()
    worker_spans = [
        e for e in buf.events
        if isinstance(e, obs.SpanRecord) and e.name == "work.unit"
    ]
    assert worker_spans
    assert all(r.pid != parent_pid for r in worker_spans)


def test_serial_path_still_traced():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        parallel_map(traced_task, [3], workers=1)
    assert agg.get("parallel.map").count == 1
    assert agg.get("work.unit").count == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_one_task_span_per_task(workers):
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        parallel_map(traced_task, list(range(5)), workers=workers)
    tasks = [e for e in buf.events
             if isinstance(e, obs.SpanRecord) and e.name == "parallel.task"]
    assert len(tasks) == 5
    if workers == 1:
        assert all(r.pid == os.getpid() for r in tasks)
    else:
        assert all(r.pid != os.getpid() for r in tasks)


def test_untraced_parallel_map_unchanged():
    assert parallel_map(traced_task, [2, 3], workers=2) == [4, 9]
    agg = obs.aggregator()
    assert agg is not None and agg.empty


class StartsAfter:
    """``fn``, except that task ``index`` first waits until task
    ``first`` has started an attempt under ``plan`` (picklable)."""

    def __init__(self, fn, plan: FaultPlan, index: int, first: int):
        self.fn, self.plan, self.index, self.first = fn, plan, index, first

    def __call__(self, x: int) -> int:
        if x == self.index:
            deadline = time.monotonic() + 30.0
            while not self.plan.attempts(self.first):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"task {self.first} never started")
                time.sleep(0.001)
        return self.fn(x)


def test_merge_is_exactly_once_across_a_mid_map_retry(tmp_path):
    # Task 0 kills its worker while task 1 is still running (a real,
    # finite sleep) and tasks 2-3 wait queued.  None is charged: the
    # pool is rebuilt and each suspect re-runs alone, where task 0's
    # one-off crash does not recur.  Runs lost to the crash take their
    # events with them, so every task still merges exactly once.  Task
    # 0 crashes only once task 1 has started, however slowly the second
    # worker picks it up.
    plan = FaultPlan(tmp_path).crash(0, times=1).hang(1, duration=0.5)
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        results = parallel_map(StartsAfter(plan.wrap(traced_task), plan, 0, 1),
                               list(range(6)), workers=2)
    assert results == [x * x for x in range(6)]
    assert plan.attempts(0) == 2 and plan.attempts(1) == 2
    # Exactly one merged work.unit span and counter tick per task.
    assert agg.counters["work.items"] == 6
    assert agg.get("work.unit").count == 6
    assert agg.get("parallel.task").count == 6
    assert agg.counters["parallel.tasks"] == 6  # parent-side, once
    assert "parallel.failures" not in agg.counters


def test_failure_counter_ticks_on_exhaustion(tmp_path):
    plan = FaultPlan(tmp_path).fail(1, times=10)
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        result = parallel_map(plan.wrap(traced_task), list(range(4)),
                              workers=2, on_failure="collect")
    assert result.failed_indices() == [1]
    assert agg.counters["parallel.failures"] == 1
    # The three healthy tasks merged exactly once each.
    assert agg.counters["work.items"] == 3
    assert agg.get("work.unit").count == 3
