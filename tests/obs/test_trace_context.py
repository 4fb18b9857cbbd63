"""Trace-context propagation: ids, nesting, workers."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.obs.core import WorkerTask


def test_spans_carry_trace_ids_when_tracing():
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        with obs.span("tc.outer") as outer:
            outer_ctx = outer.context
            with obs.span("tc.inner") as inner:
                inner_ctx = inner.context
    assert outer_ctx is not None and inner_ctx is not None
    assert outer_ctx.trace_id == inner_ctx.trace_id
    assert inner_ctx.parent_id == outer_ctx.span_id
    assert outer_ctx.parent_id is None
    records = {r.name: r for r in buf.events
               if isinstance(r, obs.SpanRecord)}
    assert records["tc.outer"].trace_id == outer_ctx.trace_id
    assert records["tc.outer"].span_id == outer_ctx.span_id
    assert records["tc.inner"].parent_id == outer_ctx.span_id


def test_sibling_roots_get_distinct_traces():
    with obs.tracing():
        with obs.span("tc.a") as a:
            pass
        with obs.span("tc.b") as b:
            pass
    assert a.context.trace_id != b.context.trace_id


def test_no_context_when_tracing_off():
    with obs.span("tc.off") as sp:
        assert sp.context is None
    assert obs.current_context() is None


def test_current_context_prefers_open_span():
    seed = obs.TraceContext(trace_id="33" * 8, span_id="44" * 8)

    def body(_):
        outside = obs.current_context()
        with obs.span("tc.open") as sp:
            return outside, obs.current_context(), sp.context

    with obs.tracing():
        (outside, inside, opened), _ = WorkerTask(body, ctx=seed)(0)
    assert outside == seed
    assert inside == opened
    assert opened.trace_id == seed.trace_id
    assert opened.parent_id == seed.span_id


def test_worker_task_captures_context():
    with obs.tracing():
        with obs.span("tc.parent") as sp:
            task = WorkerTask(lambda x: x)
            assert task.ctx == sp.context
    assert WorkerTask(lambda x: x).ctx is None  # tracing off


@pytest.mark.parametrize("path", ["serial", "process"])
def test_worker_spans_join_parent_trace(path):
    from repro.parallel.executor import parallel_map

    from tests.obs.test_parallel_merge import traced_task

    n_workers = 1 if path == "serial" else 2
    buf = obs.BufferSink()
    with obs.tracing(sinks=[buf]):
        with obs.span("tc.request") as sp:
            parallel_map(traced_task, [1, 2, 3], workers=n_workers)
            trace_id = sp.context.trace_id
    spans = [r for r in buf.events if isinstance(r, obs.SpanRecord)]
    workers = [r for r in spans if r.name == "work.unit"]
    assert len(workers) == 3
    assert all(r.trace_id == trace_id for r in spans)
    if path == "process":
        assert any(r.pid != os.getpid() for r in workers)
    by_id = {r.span_id: r for r in spans}
    for r in workers:  # parent chain reaches the request root
        seen = set()
        node = r
        while node.parent_id is not None:
            assert node.span_id not in seen
            seen.add(node.span_id)
            node = by_id[node.parent_id]
        assert node.name == "tc.request"
