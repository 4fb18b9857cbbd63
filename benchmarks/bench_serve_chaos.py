"""Serve daemon under chaos: throughput and wait latency with a worker
crash in flight.

The daemon's pitch is that a dying job costs one task attempt, not the
server (``docs/serving.md``).  This benchmark prices that promise: a
burst of jobs arrives over three concurrent client connections while a
:class:`~repro.testing.FaultPlan` ``os._exit``\\ s one worker process
mid-run, and the record captures end-to-end throughput (jobs/s), the
p50/p95 queue-wait latency, and the warm-cache hit rate on an identical
resubmission.  A regression here means admission, scheduling, or crash
recovery got slower — none of which the per-job unit tests would see.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import store
from repro.parallel.executor import Executor
from repro.serve import (
    JobManager,
    ReproServer,
    ServeClient,
    register_job_kind,
)
from repro.testing import FaultPlan

N_JOBS = 24
N_CLIENTS = 3
SERVE_WORKERS = 2
CRASH_INDEX = 5  # this job's first attempt os._exits its worker


def _chaos_task(item):
    """Module-level fault-plan task: the process backend pickles it."""
    index, value = item
    acc = 0
    for i in range(20_000):
        acc += i * value
    return {"index": index, "acc": acc}


class _ChaosKind:
    """Adapter from job params to the ``(index, value)`` fault-plan item."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, params):
        return self.fn((params["index"], params["value"]))


def _submit_wave(host, port, *, wait=True):
    """Submit N_JOBS over N_CLIENTS connections; return the snapshots."""
    snapshots = [None] * N_JOBS
    errors = []

    def client_run(c):
        try:
            with ServeClient.connect(host=host, port=port) as client:
                ids = []
                for j in range(c, N_JOBS, N_CLIENTS):
                    job = client.submit("chaos",
                                        {"index": j, "value": j + 1})
                    ids.append((j, job["id"]))
                for j, job_id in ids:
                    snapshots[j] = (client.result(job_id, timeout=120.0)
                                    if wait else client.status(job_id))
        except Exception as exc:  # surfaces in the main thread's assert
            errors.append(exc)

    threads = [threading.Thread(target=client_run, args=(c,))
               for c in range(N_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return snapshots


def test_chaos_throughput(tmp_path, bench_record):
    faults = tmp_path / "faults"
    faults.mkdir()
    plan = FaultPlan(faults).crash(CRASH_INDEX, times=1)
    register_job_kind("chaos", _ChaosKind(plan.wrap(_chaos_task)),
                      replace=True)

    with store.storing(tmp_path / "cache"):
        manager = JobManager(workers=SERVE_WORKERS, queue_size=N_JOBS * 2,
                             executor=Executor("process", retries=1))
        server = ReproServer(manager)
        server.serve_in_thread()
        host, port = server.address
        try:
            t0 = time.perf_counter()
            cold = _submit_wave(host, port)
            cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = _submit_wave(host, port)
            warm_s = time.perf_counter() - t0
        finally:
            server.close()

    # Correctness first: a benchmark of a broken daemon prices nothing.
    assert all(s["state"] == "done" for s in cold), cold
    expected = sum(i * (CRASH_INDEX + 1) for i in range(20_000))
    assert cold[CRASH_INDEX]["result"]["acc"] == expected
    assert plan.attempts(CRASH_INDEX) == 2  # crashed once, then recovered
    hits = sum(bool(s["cache_hit"]) for s in warm)

    waits = np.array([s.get("wait_s", 0.0) for s in cold])
    bench_record.metric("jobs_per_s", N_JOBS / cold_s, unit="jobs/s",
                        direction="higher", threshold_pct=60.0)
    bench_record.metric("wait_p50_s", float(np.percentile(waits, 50)),
                        unit="s", direction="lower", threshold_pct=400.0)
    bench_record.metric("wait_p95_s", float(np.percentile(waits, 95)),
                        unit="s", direction="lower", threshold_pct=400.0)
    bench_record.metric("warm_hit_rate", hits / N_JOBS,
                        direction="higher", threshold_pct=1.0)
    bench_record.metric("warm_jobs_per_s", N_JOBS / warm_s, unit="jobs/s",
                        direction="higher", threshold_pct=60.0)
