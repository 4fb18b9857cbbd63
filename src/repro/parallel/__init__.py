"""Parallel execution subsystem.

The paper's workflow compresses 170 variables x 13 variants x up to 101
members — embarrassingly parallel across variables, and long enough that
one hung codec or crashed worker must cost its task, never the campaign.
This package provides :class:`Executor` / :func:`parallel_map`: a
deterministic, order-preserving map over pluggable backends (``serial``,
``thread``, ``process``) with per-task timeouts, bounded retries with
exponential backoff, and structured :class:`TaskFailure` degradation —
collected into a :class:`MapResult` or re-raised per policy.

Backend, retry budget, and timeout come from call arguments, the
process-wide :func:`configure` override (the CLI's
``--backend/--retries/--task-timeout`` flags), or the ``REPRO_BACKEND``
/ ``REPRO_RETRIES`` / ``REPRO_TASK_TIMEOUT`` / ``REPRO_WORKERS``
environment knobs, in that order.  See ``docs/parallel.md``.

On the process backend, array payloads can travel through POSIX shared
memory instead of the pool's pickle pipes: ``Executor(shm=True)``
replaces each large array with a pickled :class:`ArrayRef` descriptor
while the bytes cross zero-copy via
:mod:`multiprocessing.shared_memory`; segment lifecycle is tied to the
executor's failure paths and orphans from killed parents are reclaimed
by :func:`reclaim_orphans`.  See ``docs/streaming.md``.
"""

from repro.parallel.clock import SYSTEM_CLOCK, Clock, SystemClock
from repro.parallel.executor import Executor, effective_workers, parallel_map
from repro.parallel.failures import (
    MapResult,
    TaskError,
    TaskFailure,
    WorkerCrashError,
)
from repro.parallel.shm import (
    ArrayRef,
    ShmTransport,
    reclaim_orphans,
)
from repro.parallel.policy import (
    BACKENDS,
    ExecutionPolicy,
    configure,
    default_policy,
    executing,
    reset_policy,
)

__all__ = [
    "ArrayRef",
    "BACKENDS",
    "Clock",
    "ExecutionPolicy",
    "Executor",
    "MapResult",
    "SYSTEM_CLOCK",
    "ShmTransport",
    "SystemClock",
    "TaskError",
    "TaskFailure",
    "WorkerCrashError",
    "configure",
    "default_policy",
    "effective_workers",
    "executing",
    "parallel_map",
    "reclaim_orphans",
    "reset_policy",
]
