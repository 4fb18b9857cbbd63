"""Parallel execution subsystem.

The paper's workflow compresses 170 variables x 13 variants x up to 101
members — embarrassingly parallel across variables, and long enough that
one hung codec or crashed worker must cost its task, never the campaign.
This package provides :class:`Executor` / :func:`parallel_map`: a
deterministic, order-preserving map with per-task timeouts, bounded
retries with exponential backoff, and structured :class:`TaskFailure`
degradation — collected into a :class:`MapResult` or re-raised.

The worker count alone picks the path: a map that resolves to one
worker (see :func:`effective_workers`; ``REPRO_WORKERS`` is both the
default and the cap) runs inline in the caller, anything wider runs on
a process pool.  Retries, timeouts and the failure mode are call
arguments.  See ``docs/parallel.md``.

On the pool, array payloads can travel through POSIX shared
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

__all__ = [
    "ArrayRef",
    "Clock",
    "Executor",
    "MapResult",
    "SYSTEM_CLOCK",
    "ShmTransport",
    "SystemClock",
    "TaskError",
    "TaskFailure",
    "WorkerCrashError",
    "effective_workers",
    "parallel_map",
    "reclaim_orphans",
]
