"""Parallel execution subsystem.

The paper's workflow compresses 170 variables x 13 variants x up to 101
members — embarrassingly parallel across variables, and long enough that
one raising codec or crashed worker must cost its task, never the
campaign.  This package provides :func:`parallel_map`: a deterministic,
order-preserving map in which every task gets one attempt and a failure
becomes a structured :class:`TaskFailure` — collected into a
:class:`MapResult` or re-raised.  A hung codec is another matter: an
earlier version promised it would cost only its task, but that needed a
per-task deadline and no caller ever set one, so it was never true in
practice.  There are no deadlines now; a task that never returns stalls
its map.

The worker count alone picks the path: a map that resolves to one
worker (see :func:`effective_workers`; ``REPRO_WORKERS`` is both the
default and the cap) runs inline in the caller, anything wider runs on
a process pool, which is rebuilt after a worker crash.  See
``docs/parallel.md``.

On the pool, array payloads can travel through POSIX shared
memory instead of the pool's pickle pipes: ``parallel_map(...,
shm=True)`` replaces each large array with a pickled :class:`ArrayRef`
descriptor while the bytes cross zero-copy via
:mod:`multiprocessing.shared_memory`; segment lifecycle is tied to the
map's failure paths and orphans from killed parents are reclaimed by
:func:`reclaim_orphans`.  See ``docs/streaming.md``.
"""

from repro.parallel.executor import effective_workers, parallel_map
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
    "MapResult",
    "ShmTransport",
    "TaskError",
    "TaskFailure",
    "WorkerCrashError",
    "effective_workers",
    "parallel_map",
    "reclaim_orphans",
]
