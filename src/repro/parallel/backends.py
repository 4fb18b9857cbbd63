"""Execution backends: where a task actually runs.

:func:`repro.parallel.executor.parallel_map` orchestrates rounds of task
submissions and folds the outcomes; a backend's only job is to run one
submitted task and expose enough lifecycle control for the map to
survive a crashing worker.  The map picks one of two from the worker
count alone:

:class:`InlineBackend`
    Runs the task inline on the calling thread (one worker, or at most
    one task).  No isolation, but lambdas and closures work.

:class:`ProcessBackend`
    A ``ProcessPoolExecutor``.  Full isolation: after a worker crash the
    pool is killed and rebuilt (:meth:`recycle`).  Killing the pool
    aborts every in-flight task, so the map re-runs the innocent ones —
    results already folded are never lost.  A crash with several tasks
    in flight is charged to none of them; the map re-runs each alone,
    where a crash is charged to that task.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

__all__ = ["Backend", "InlineBackend", "ProcessBackend"]


class Backend:
    """Lifecycle interface the executor drives."""

    def submit(self, runner: Callable, payload: Any) -> Future:
        """Run ``runner(payload)``; the future resolves to its outcome."""
        raise NotImplementedError

    def recycle(self) -> None:
        """Kill the worker pool and start a fresh one."""

    def close(self, kill: bool = False) -> None:
        """Release the pool.  ``kill=True`` must never block on running work."""


class InlineBackend(Backend):
    """Inline execution; a submit *is* the run."""

    def submit(self, runner: Callable, payload: Any) -> Future:
        fut: Future = Future()
        fut.set_running_or_notify_cancel()
        try:
            fut.set_result(runner(payload))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


class ProcessBackend(Backend):
    """Process pool with terminate-and-rebuild recovery."""

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)

    def submit(self, runner: Callable, payload: Any) -> Future:
        return self._pool.submit(runner, payload)

    def _terminate(self) -> None:
        procs = getattr(self._pool, "_processes", None) or {}
        for proc in list(procs.values()):
            if proc.is_alive():
                proc.terminate()

    def recycle(self) -> None:
        self._terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self._workers)

    def close(self, kill: bool = False) -> None:
        if kill:
            # An aborted map must not wait for the tasks still running:
            # terminate first, then reap without waiting.
            self._terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
        else:
            self._pool.shutdown(wait=True)
