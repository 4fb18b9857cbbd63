"""Execution backends: where a chunk of tasks actually runs.

The :class:`repro.parallel.executor.Executor` orchestrates rounds of
chunk submissions and folds the outcomes; a backend's only job is to run
one submitted chunk and expose enough lifecycle control for the executor
to survive misbehaving work.  The executor picks one of two from the
worker count alone:

:class:`InlineBackend`
    Runs the chunk inline on the calling thread (one worker, or at most
    one task).  No isolation, no preemption — timeouts are detected
    *post hoc* from the chunk runner's clock measurements — but lambdas
    and closures work, and with a virtual clock the whole retry/timeout
    schedule is testable in microseconds.

:class:`ProcessBackend`
    A ``ProcessPoolExecutor``.  Full isolation: a timed-out or crashed
    worker is killed and the pool rebuilt (:meth:`recycle`), which is
    the only way to reclaim a truly hung task.  Killing the pool aborts
    every in-flight chunk, so the executor re-runs the innocent ones —
    results already folded are never lost.  A crash with several chunks
    in flight is charged to none of them; the executor re-runs each
    alone, where a crash is charged to that chunk.
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
        """Release the pool.  ``kill=True`` must never block on hung work."""


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
            # A hung worker would block a graceful shutdown forever:
            # terminate first, then reap without waiting.
            self._terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
        else:
            self._pool.shutdown(wait=True)
