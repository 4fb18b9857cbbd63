"""Execution backends: where a chunk of tasks actually runs.

The :class:`repro.parallel.executor.Executor` orchestrates rounds of
chunk submissions and folds the outcomes; a backend's only job is to run
one submitted chunk and expose enough lifecycle control for the executor
to survive misbehaving work:

``serial``
    Runs the chunk inline on the calling thread.  No isolation, no
    preemption — timeouts are detected *post hoc* from the chunk
    runner's clock measurements — but lambdas and closures work, and
    with a virtual clock the whole retry/timeout schedule is testable
    in microseconds.

``thread``
    A ``ThreadPoolExecutor``.  Shares memory with the caller (no
    pickling), good for I/O-bound tasks.  Python threads cannot be
    killed, so a timed-out chunk is *abandoned*: its future is dropped
    and any result it later produces is discarded.  An abandoned thread
    still occupies a pool slot (and, being non-daemonic, would delay
    interpreter exit if it never returns), so thread timeouts are meant
    for hung-but-finite work.

``process``
    A ``ProcessPoolExecutor``.  Full isolation: a timed-out or crashed
    worker is killed and the pool rebuilt (:meth:`recycle`), which is
    the only way to reclaim a truly hung task.  Killing the pool aborts
    every in-flight chunk, so the executor re-runs the innocent ones —
    results already folded are never lost.  A crash with several chunks
    in flight is charged to none of them; the executor re-runs each
    alone, where a crash is charged to that chunk.
"""

from __future__ import annotations

from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable

__all__ = ["Backend", "make_backend"]


class Backend:
    """Lifecycle interface the executor drives."""

    name: str = "?"
    #: True when handling a timeout kills *all* in-flight work (the
    #: executor then recycles the pool and reschedules the victims).
    kills_on_timeout: bool = False

    def submit(self, runner: Callable, payload: Any) -> Future:
        """Run ``runner(payload)``; the future resolves to its outcome."""
        raise NotImplementedError

    def recycle(self, kill: bool = False) -> None:
        """Replace the worker pool (``kill=True``: terminate it first)."""

    def close(self, kill: bool = False) -> None:
        """Release the pool.  ``kill=True`` must never block on hung work."""


class _SerialBackend(Backend):
    """Inline execution; a submit *is* the run."""

    name = "serial"

    def submit(self, runner: Callable, payload: Any) -> Future:
        fut: Future = Future()
        fut.set_running_or_notify_cancel()
        try:
            fut.set_result(runner(payload))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


class _ThreadBackend(Backend):
    """Shared-memory thread pool; timeouts abandon, never kill."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-exec")

    def submit(self, runner: Callable, payload: Any) -> Future:
        return self._pool.submit(runner, payload)

    def recycle(self, kill: bool = False) -> None:
        self._pool.shutdown(wait=not kill, cancel_futures=kill)
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-exec")

    def close(self, kill: bool = False) -> None:
        # Threads cannot be terminated; a kill-close drops queued work
        # and leaves any already-hung thread to finish on its own.
        self._pool.shutdown(wait=not kill, cancel_futures=True)


class _ProcessBackend(Backend):
    """Process pool with terminate-and-rebuild recovery."""

    name = "process"
    kills_on_timeout = True

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

    def recycle(self, kill: bool = False) -> None:
        if kill:
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


def make_backend(name: str, workers: int) -> Backend:
    """Instantiate the backend called ``name`` with ``workers`` slots."""
    if name == "serial":
        return _SerialBackend()
    if name == "thread":
        return _ThreadBackend(workers)
    if name == "process":
        return _ProcessBackend(workers)
    raise ValueError(f"unknown backend {name!r}")
