"""Order-preserving map with crash recovery.

``parallel_map(fn, args)`` behaves like ``list(map(fn, args))`` —
results in input order, the first task exception re-raised — and is
the executor's one entry point:

- **two paths, chosen by the worker count** — a map whose
  :func:`effective_workers` resolve to one (which includes any map of
  at most one task) runs inline in the caller; every other map runs on
  a process pool;
- **one attempt per task** — the paper's per-(variable, codec)
  evaluations are deterministic functions of their inputs, so a failed
  task is a defect to report, not a transient to retry;
- **crash recovery** — a worker that dies breaks the pool, which is
  rebuilt; the crash is charged only to its culprit, and the tasks that
  were merely in flight beside it re-run;
- **graceful degradation** — a failed task becomes a structured
  :class:`~repro.parallel.failures.TaskFailure`: re-raised under the
  default ``on_failure="raise"`` (the original exception object when it
  survived pickling, so caller-side ``except SomeError`` keeps
  working), or collected into a
  :class:`~repro.parallel.failures.MapResult` under ``"collect"`` so one
  bad cell never poisons a table.

Each task is its own submission.  The pool keeps twice as many tasks in
flight as it has workers, so a worker that finishes picks up a queued
task without a round trip through the parent.  When the pool breaks
with one task in flight, that task is charged the crash.  With several,
the culprit is unknowable, so none is charged: those *suspects* re-run
in the next round one at a time, where a crash can only be their own.

Under ``REPRO_TRACE=1`` the map is a ``parallel.map`` span and each
task run a ``parallel.task`` span inside it; ``parallel.tasks`` /
``parallel.failures`` counters track the lifecycle.  On the pool each
task runs inside :class:`repro.obs.WorkerTask`, whose buffered events
are merged parent-side *only when the task returns* — a run lost to a
pool crash takes its events with it — so the aggregator sees each task
exactly once.  Inline tasks record straight into the caller's sinks.
"""

from __future__ import annotations

import functools
import os
import pickle
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait as _wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from repro import config, obs
from repro.check import hooks
from repro.parallel import shm as _shm
from repro.parallel.backends import Backend, InlineBackend, ProcessBackend
from repro.parallel.failures import (
    MapResult,
    TaskFailure,
    WorkerCrashError,
)

__all__ = ["parallel_map", "effective_workers"]

T = TypeVar("T")
R = TypeVar("R")

_TASKS = obs.counter("parallel.tasks")
_FAILURES = obs.counter("parallel.failures")

#: Valid ``on_failure`` policies for :func:`parallel_map`.
ON_FAILURE = ("raise", "collect")


def _require_picklable_callable(fn: Callable) -> None:
    """Reject callables that cannot cross a process boundary.

    Lambdas and functions defined inside another function pickle by
    qualified name, which fails deep inside the pool with an opaque
    traceback; surface that as a clear TypeError *before* any worker is
    spawned.  (The REP006 lint rule is this check's static twin.)
    """
    probe = fn
    while isinstance(probe, functools.partial):
        probe = probe.func
    qualname = getattr(probe, "__qualname__", None)
    if qualname is None:
        return  # builtins / C callables pickle by reference
    if qualname == "<lambda>":
        raise TypeError(
            "parallel_map cannot send a lambda to worker processes; "
            "define the task as a module-level function"
        )
    if "<locals>" in qualname:
        raise TypeError(
            f"parallel_map cannot send the locally-defined function "
            f"{qualname!r} to worker processes; move it to module level "
            "so it can be pickled"
        )


def effective_workers(workers: int | None = None,
                      n_tasks: int | None = None) -> int:
    """Resolve a worker count.

    Only ``workers=None`` means full width (``REPRO_WORKERS``, else the
    CPU count); any int ``<= 1`` is one worker.  ``REPRO_WORKERS`` caps
    a wider request, so CI can bound pool width without code changes;
    an unparsable or non-positive value is ignored.  The result is
    capped by the task count and at least 1.
    """
    env_cap: int | None
    try:
        env_cap = config.env_int_opt("REPRO_WORKERS")
    except ValueError:
        env_cap = None
    if env_cap is not None and env_cap <= 0:
        env_cap = None
    if workers is None:
        workers = env_cap if env_cap is not None else (os.cpu_count() or 1)
    elif env_cap is not None:
        workers = min(workers, env_cap)
    if n_tasks is not None:
        workers = min(workers, max(n_tasks, 1))
    return max(workers, 1)


# -- worker side --------------------------------------------------------------

def _task_span(fn: Callable, item: Any) -> Any:
    """Run one task as a ``parallel.task`` span."""
    with obs.span("parallel.task"):
        return fn(item)


@dataclass
class _Attempt:
    """Outcome of one task run, as reported by the runner."""

    ok: bool
    value: Any = None
    events: list | None = None      #: buffered obs events (pool path)
    error_type: str = ""
    message: str = ""
    tb: str = ""
    exc: BaseException | None = None


class _TaskRunner:
    """Runs one task and reports its outcome as an :class:`_Attempt`.

    Catching the task's exception here, instead of letting it fail the
    future, keeps its type, message and traceback even when the
    exception object itself cannot be pickled back.
    :class:`WorkerCrashError` is the one exception re-raised: it
    *emulates* a dead worker, so it must be charged as a crash.
    """

    def __init__(self, fn: Callable,
                 task: "obs.WorkerTask | None" = None,
                 pickle_errors: bool = False,
                 shm: bool = False) -> None:
        self.fn = fn
        self.task = task                    #: buffered tracing (pool path)
        self.pickle_errors = pickle_errors  #: drop unpicklable exc objects
        self.shm = shm                      #: payload carries ArrayRefs

    def __call__(self, item: Any) -> _Attempt:
        if not self.shm:
            return self._run(item)
        # Resolve ArrayRef descriptors to live shared-memory views, run
        # the task, then copy out a result still aliasing a segment:
        # the mappings close here, before the result pickles back.
        item, atts = _shm.open_payload(item)
        try:
            attempt = self._run(item)
            attempt.value = atts.detach(attempt.value)
            return attempt
        finally:
            atts.close()

    def _run(self, item: Any) -> _Attempt:
        try:
            if self.task is not None:
                value, events = self.task(item)
            else:
                value, events = self.fn(item), None
        except WorkerCrashError:
            raise
        except Exception as exc:
            return _Attempt(
                ok=False,
                error_type=type(exc).__name__,
                message=str(exc),
                tb=_traceback.format_exc(),
                exc=self._portable(exc),
            )
        return _Attempt(ok=True, value=value, events=events)

    def _portable(self, exc: BaseException) -> BaseException | None:
        if not self.pickle_errors:
            return exc
        try:
            pickle.dumps(exc)
        except Exception:
            return None  # unpicklable: the caller gets type/message/tb
        return exc


# -- parent side --------------------------------------------------------------

class _MapRun:
    """One :func:`parallel_map` call's round-by-round state machine."""

    def __init__(self, fn: Callable, items: list, n_workers: int,
                 inline: bool, on_failure: str, shm: bool) -> None:
        self.fn = fn
        self.items = items
        self.n_workers = n_workers
        self.inline = inline
        self.on_failure = on_failure
        #: Parent-owned shared-memory ledger; None on the pickle path.
        self.transport = (_shm.ShmTransport()
                          if shm and not inline else None)
        self.results: list = [None] * len(items)
        self.failures: dict[int, TaskFailure] = {}
        self.pending: set[int] = set(range(len(items)))
        #: Uncharged tasks that were in flight beside a pool crash; they
        #: re-run one at a time until each settles.
        self.suspects: set[int] = set()
        #: Set when the pool was killed or work abandoned mid-flight;
        #: close must then never wait on it.
        self.dirty = False

    # -- orchestration --------------------------------------------------------

    def execute(self) -> "list | MapResult":
        with obs.span("parallel.map", tasks=len(self.items),
                      workers=self.n_workers) as sp:
            backend = (InlineBackend() if self.inline
                       else ProcessBackend(self.n_workers))
            try:
                runner = self._make_runner(sp)
                while self.pending:
                    self._run_round(backend, runner)
            finally:
                backend.close(kill=self.dirty)
                if self.transport is not None:
                    # Backstop: every settle path releases its own
                    # task, but an on_failure="raise" abort unwinds
                    # through here with segments still registered.
                    self.transport.release_all()
            if self.failures:
                sp.note(failures=len(self.failures))
        if self.on_failure == "collect":
            return MapResult(self.results, sorted(self.failures.values(),
                                                  key=lambda f: f.index))
        return list(self.results)

    def _make_runner(self, sp: "obs.span") -> _TaskRunner:
        traced = obs.active()
        fn = functools.partial(_task_span, self.fn) if traced else self.fn
        if self.inline:
            return _TaskRunner(fn)
        task = None
        if traced:
            # mem is resolved here, parent-side: a profiling_memory()
            # override active in the parent turns on tracemalloc in
            # every worker too.
            task = obs.WorkerTask(fn, parent=sp.name,
                                  depth=obs.current_depth(),
                                  mem=obs.mem_active())
        return _TaskRunner(self.fn, task=task, pickle_errors=True,
                           shm=self.transport is not None)

    def _run_round(self, backend: Backend, runner: _TaskRunner) -> None:
        # Suspects go first and alone, so a crash among them has one
        # culprit; everything else waits for the round after.
        self.suspects &= self.pending
        queue = sorted(self.suspects or self.pending, reverse=True)
        # A second task per worker waits queued, and a worker that
        # finishes picks it up without a round trip through this loop.
        limit = 1 if self.suspects else 2 * self.n_workers
        inflight: dict = {}  # future -> task index
        while True:
            while queue and len(inflight) < limit:
                index = queue.pop()  # ascending index order
                item = self.items[index]
                if self.transport is not None:
                    item = self.transport.encode(index, item)
                try:
                    fut = backend.submit(runner, item)
                except BrokenExecutor as exc:
                    self._release_segments(index)
                    self._recover_crash(index, exc, backend, inflight)
                    return
                inflight[fut] = index
            if not inflight or not self._drain(backend, inflight):
                return

    def _drain(self, backend: Backend, inflight: dict) -> bool:
        """Fold the next completions; False ends the round after a crash."""
        done, _ = _wait(set(inflight), return_when=FIRST_COMPLETED)
        # Fold clean completions before any crash-bearing future: a
        # pool crash makes suspects of everything still in flight, and
        # a task that already finished is not one.
        for fut in sorted(done, key=lambda f: f.exception() is not None):
            index = inflight.pop(fut)
            # The worker detached its result before returning, so the
            # task's segments die with its future — win or lose.
            self._release_segments(index)
            exc = fut.exception()
            if exc is None:
                self._fold(index, fut.result())
            elif isinstance(exc, BrokenExecutor):
                # The pool itself died; it is rebuilt and the crash
                # charged only if this task was running alone.
                self._recover_crash(index, exc, backend, inflight)
                return False
            elif isinstance(exc, WorkerCrashError):
                # Emulated crash (inline, or raised through a healthy
                # process pool): charge just this task.
                self._fail(index, "crash", exc)
            else:
                # Infrastructure failure outside the runner's own
                # capture (e.g. an unpicklable result).
                self._fail(index, "exception", exc)
        return True

    def _release_segments(self, index: int) -> None:
        if self.transport is not None:
            self.transport.release(index)

    def _recover_crash(self, index: int, exc: BaseException,
                       backend: Backend, inflight: dict) -> None:
        """Rebuild the pool after it broke with task ``index`` in flight.

        ``inflight`` holds the other tasks still running.  If there are
        none, ``index`` is the culprit and is charged the crash.
        Otherwise no task is charged: all of them become suspects,
        which later rounds re-run alone.  Every crash among suspects is
        charged, and each crash beside others turns at least two tasks
        into suspects for good, so the map always terminates.
        """
        if inflight:
            self.suspects.add(index)
        else:
            self._fail(index, "crash", exc)
        for other in inflight.values():
            self._release_segments(other)
            self.suspects.add(other)
        inflight.clear()
        self.dirty = True
        backend.recycle()

    # -- outcome folding ------------------------------------------------------

    def _fold(self, index: int, attempt: _Attempt) -> None:
        if attempt.ok:
            self.results[index] = attempt.value
            self.pending.discard(index)
            if attempt.events:
                obs.merge_events(attempt.events)
            return
        self._fail(index, "exception", attempt.exc,
                   error_type=attempt.error_type,
                   message=attempt.message, tb=attempt.tb)

    def _fail(self, index: int, kind: str, exc: BaseException | None,
              *, error_type: str = "", message: str = "",
              tb: str = "") -> None:
        if not error_type:
            error_type, message = type(exc).__name__, str(exc)
        failure = TaskFailure(
            index=index, kind=kind, error_type=error_type,
            message=message, traceback=tb,
            # A crash's exception describes the pool, not the task, so
            # "raise" surfaces it as a TaskError naming the task.
            exc=None if kind == "crash" else exc,
        )
        self.failures[index] = failure
        self.results[index] = failure
        self.pending.discard(index)
        _FAILURES.add(1)
        if self.on_failure == "raise":
            self.dirty = True
            raise failure.as_error()


def parallel_map(
    fn: Callable[[T], R],
    args: Iterable[T],
    *,
    workers: int | None = None,
    on_failure: str = "raise",
    shm: bool = False,
) -> "list[R] | MapResult":
    """Map ``fn`` over ``args``, preserving input order.

    ``workers`` alone picks the path (see :func:`effective_workers`), so
    callers pass theirs straight through; on the pool ``fn`` and each
    argument must be picklable.
    ``on_failure="raise"`` (default) re-raises the first failed task's
    error; ``"collect"`` returns a :class:`MapResult` whose failed slots
    hold :class:`TaskFailure` records.  ``shm=True`` sends the large
    arrays in each argument to pool workers through shared memory
    instead of pickle; inline tasks already share the caller's memory.
    """
    items = list(args)
    if on_failure not in ON_FAILURE:
        raise ValueError(
            f"on_failure must be one of {ON_FAILURE}, got {on_failure!r}")
    # One worker (which any map of at most one task resolves to) runs
    # inline: same semantics, no pool overhead, closures allowed.
    n = effective_workers(workers, len(items))
    inline = n == 1
    if not inline:
        _require_picklable_callable(fn)
    _TASKS.add(len(items))
    run = _MapRun(fn, items, n, inline, on_failure, shm)
    result = run.execute()
    if inline and items and hooks.active() and not run.failures:
        # REPRO_SANITIZE: replay the first task and require identical
        # output, catching nondeterministic task functions while the
        # inline path keeps them observable.
        hooks.check_serial_replay(fn, items[0], result[0])
    return result
