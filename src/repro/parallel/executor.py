"""Fault-tolerant map with deterministic ordering.

``parallel_map(fn, args)`` behaves like ``list(map(fn, args))`` —
results in input order, worker exceptions propagated — as a thin
wrapper over :class:`Executor`, which adds the robustness a paper-scale
sweep (170 variables x 13 variants) needs:

- **two paths, chosen by the worker count** — a map whose
  :func:`effective_workers` resolve to one (which includes any map of
  at most one task) runs inline in the caller; every other map runs on
  a process pool;
- **per-task timeouts** — a chunk's deadline is ``task_timeout`` times
  its length; on expiry the pool is killed and rebuilt (reclaiming
  truly hung workers), while the inline path detects overruns post hoc
  from the injectable clock;
- **bounded retries with exponential backoff** — each failed task is
  retried up to ``retries`` times, with the delay between rounds
  starting at 0.05 s, doubling per failed attempt and capped at 2 s,
  recorded as a ``parallel.retry`` span;
- **graceful degradation** — a task that exhausts its budget becomes a
  structured :class:`~repro.parallel.failures.TaskFailure`: re-raised
  under the default ``on_failure="raise"`` (the original exception
  object when it survived pickling, so caller-side ``except SomeError``
  keeps working), or collected into a
  :class:`~repro.parallel.failures.MapResult` under ``"collect"`` so one
  bad cell never poisons a table.

Execution proceeds in *rounds*: pending tasks are chunked, submitted
(at most ``workers`` chunks in flight when a timeout is set, so
deadlines stay honest; twice that without one), and
their outcomes folded; tasks whose attempts are exhausted are settled,
the rest carry into the next round after the backoff sleep.  A crashed
process pool is rebuilt, and results already folded are never
discarded.  With one chunk in flight the crash is charged to it; with
several the culprit is unknowable, so none is charged and those
*suspects* re-run one chunk at a time, where a crash can only be
their own.

Under ``REPRO_TRACE=1`` the map is a ``parallel.map`` span and each
task attempt a ``parallel.task`` span inside it;
``parallel.tasks`` / ``parallel.retries`` / ``parallel.failures``
counters track the lifecycle.  On the pool each task runs inside
:class:`repro.obs.WorkerTask`, whose buffered events are merged
parent-side *only for successful attempts* — a retried attempt's events
are discarded with it, so the aggregator sees each task exactly once.
Inline tasks record straight into the caller's sinks.
"""

from __future__ import annotations

import functools
import os
import pickle
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait as _wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro import config, obs
from repro.check import hooks
from repro.parallel import shm as _shm
from repro.parallel.backends import Backend, InlineBackend, ProcessBackend
from repro.parallel.clock import SYSTEM_CLOCK, Clock
from repro.parallel.failures import (
    MapResult,
    TaskFailure,
    WorkerCrashError,
)

__all__ = ["Executor", "parallel_map", "effective_workers"]

T = TypeVar("T")
R = TypeVar("R")

_TASKS = obs.counter("parallel.tasks")
_RETRIES = obs.counter("parallel.retries")
_FAILURES = obs.counter("parallel.failures")

#: Valid ``on_failure`` policies for :meth:`Executor.map`.
ON_FAILURE = ("raise", "collect")

#: Backoff before the first retry (s); it grows by the factor per
#: further failed attempt, up to the ceiling.
_BACKOFF_BASE = 0.05
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0


def _backoff_delay(failed_attempts: int) -> float:
    """Backoff before the retry following ``failed_attempts`` tries."""
    if failed_attempts < 1:
        return 0.0
    delay = _BACKOFF_BASE * _BACKOFF_FACTOR ** (failed_attempts - 1)
    return min(delay, _BACKOFF_MAX)


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

    ``REPRO_WORKERS`` supplies the default when ``workers`` is unset and
    caps an explicit request otherwise, so CI and laptops can bound pool
    width without code changes; an unparsable or non-positive value is
    ignored.  The result is always capped by the task count and at
    least 1.
    """
    env_cap: int | None
    try:
        env_cap = config.env_int_opt("REPRO_WORKERS")
    except ValueError:
        env_cap = None
    if env_cap is not None and env_cap <= 0:
        env_cap = None
    if workers is None or workers <= 0:
        workers = env_cap if env_cap is not None else (os.cpu_count() or 1)
    elif env_cap is not None:
        workers = min(workers, env_cap)
    if n_tasks is not None:
        workers = min(workers, max(n_tasks, 1))
    return max(workers, 1)


# -- worker side --------------------------------------------------------------

def _task_span(fn: Callable, item: Any) -> Any:
    """Run one task attempt as a ``parallel.task`` span."""
    with obs.span("parallel.task"):
        return fn(item)


@dataclass
class _Attempt:
    """Outcome of one attempt at one task, as reported by the runner."""

    index: int
    ok: bool
    value: Any = None
    events: list | None = None      #: buffered obs events (pool path)
    duration: float = 0.0           #: runner-clock seconds
    kind: str = "exception"
    error_type: str = ""
    message: str = ""
    tb: str = ""
    exc: BaseException | None = None


class _ChunkRunner:
    """Runs one chunk ``[(index, item), ...]`` and reports per-item outcomes.

    Catching each item's exception here — instead of letting it abort
    the chunk — means one bad task never discards its chunk-mates'
    finished work.  :class:`WorkerCrashError` is the one exception
    re-raised: it *emulates* a dead worker, so the whole chunk must be
    charged, exactly as a real pool crash of a lone chunk charges it.
    """

    def __init__(self, fn: Callable, clock: Clock,
                 task: "obs.WorkerTask | None" = None,
                 pickle_errors: bool = False,
                 shm: bool = False) -> None:
        self.fn = fn
        self.clock = clock
        self.task = task                    #: buffered tracing (pool path)
        self.pickle_errors = pickle_errors  #: drop unpicklable exc objects
        self.shm = shm                      #: payload carries ArrayRefs

    def _run_one(self, item: Any) -> tuple[Any, list | None]:
        if self.task is not None:
            return self.task(item)
        return self.fn(item), None

    def __call__(self, payload: Sequence[tuple[int, Any]]) -> list[_Attempt]:
        if self.shm:
            return self._run_attached(payload)
        return self._run(payload)

    def _run_attached(
            self, payload: Sequence[tuple[int, Any]]) -> list[_Attempt]:
        # Resolve ArrayRef descriptors to live shared-memory views, run
        # the chunk, then copy out any result still aliasing a segment:
        # the mappings close here, before the results pickle back.
        payload, atts = _shm.open_payload(payload)
        try:
            out = self._run(payload)
            for attempt in out:
                attempt.value = atts.detach(attempt.value)
            return out
        finally:
            atts.close()

    def _run(self, payload: Sequence[tuple[int, Any]]) -> list[_Attempt]:
        out: list[_Attempt] = []
        for index, item in payload:
            t0 = self.clock.now()
            try:
                value, events = self._run_one(item)
            except WorkerCrashError:
                raise
            except Exception as exc:
                out.append(_Attempt(
                    index=index, ok=False,
                    duration=self.clock.now() - t0,
                    kind="exception",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    tb=_traceback.format_exc(),
                    exc=self._portable(exc),
                ))
            else:
                out.append(_Attempt(
                    index=index, ok=True, value=value, events=events,
                    duration=self.clock.now() - t0,
                ))
        return out

    def _portable(self, exc: BaseException) -> BaseException | None:
        if not self.pickle_errors:
            return exc
        try:
            pickle.dumps(exc)
        except Exception:
            return None  # unpicklable: the caller gets type/message/tb
        return exc


# -- parent side --------------------------------------------------------------

class Executor:
    """Maps functions over sequences with retries and timeouts.

    Stateless between calls (each :meth:`map` builds and releases its own
    pool), so one executor can be shared freely.  ``retries`` counts the
    extra attempts after a task's first; ``task_timeout`` is a per-task
    deadline in seconds (``None``: no deadline).
    """

    def __init__(self, *, workers: int | None = None,
                 retries: int = 0,
                 task_timeout: float | None = None,
                 clock: Clock | None = None,
                 shm: bool = False) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {task_timeout}")
        self.workers = workers
        self.retries = retries
        self.task_timeout = task_timeout
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: Descriptor-transport switch for the pool path; inline tasks
        #: already share the caller's memory.
        self.shm = shm

    def map(self, fn: Callable[[T], R], args: Iterable[T], *,
            workers: int | None = None, chunksize: int = 1,
            on_failure: str = "raise") -> "list[R] | MapResult":
        """Map ``fn`` over ``args``, preserving input order.

        ``on_failure="raise"`` (default) re-raises the first exhausted
        task's error; ``"collect"`` returns a :class:`MapResult` whose
        failed slots hold :class:`TaskFailure` records.
        """
        items = list(args)
        if chunksize < 1:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        if on_failure not in ON_FAILURE:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE}, got {on_failure!r}")
        if workers is None:
            workers = self.workers
        # One worker (which any map of at most one task resolves to)
        # runs inline: same semantics, no pool overhead, closures allowed.
        n = effective_workers(workers, len(items))
        inline = n == 1
        if not inline:
            _require_picklable_callable(fn)
        _TASKS.add(len(items))
        run = _MapRun(self, fn, items, n, chunksize, inline, on_failure)
        result = run.execute()
        if inline and items and hooks.active():
            first = result[0] if len(result) else None
            if not isinstance(first, TaskFailure) and not run.failures:
                # REPRO_SANITIZE: replay the first task and require
                # identical output, catching nondeterministic task
                # functions while the inline path keeps them observable.
                hooks.check_serial_replay(fn, items[0], first)
        return result


class _MapRun:
    """One :meth:`Executor.map` call's round-by-round state machine."""

    def __init__(self, executor: Executor, fn: Callable, items: list,
                 n_workers: int, chunksize: int, inline: bool,
                 on_failure: str) -> None:
        self.retries = executor.retries
        self.task_timeout = executor.task_timeout
        self.clock = executor.clock
        self.fn = fn
        self.items = items
        self.n_workers = n_workers
        self.chunksize = chunksize
        self.inline = inline
        self.on_failure = on_failure
        #: Parent-owned shared-memory ledger; None on the pickle path.
        self.transport = (_shm.ShmTransport()
                          if executor.shm and not inline else None)
        self.results: list = [None] * len(items)
        self.attempts = [0] * len(items)
        self.failures: dict[int, TaskFailure] = {}
        self.pending: set[int] = set(range(len(items)))
        #: Uncharged tasks that were in flight beside a pool crash; they
        #: re-run one chunk at a time until each settles.
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
                first_round = True
                while self.pending:
                    if not first_round:
                        self._backoff()
                    first_round = False
                    self._run_round(backend, runner)
            finally:
                backend.close(kill=self.dirty)
                if self.transport is not None:
                    # Backstop: every settle path releases its own
                    # chunk, but an on_failure="raise" abort unwinds
                    # through here with segments still registered.
                    self.transport.release_all()
            if self.failures:
                sp.note(failures=len(self.failures))
        if self.on_failure == "collect":
            return MapResult(self.results, sorted(self.failures.values(),
                                                  key=lambda f: f.index))
        return list(self.results)

    def _make_runner(self, sp: "obs.span") -> _ChunkRunner:
        traced = obs.active()
        fn = functools.partial(_task_span, self.fn) if traced else self.fn
        if self.inline:
            return _ChunkRunner(fn, self.clock)
        task = None
        if traced:
            # mem is resolved here, parent-side: a profiling_memory()
            # override active in the parent turns on tracemalloc in
            # every worker too.
            task = obs.WorkerTask(fn, parent=sp.name,
                                  depth=obs.current_depth(),
                                  mem=obs.mem_active())
        # The runner crosses a pickle boundary, so it always carries
        # the (stateless) system clock; the injected clock stays
        # parent-side, where it drives backoff.  Virtual-clock
        # timeouts are therefore an inline-path-only feature.
        return _ChunkRunner(self.fn, SYSTEM_CLOCK, task=task,
                            pickle_errors=True,
                            shm=self.transport is not None)

    def _backoff(self) -> None:
        delay = max(_backoff_delay(self.attempts[i]) for i in self.pending)
        if delay > 0:
            with obs.span("parallel.retry", tasks=len(self.pending),
                          delay=delay):
                self.clock.sleep(delay)

    def _run_round(self, backend: Backend, runner: _ChunkRunner) -> None:
        # Suspects go first and alone, so a crash among them has one
        # culprit; everything else waits for the round after.
        self.suspects &= self.pending
        order = sorted(self.suspects or self.pending)
        timeout = self.task_timeout
        # A deadline starts at submission, so with a timeout only as many
        # chunks as workers may be in flight.  Without one, a second
        # chunk per worker waits queued, and a worker that finishes picks
        # it up without a round trip through this loop.
        limit = 1 if self.suspects else (
            self.n_workers if timeout is not None else 2 * self.n_workers)
        queue = [order[i:i + self.chunksize]
                 for i in range(0, len(order), self.chunksize)]
        queue.reverse()  # pop() serves chunks in ascending index order
        inflight: dict = {}  # future -> (chunk, deadline)
        aborted = False
        while True:
            while queue and not aborted and len(inflight) < limit:
                chunk = queue.pop()
                payload = [(i, self.items[i]) for i in chunk]
                if self.transport is not None:
                    payload = self.transport.encode(tuple(chunk), payload)
                try:
                    fut = backend.submit(runner, payload)
                except BrokenExecutor as exc:
                    self._release_segments(chunk)
                    self._recover_crash(chunk, exc, backend, inflight)
                    aborted = True
                    break
                deadline = None
                if timeout is not None and not self.inline:
                    deadline = SYSTEM_CLOCK.now() + timeout * len(chunk)
                inflight[fut] = (chunk, deadline)
            if not inflight:
                return
            if not self._drain(backend, inflight, timeout):
                aborted = True

    def _drain(self, backend: Backend, inflight: dict,
               timeout: float | None) -> bool:
        """Wait for one completion or expiry; False aborts the round."""
        wait_for = None
        deadlines = [d for _, d in inflight.values() if d is not None]
        if deadlines:
            wait_for = max(0.0, min(deadlines) - SYSTEM_CLOCK.now())
        done, _ = _wait(set(inflight), timeout=wait_for,
                        return_when=FIRST_COMPLETED)
        if done:
            # Fold clean completions before any crash-bearing future:
            # a pool crash makes suspects of everything still in
            # flight, and a chunk that already finished is not one.
            for fut in sorted(done, key=lambda f: f.exception() is not None):
                chunk, _ = inflight.pop(fut)
                # The worker detached its results before returning, so
                # the chunk's segments die with its future — win or lose.
                self._release_segments(chunk)
                if not self._fold_future(fut, chunk, backend, inflight):
                    return False
            return True
        return self._expire(backend, inflight)

    def _release_segments(self, chunk: list[int]) -> None:
        if self.transport is not None:
            self.transport.release(tuple(chunk))

    def _fold_future(self, fut, chunk: list[int], backend: Backend,
                     inflight: dict) -> bool:
        exc = fut.exception()
        if exc is None:
            for attempt in fut.result():
                self._fold_attempt(attempt)
            return True
        if isinstance(exc, BrokenExecutor):
            # The pool itself died; it is rebuilt and the crash charged
            # only if this chunk was running alone.
            self._recover_crash(chunk, exc, backend, inflight)
            return False
        if isinstance(exc, WorkerCrashError):
            # Emulated crash (inline, or raised through a healthy
            # process pool): charge just this chunk.
            self._charge_chunk(chunk, "crash", exc)
            return True
        # Infrastructure failure outside the runner's own capture (e.g.
        # an unpicklable chunk result): charge the chunk as exceptions.
        self._charge_chunk(chunk, "exception", exc)
        return True

    def _expire(self, backend: Backend, inflight: dict) -> bool:
        now = SYSTEM_CLOCK.now()
        expired = [fut for fut, (_, d) in inflight.items()
                   if d is not None and now >= d]
        if not expired:
            return True  # spurious wakeup; keep draining
        for fut in expired:
            chunk, _ = inflight.pop(fut)
            fut.cancel()
            self._release_segments(chunk)
            self._charge_chunk(chunk, "timeout", None)
        # Kill and rebuild the pool; other in-flight chunks are victims
        # — uncharged, still pending, re-run next round (with freshly
        # encoded segments, hence the release here).
        for chunk, _ in inflight.values():
            self._release_segments(chunk)
        inflight.clear()
        self.dirty = True
        backend.recycle()
        return False

    def _recover_crash(self, chunk: list[int], exc: BaseException,
                       backend: Backend, inflight: dict) -> None:
        """Rebuild the pool after it broke with ``chunk`` in flight.

        ``inflight`` holds the other chunks still running.  If there are
        none, ``chunk`` is the culprit and is charged one crash attempt.
        Otherwise no chunk is charged: all of them become suspects,
        which later rounds re-run alone.  Every crash among suspects is
        charged, and each multi-chunk crash turns at least two chunks
        into suspects for good, so the map always terminates.
        """
        if inflight:
            self.suspects.update(chunk)
        else:
            self._charge_chunk(chunk, "crash", exc)
        for other, _ in inflight.values():
            self._release_segments(other)
            self.suspects.update(other)
        inflight.clear()
        self.dirty = True
        backend.recycle()

    # -- outcome folding ------------------------------------------------------

    def _fold_attempt(self, attempt: _Attempt) -> None:
        timeout = self.task_timeout
        if (attempt.ok and timeout is not None and self.inline
                and attempt.duration > timeout):
            # Inline has no preemption: an overrun is detected after the
            # fact and its result discarded for parity with the pool,
            # which kills it.
            self._charge_one(attempt.index, "timeout", None,
                             duration=attempt.duration)
            return
        if attempt.ok:
            if attempt.index in self.pending:
                self.results[attempt.index] = attempt.value
                self.pending.discard(attempt.index)
                if attempt.events:
                    obs.merge_events(attempt.events)
            return
        self._charge_one(attempt.index, attempt.kind, attempt.exc,
                         error_type=attempt.error_type,
                         message=attempt.message, tb=attempt.tb)

    def _charge_chunk(self, chunk: list[int], kind: str,
                      exc: BaseException | None) -> None:
        for index in chunk:
            self._charge_one(index, kind, exc)

    def _charge_one(self, index: int, kind: str, exc: BaseException | None,
                    *, error_type: str = "", message: str = "",
                    tb: str = "", duration: float | None = None) -> None:
        if index not in self.pending:
            return
        self.attempts[index] += 1
        if self.attempts[index] <= self.retries:
            _RETRIES.add(1)
            return
        if not error_type:
            if exc is not None:
                error_type, message = type(exc).__name__, str(exc)
            elif kind == "timeout":
                error_type = "Timeout"
                budget = self.task_timeout
                took = (f" after {duration:.3f}s"
                        if duration is not None else "")
                message = f"exceeded task_timeout={budget}s{took}"
            else:
                error_type = "WorkerCrash"
                message = "worker died before returning a result"
        failure = TaskFailure(
            index=index, kind=kind, error_type=error_type,
            message=message, attempts=self.attempts[index],
            traceback=tb, exc=exc,
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
    workers: int | None = None,
    chunksize: int = 1,
    *,
    retries: int = 0,
    task_timeout: float | None = None,
    on_failure: str = "raise",
    clock: Clock | None = None,
) -> "list[R] | MapResult":
    """Map ``fn`` over ``args`` with fault tolerance, preserving order.

    With no keyword arguments: no retries, no deadline, failures
    re-raised.  On the pool path (more than one effective worker) ``fn``
    and each argument must be picklable; ``chunksize > 1`` batches tasks
    per IPC round trip, which pays off when individual tasks are
    sub-millisecond.
    """
    ex = Executor(retries=retries, task_timeout=task_timeout, clock=clock)
    return ex.map(fn, args, workers=workers, chunksize=chunksize,
                  on_failure=on_failure)
