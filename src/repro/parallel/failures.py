"""Structured task-failure records for the execution subsystem.

A large compression-evaluation sweep (the paper's 170 variables x 13
variants) must survive individual task failures without invalidating the
whole campaign: one raising codec or crashed worker may cost *its* cell
of a table, never the table.  This module defines the vocabulary
:func:`repro.parallel.parallel_map` uses to make that contract explicit:

- :class:`TaskFailure` — the immutable record of one failed task (which
  task, what kind of failure, why);
- :class:`MapResult` — an ordered map result in which failed slots hold
  their :class:`TaskFailure` instead of poisoning the other results;
- :class:`TaskError` — the exception raised under the ``"raise"`` failure
  policy when no original exception object is available (a worker crash
  has no task exception to re-raise, and an unpicklable one cannot
  travel back from the worker);
- :class:`WorkerCrashError` — raised on the inline path (by the
  fault-injection harness) to *emulate* a worker-process crash, so the
  crash-handling path is testable on both execution paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["MapResult", "TaskError", "TaskFailure", "WorkerCrashError"]

class WorkerCrashError(RuntimeError):
    """A worker "died" without returning a result.

    On the process pool a real crash surfaces as ``BrokenProcessPool``;
    the inline path cannot lose a process, so the fault-injection
    harness raises this instead and the executor books it as a
    ``"crash"`` of that task — the accounting of a lone crasher on the
    pool, with no ``os._exit`` in the test process.
    """


@dataclass(frozen=True)
class TaskFailure:
    """One failed task, as recorded in a map result."""

    index: int         #: position of the task in the input sequence
    kind: str          #: ``"exception"`` | ``"crash"``
    error_type: str    #: exception class name
    message: str       #: human-readable cause
    traceback: str = field(default="", compare=False)
    #: The original exception object when it survived the trip back from
    #: the worker (picklable); ``None`` for crashes.
    exc: BaseException | None = field(default=None, compare=False,
                                      repr=False)

    def __str__(self) -> str:
        return (f"task {self.index} failed [{self.kind}]: "
                f"{self.error_type}: {self.message}")

    def as_error(self) -> BaseException:
        """The exception to raise for this failure (``"raise"`` policy).

        Prefers the original exception object so callers keep matching on
        their own error types; crashes, which have no original
        exception, surface as :class:`TaskError`.
        """
        if self.exc is not None:
            return self.exc
        return TaskError(self)


class TaskError(RuntimeError):
    """Raised when a task's failure has no original exception to re-raise."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(str(failure))
        self.failure = failure


class MapResult:
    """Ordered results of one :func:`~repro.parallel.parallel_map` call.

    ``results[i]`` is task *i*'s value, or its :class:`TaskFailure` when
    the task failed under the ``"collect"`` policy.  The
    successful slots are exactly the values ``list(map(fn, args))`` would
    have produced at those positions — completed work is never discarded.
    """

    def __init__(self, results: list, failures: list[TaskFailure]) -> None:
        self.results = results
        self.failures = list(failures)

    @property
    def ok(self) -> bool:
        """True when every task succeeded."""
        return not self.failures

    @property
    def values(self) -> list:
        """The plain result list; raises on the first failure if any."""
        if self.failures:
            raise self.failures[0].as_error()
        return list(self.results)

    def value(self, index: int, default: Any = None) -> Any:
        """Task ``index``'s result, or ``default`` if it failed."""
        slot = self.results[index]
        return default if isinstance(slot, TaskFailure) else slot

    def failed_indices(self) -> list[int]:
        """Indices of the tasks that failed, ascending."""
        return sorted(f.index for f in self.failures)

    def summary(self) -> str:
        """One-line failure summary for logs and CLI output."""
        if not self.failures:
            return f"all {len(self.results)} task(s) succeeded"
        kinds: dict[str, int] = {}
        for f in self.failures:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        detail = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
        return (f"{len(self.failures)}/{len(self.results)} task(s) failed "
                f"({detail}) at indices {self.failed_indices()}")

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]

    def __iter__(self) -> Iterator:
        return iter(self.results)

    def __repr__(self) -> str:
        return (f"MapResult(tasks={len(self.results)}, "
                f"failures={len(self.failures)})")
