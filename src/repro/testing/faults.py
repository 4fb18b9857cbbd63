"""Seed-driven fault plans: break chosen tasks in chosen ways.

A :class:`FaultPlan` wraps a task function so that selected task indices
misbehave on selected attempts:

``raise``
    The attempt raises (default ``ValueError``), exercising the
    task-failure path.

``hang``
    The attempt sleeps for a real, finite ``duration`` before
    computing, which keeps its task in flight while its neighbours
    crash or finish.

``crash``
    Inside a real worker process the attempt calls ``os._exit`` — the
    pool breaks exactly as a segfaulting codec would break it.  In the
    test process itself (the inline path, where exiting would kill
    pytest) it raises :class:`~repro.parallel.WorkerCrashError`,
    which the executor books with identical crash accounting.

``corrupt``
    The attempt *succeeds* with a wrong value (:data:`CORRUPTED` by
    default) — the executor cannot detect this; the chaos suite uses it
    to prove that verification layers downstream must.

Attempt numbers are counted with atomic marker files
(``O_CREAT | O_EXCL``) in a shared workdir, so "crash once, then
succeed" means the same schedule whether attempts run in one process or
across a rebuilt pool (the map re-runs the tasks that were in flight
beside a crash).  :meth:`FaultPlan.seeded` draws the whole
schedule from a :class:`random.Random` seed for chaos-style sweeps that
are still exactly reproducible.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.parallel.failures import WorkerCrashError

__all__ = ["CORRUPTED", "Fault", "FaultPlan"]

#: Sentinel a ``corrupt`` fault returns when no value is specified.
CORRUPTED = "<corrupted>"

#: Fault kinds a plan can schedule.
KINDS = ("raise", "hang", "crash", "corrupt")


@dataclass(frozen=True)
class Fault:
    """One scheduled misbehaviour: ``kind`` at ``index``, attempts 1..``times``."""

    index: int          #: task index the fault applies to
    kind: str           #: ``raise`` | ``hang`` | ``crash`` | ``corrupt``
    times: int = 1      #: how many attempts misbehave before recovering
    message: str = ""   #: ``raise``: exception text
    duration: float = 1.0   #: ``hang``: sleep length (seconds)
    value: Any = CORRUPTED  #: ``corrupt``: the wrong result to return

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(KINDS)}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


def index_of(item: Any) -> int:
    """The task index an argument stands for.

    Fault-plan task functions conventionally take the task index itself
    (or a tuple starting with it) as the argument, which keeps plans
    independent of the payload type.
    """
    if isinstance(item, (tuple, list)) and item:
        return int(item[0])
    return int(item)


class FaultPlan:
    """A deterministic schedule of faults for one executor map.

    ``workdir`` must be a writable directory private to the plan (a
    pytest ``tmp_path``); it holds the atomic attempt markers that make
    counting correct across processes and rebuilt pools.
    """

    def __init__(self, workdir: "str | os.PathLike[str]") -> None:
        self.workdir = os.fspath(workdir)
        if not os.path.isdir(self.workdir):
            raise ValueError(
                f"FaultPlan workdir {self.workdir!r} is not a directory")
        self.faults: dict[int, Fault] = {}

    # -- authoring ------------------------------------------------------------

    def add(self, fault: Fault) -> "FaultPlan":
        if fault.index in self.faults:
            raise ValueError(f"task {fault.index} already has a fault")
        self.faults[fault.index] = fault
        return self

    def fail(self, index: int, times: int = 1,
             message: str = "") -> "FaultPlan":
        """Schedule ``times`` raising attempts at ``index``."""
        return self.add(Fault(index=index, kind="raise", times=times,
                              message=message))

    def hang(self, index: int, duration: float = 1.0,
             times: int = 1) -> "FaultPlan":
        """Schedule ``times`` attempts at ``index`` that sleep first."""
        return self.add(Fault(index=index, kind="hang", times=times,
                              duration=duration))

    def crash(self, index: int, times: int = 1) -> "FaultPlan":
        """Schedule ``times`` worker-killing attempts at ``index``."""
        return self.add(Fault(index=index, kind="crash", times=times))

    def corrupt(self, index: int, value: Any = CORRUPTED,
                times: int = 1) -> "FaultPlan":
        """Schedule ``times`` silently-wrong attempts at ``index``."""
        return self.add(Fault(index=index, kind="corrupt", times=times,
                              value=value))

    @classmethod
    def seeded(cls, workdir: "str | os.PathLike[str]", seed: int,
               n_tasks: int, n_faults: int,
               kinds: Iterable[str] = ("raise", "crash"),
               times: int = 1, duration: float = 1.0) -> "FaultPlan":
        """Draw ``n_faults`` faults over ``n_tasks`` tasks from ``seed``.

        The same seed always yields the same schedule — chaos tests stay
        bisectable.  ``hang`` is excluded by default because it only
        slows a map down.
        """
        rng = random.Random(seed)
        kinds = tuple(kinds)
        plan = cls(workdir)
        for index in sorted(rng.sample(range(n_tasks),
                                       min(n_faults, n_tasks))):
            plan.add(Fault(index=index, kind=rng.choice(kinds),
                           times=times, duration=duration))
        return plan

    # -- execution ------------------------------------------------------------

    def wrap(self, fn: Callable) -> "_FaultyFn":
        """``fn`` with this plan's faults applied (picklable if ``fn`` is)."""
        return _FaultyFn(fn, dict(self.faults), self.workdir)

    def attempts(self, index: int) -> int:
        """Attempts recorded so far for task ``index`` (marker count)."""
        n = 0
        while os.path.exists(self._marker(index, n + 1)):
            n += 1
        return n

    def _marker(self, index: int, attempt: int) -> str:
        return os.path.join(self.workdir, f"task{index}.attempt{attempt}")


class _FaultyFn:
    """The wrapped task function; module-level so the pool can pickle it."""

    def __init__(self, fn: Callable, faults: dict[int, Fault],
                 workdir: str) -> None:
        self.fn = fn
        self.faults = faults
        self.workdir = workdir

    def _claim_attempt(self, index: int) -> int:
        """Atomically claim and return this call's attempt number."""
        attempt = 1
        while True:
            path = os.path.join(self.workdir,
                                f"task{index}.attempt{attempt}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return attempt
            except FileExistsError:
                attempt += 1

    def __call__(self, item: Any) -> Any:
        index = index_of(item)
        fault = self.faults.get(index)
        if fault is None:
            return self.fn(item)
        attempt = self._claim_attempt(index)
        if attempt > fault.times:
            return self.fn(item)  # recovered
        if fault.kind == "raise":
            message = fault.message or (
                f"injected fault at task {index} (attempt {attempt})")
            raise ValueError(message)
        if fault.kind == "hang":
            time.sleep(fault.duration)
            return self.fn(item)
        if fault.kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(13)  # a real worker dies for real
            raise WorkerCrashError(
                f"injected crash at task {index} (attempt {attempt})")
        return fault.value  # corrupt
