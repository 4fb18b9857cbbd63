"""Deterministic fault injection for the execution subsystem.

The chaos suite (``tests/parallel/test_fault_tolerance.py``) must prove
that the executor survives raising, hanging, crashing, and corrupting
tasks — *deterministically*, on both execution paths, without real worker
crashes outside a real pool and without real sleeps.  This package
provides the two levers:

- :class:`FaultPlan` — a seed-driven schedule of faults keyed by task
  index and attempt number, whose attempt counting works across process
  boundaries (atomic marker files in a shared workdir), so "fail twice
  then succeed" means the same thing inline and on a process pool;
- :class:`FakeClock` — a virtual :class:`repro.parallel.Clock` whose
  ``sleep`` advances ``now`` instead of blocking, so an exponential
  backoff schedule (or an inline-path timeout) runs in microseconds.

Ordinary library code must never import this package; it exists for
tests and for reproducing executor bugs in isolation.
"""

from repro.testing.clock import FakeClock
from repro.testing.faults import CORRUPTED, Fault, FaultPlan

__all__ = ["CORRUPTED", "FakeClock", "Fault", "FaultPlan"]
