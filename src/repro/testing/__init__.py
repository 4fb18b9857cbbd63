"""Deterministic fault injection for the execution subsystem.

The chaos suite (``tests/parallel/test_fault_tolerance.py``) must prove
that :func:`repro.parallel.parallel_map` survives raising, crashing,
slow and corrupting tasks — *deterministically*, on both execution
paths, without real worker crashes outside a real pool.
:class:`FaultPlan` is the lever: a seed-driven schedule of faults keyed
by task index and attempt number, whose attempt counting works across
process boundaries (atomic marker files in a shared workdir), so "crash
once, then succeed" counts attempts the same way inline and across a
rebuilt pool.

Ordinary library code must never import this package; it exists for
tests and for reproducing executor bugs in isolation.
"""

from repro.testing.faults import CORRUPTED, Fault, FaultPlan

__all__ = ["CORRUPTED", "Fault", "FaultPlan"]
