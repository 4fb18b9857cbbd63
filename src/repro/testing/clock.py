"""A virtual clock: sleeps advance time instead of consuming it."""

from __future__ import annotations

import threading

from repro.parallel.clock import Clock

__all__ = ["FakeClock"]


class FakeClock(Clock):
    """Deterministic :class:`~repro.parallel.clock.Clock` for tests.

    ``sleep`` advances the virtual ``now`` and records the request, so a
    test can assert an exact backoff schedule (``clock.sleeps``) without
    waiting for it.  Valid for backoff on both execution paths (the
    executor sleeps parent-side); valid for *timeouts* only on the
    inline path, where overruns are measured with this clock — the
    process pool enforces deadlines with real futures.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        #: Every ``sleep`` duration requested, in call order.
        self.sleeps: list[float] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
            if seconds > 0:
                self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        with self._lock:
            self._now += seconds
