"""The executor's injectable clock.

Retry backoff and timeout bookkeeping must be testable without real
sleeping: the chaos suite swaps :class:`SystemClock` for
:class:`repro.testing.FakeClock`, which advances a virtual ``now`` on
``sleep`` so an exponential-backoff schedule (or an inline-path
timeout) runs in microseconds.  This is the one module outside
:mod:`repro.obs` allowed to touch the wall clock (REP009 is suppressed
on those lines): scheduling deadlines are control flow, not performance
timing, and routing them through a span would invert the dependency.
"""

from __future__ import annotations

import time

__all__ = ["Clock", "SystemClock", "SYSTEM_CLOCK"]


class Clock:
    """Minimal clock interface: a monotonic ``now`` and a ``sleep``."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (virtual clocks advance instead)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock (monotonic, immune to NTP steps)."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()  # repro: noqa[REP009] executor retry clock

    def sleep(self, seconds: float) -> None:
        """Really sleep."""
        if seconds > 0:
            time.sleep(seconds)


#: Shared default instance; stateless, so one is enough.
SYSTEM_CLOCK = SystemClock()
