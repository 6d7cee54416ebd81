"""Logical simulation clock.

All latency in the middleware substrate is *accounted*, not slept: the bus
advances the clock by the configured per-message latency, transaction and
credential timeouts compare against it, and benchmarks read it to report
simulated time independently of wall-clock noise.

The clock is also *waitable*: the virtual-time event scheduler
(:mod:`repro.runtime.load.scheduler`) drives it forward with
:meth:`SimClock.advance_to`, and any thread may block in
:meth:`SimClock.wait_until` until simulated time reaches a deadline —
virtual-time analogues of ``sleep``/``wall clock`` that make a million
simulated clients schedulable without a thread apiece.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.witness import named_condition, named_rlock
from repro.errors import MiddlewareError


class SimClock:
    """Monotonic logical clock measured in (simulated) milliseconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)  # guarded_by: _cond
        #: threads blocked in wait_until; advancing notifies only when
        #: there are some, so the per-hop advance stays a bare mutex
        self._waiters = 0  # guarded_by: _cond
        # advance() has always serialized on one mutex; the condition
        # waits on that same mutex
        self._lock = named_rlock("clock.sim")
        self._cond = named_condition("clock.sim", lock=self._lock)

    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward; negative deltas are rejected."""
        if delta_ms < 0:
            raise MiddlewareError(f"clock cannot go backwards ({delta_ms} ms)")
        with self._lock:
            self._now += delta_ms
            if self._waiters:
                self._cond.notify_all()
            return self._now

    def advance_to(self, target_ms: float) -> float:
        """Move time forward to an *absolute* instant.

        A no-op when ``target_ms`` is not ahead of now — concurrent
        advancers (the event scheduler setting event times while the
        transport accounts hop latency) may only ever race time
        forward, never backwards.
        """
        with self._lock:
            if target_ms > self._now:
                self._now = float(target_ms)
                if self._waiters:
                    self._cond.notify_all()
            return self._now

    def wait_until(
        self, deadline_ms: float, timeout_s: Optional[float] = None
    ) -> bool:
        """Block until simulated time reaches ``deadline_ms``.

        Returns True once ``now() >= deadline_ms``; False if the
        (wall-clock) ``timeout_s`` expired first.  Virtual time only
        moves when someone advances it, so a waiter with no timeout
        relies on another thread driving the clock.
        """
        with self._cond:
            self._waiters += 1
            try:
                return self._cond.wait_for(
                    lambda: self._now >= deadline_ms, timeout=timeout_s
                )
            finally:
                self._waiters -= 1

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<SimClock t={self._now:.3f}ms>"
