"""Request dispatchers: sequential and thread-pool with per-servant locks.

A dispatcher decides *how* a node executes an incoming request:

* :class:`SerialDispatcher` runs the request inline on the calling
  thread — the seed's one-request-at-a-time behaviour, kept as the
  deterministic baseline;
* :class:`ConcurrentDispatcher` hands the request to a bounded worker
  pool (the classic ORB thread-pool model) and blocks the caller until
  the worker produces the result.

Both enforce **per-servant serialization**: at most one request executes
against a given servant key at any time (an :class:`threading.RLock` per
key).  Requests against *different* servants overlap freely, which is
where the throughput of the concurrent model comes from — transport
latency and blocking I/O of independent requests overlap instead of
queueing behind each other.

Nested dispatches (server code that calls back into the same node while
handling a request) and the members of a pipelined batch
(:class:`inline_dispatch`) execute inline on the current thread: routing
them through the bounded pool again could exhaust it and deadlock, and
the RLock makes re-entry on the same servant safe.  Nested calls that
enter through the ORB directly (proxy arguments hydrated server-side)
never reach :meth:`ConcurrentDispatcher.dispatch`; the node closes that
gap by installing :meth:`_DispatcherBase.serialize` as the bus's
``dispatch_guard``, so *every* delivery on the node holds the target
servant's lock.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, TypeVar

from repro.analysis.witness import named_lock, named_rlock
from repro.errors import MiddlewareError
from repro.middleware.transport import serving_request

T = TypeVar("T")

#: marks threads that are currently dispatcher workers — shared across
#: dispatchers, so a request that hops nodes mid-dispatch runs inline on
#: the remote node instead of blocking on another bounded pool (two
#: saturated pools waiting on each other would deadlock the federation)
_worker_local = threading.local()


class inline_dispatch:
    """Dispatch on this thread for a ``with`` block, as nested calls do.

    A pipelined batch runs its members one after another on the thread
    that delivers the batch; handing each member to a node's pool would
    cost a thread handoff per call and buy no overlap.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> None:
        self._previous = getattr(_worker_local, "in_worker", False)
        _worker_local.in_worker = True

    def __exit__(self, *exc_info) -> None:
        _worker_local.in_worker = self._previous


class DispatchStats:
    """Thread-safe counters shared by both dispatcher flavours."""

    def __init__(self):
        self._lock = named_lock("dispatch.stats")
        self.dispatched = 0  # guarded_by: _lock
        self.errors = 0  # guarded_by: _lock
        self.in_flight = 0  # guarded_by: _lock
        self.max_in_flight = 0  # guarded_by: _lock

    def enter(self) -> None:
        with self._lock:
            self.dispatched += 1
            self.in_flight += 1
            if self.in_flight > self.max_in_flight:
                self.max_in_flight = self.in_flight

    def exit(self, error: bool) -> None:
        with self._lock:
            self.in_flight -= 1
            if error:
                self.errors += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "dispatched": self.dispatched,
                "errors": self.errors,
                "in_flight": self.in_flight,
                "max_in_flight": self.max_in_flight,
            }


class _DispatcherBase:
    """Per-servant lock table + stats, shared by both dispatchers."""

    def __init__(self):
        self.stats = DispatchStats()
        self._servant_locks: Dict[str, threading.RLock] = {}
        self._locks_guard = named_lock("dispatch.locks_guard")

    def _servant_lock(self, key: str) -> threading.RLock:
        lock = self._servant_locks.get(key)
        if lock is None:
            with self._locks_guard:
                lock = self._servant_locks.setdefault(
                    key, named_rlock("dispatch.servant")
                )
        return lock

    def _run(self, key: str, fn: Callable[[], T]) -> T:
        self.stats.enter()
        error = False
        try:
            with self._servant_lock(key):
                return fn()
        except BaseException:
            error = True
            raise
        finally:
            self.stats.exit(error)

    def serialize(self, key: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the servant lock only (no pool, no stats).

        Installed as the bus's ``dispatch_guard`` so nested in-process
        deliveries — proxy calls that never pass through ``dispatch`` —
        still serialize per servant.  The lock is re-entrant, so a
        request re-entering its own servant cannot self-deadlock.
        """
        with self._servant_lock(key):
            return fn()

    def shutdown(self) -> None:  # pragma: no cover - overridden where needed
        """Release worker resources (no-op for the serial dispatcher)."""


class SerialDispatcher(_DispatcherBase):
    """Executes every request inline, one at a time per servant."""

    workers = 1

    def dispatch(self, servant_key: str, fn: Callable[[], T]) -> T:
        return self._run(servant_key, fn)


class ConcurrentDispatcher(_DispatcherBase):
    """Bounded worker pool with per-servant serialization.

    External callers block on a future while a pool worker executes the
    request; calls made *from* a worker (nested server-side invocations)
    run inline to keep the pool deadlock-free.
    """

    def __init__(self, workers: int = 4, name: str = "node"):
        super().__init__()
        if workers < 1:
            raise MiddlewareError(f"dispatcher needs >= 1 worker, got {workers}")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"dispatch-{name}"
        )

    def dispatch(self, servant_key: str, fn: Callable[[], T]) -> T:
        if getattr(_worker_local, "in_worker", False):
            return self._run(servant_key, fn)
        return self._pool.submit(self._worker_run, servant_key, fn).result()

    def _worker_run(self, servant_key: str, fn: Callable[[], T]) -> T:
        _worker_local.in_worker = True
        try:
            # pool workers also count as "serving a request": nested
            # asynchronous submissions made by the servant must deliver
            # inline rather than queue behind a possibly exhausted pool
            with serving_request():
                return self._run(servant_key, fn)
        finally:
            _worker_local.in_worker = False

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
