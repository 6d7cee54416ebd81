"""Flat transaction manager with two-phase commit over enlisted resources.

The transactions concern's generated aspect wraps application methods in
``manager.transaction()`` blocks and enlists the objects a method touches
(:meth:`TransactionManager.enlist_object`); state restoration on abort is
handled by :class:`ObjectSnapshotResource` before-images, isolation by
strict two-phase locking through the S10 lock manager.

Nesting uses *join* semantics: an inner ``begin`` joins the enclosing
transaction (depth counting), so a transactional method calling another
transactional method commits exactly once, at the outermost boundary —
the behaviour the semantic-coupling experiment (E9) depends on.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Any, Dict, List, Optional

from repro.analysis.witness import named_lock
from repro.errors import (
    NoTransactionError,
    TransactionAborted,
    TransactionError,
)
from repro.middleware.clock import SimClock
from repro.middleware.faults import FaultInjector
from repro.middleware.locks import LockManager, LockMode

_tx_counter = itertools.count(1)


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Resource:
    """Participant interface of two-phase commit."""

    def prepare(self) -> None:
        """Vote: raise to vote no."""

    def commit(self) -> None:
        """Make the changes durable (must not fail after a yes vote)."""

    def rollback(self) -> None:
        """Undo the changes."""


class ObjectSnapshotResource(Resource):
    """Before-image of a plain object's ``__dict__``; restores on rollback."""

    def __init__(self, obj: Any):
        self.obj = obj
        self._before = dict(obj.__dict__)

    def rollback(self) -> None:
        self.obj.__dict__.clear()
        self.obj.__dict__.update(self._before)


class Transaction:
    """One flat transaction; created by the manager, not directly."""

    def __init__(self, manager: "TransactionManager"):
        self.txid = f"tx-{next(_tx_counter)}"
        self.manager = manager
        self.status = TransactionStatus.ACTIVE
        self.depth = 0  # join-nesting depth
        self.rollback_only = False
        self.rollback_reason: Optional[str] = None
        self.resources: List[Resource] = []
        self._enlisted_objects: Dict[int, ObjectSnapshotResource] = {}
        self.started_at = manager.clock.now()

    def enlist(self, resource: Resource) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"cannot enlist in {self.status.value} transaction {self.txid}"
            )
        self.resources.append(resource)

    def set_rollback_only(self, reason: str = "marked rollback-only") -> None:
        self.rollback_only = True
        if self.rollback_reason is None:
            self.rollback_reason = reason


class TransactionManager:
    """Begin/commit/rollback with a current-transaction stack.

    The current-transaction stack is *thread-local*: under the concurrent
    dispatcher each worker thread carries its own stack, so transactions
    started by independent requests never observe each other as "current".
    Single-threaded callers see exactly the old behaviour.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        faults: Optional[FaultInjector] = None,
        locks: Optional[LockManager] = None,
    ):
        self.clock = clock or SimClock()
        self.faults = faults or FaultInjector()
        self.locks = locks or LockManager()
        self._local = threading.local()
        self._stats_lock = named_lock("txn.stats")
        #: statistics for benchmarks
        self.commits = 0  # guarded_by: _stats_lock
        self.aborts = 0  # guarded_by: _stats_lock

    @property
    def _stack(self) -> List[Transaction]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- lifecycle -------------------------------------------------------------

    def current(self) -> Optional[Transaction]:
        return self._stack[-1] if self._stack else None

    def require_current(self) -> Transaction:
        tx = self.current()
        if tx is None:
            raise NoTransactionError("no active transaction")
        return tx

    def begin(self, join: bool = True) -> Transaction:
        """Start a transaction; with ``join`` (default), nest into any
        enclosing one instead of creating an independent sibling."""
        current = self.current()
        if current is not None and join:
            current.depth += 1
            return current
        tx = Transaction(self)
        self._stack.append(tx)
        return tx

    def commit(self, tx: Transaction) -> None:
        """Commit (outermost) or leave a join level (nested)."""
        self._check_current(tx)
        if tx.depth > 0:
            tx.depth -= 1
            return
        if tx.rollback_only:
            self.rollback(tx)
            raise TransactionAborted(
                tx.txid, tx.rollback_reason or "rollback-only"
            )
        tx.status = TransactionStatus.PREPARING
        try:
            for resource in tx.resources:
                self.faults.check("txn.prepare")
                resource.prepare()
        except Exception as exc:
            tx.status = TransactionStatus.ACTIVE
            self.rollback(tx)
            raise TransactionAborted(tx.txid, f"prepare failed: {exc}") from exc
        for resource in tx.resources:
            resource.commit()
        tx.status = TransactionStatus.COMMITTED
        self._finish(tx)
        with self._stats_lock:
            self.commits += 1

    def rollback(self, tx: Transaction, reason: Optional[str] = None) -> None:
        """Roll back; nested joins mark the whole transaction rollback-only."""
        self._check_current(tx)
        if tx.depth > 0:
            tx.depth -= 1
            tx.set_rollback_only(reason or "inner scope rolled back")
            return
        for resource in reversed(tx.resources):
            resource.rollback()
        tx.status = TransactionStatus.ABORTED
        tx.rollback_reason = reason or tx.rollback_reason
        self._finish(tx)
        with self._stats_lock:
            self.aborts += 1

    def _check_current(self, tx: Transaction) -> None:
        if self.current() is not tx:
            raise TransactionError(
                f"transaction {tx.txid} is not the current transaction"
            )

    def _finish(self, tx: Transaction) -> None:
        self._stack.pop()
        self.locks.release_all(tx.txid)

    # -- conveniences --------------------------------------------------------------

    def transaction(self) -> "TransactionScope":
        """``with manager.transaction() as tx:`` — commit on success,
        rollback (and re-raise) on exception."""
        return TransactionScope(self)

    def enlist_object(self, obj: Any, tx: Optional[Transaction] = None) -> None:
        """Write-lock ``obj`` and snapshot it for rollback (idempotent per tx)."""
        tx = tx or self.require_current()
        if id(obj) in tx._enlisted_objects:
            return
        self.locks.acquire(tx.txid, f"obj:{id(obj)}", LockMode.WRITE)
        resource = ObjectSnapshotResource(obj)
        tx._enlisted_objects[id(obj)] = resource
        tx.enlist(resource)


class TransactionScope:
    """The ``with`` block of :meth:`TransactionManager.transaction`.

    Entering begins (or joins) a transaction.  A clean exit commits it;
    an exception rolls it back and propagates — except
    :class:`~repro.errors.TransactionAborted`, which already rolled back.
    """

    __slots__ = ("_manager", "_tx")

    def __init__(self, manager: TransactionManager):
        self._manager = manager
        self._tx: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        self._tx = self._manager.begin()
        return self._tx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._manager.commit(self._tx)
        elif not issubclass(exc_type, TransactionAborted):
            self._manager.rollback(
                self._tx, reason=f"{exc_type.__name__}: {exc}"
            )
        return False
