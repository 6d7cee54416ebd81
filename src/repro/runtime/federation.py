"""Multi-node ORB federation: consistent-hash sharding and request routing.

The federation is the inter-node fabric:

* :class:`HashRing` — consistent hashing with virtual nodes; adding or
  removing a node only remaps the keys that land on its ring segments.
* :class:`ShardedNamingService` — the paper-level naming service scaled
  out: names are partitioned by their first path segment over per-shard
  :class:`~repro.middleware.naming.NamingService` instances (each node's
  local naming service is its shard), so resolution is one hash plus one
  local lookup, with no global table.
* :class:`Federation` — node registry plus the routed invocation path.
  Every hop is an :class:`~repro.middleware.envelope.Envelope` addressed
  by a federation *name*: its handler resolves the owner on every
  delivery attempt and runs one ordered interceptor chain (metrics →
  trace → fault injection → failover → latency → routing statistics)
  around the owner node's dispatch — in process, or over a real wire
  connection in socket mode and on worker processes.  Synchronous calls
  deliver on the caller's thread; futures and oneways on delivery
  threads.
* :class:`InvocationPipeline` — client-side batching: consecutive calls
  to the same node travel as one envelope, so a latency-bound client
  pays one transport hop per batch instead of per call.  Each member is
  an ordinary routed call; only the hop is shared.
* :class:`FederationClient` — a caller identity: resolves names anywhere
  in the federation and attaches per-node credentials to each request,
  in all four invocation styles (sync, async future, oneway, pipeline).

Elastic membership (live topology changes):

* :meth:`Federation.join` / :meth:`Federation.retire` rehash the ring and
  migrate **only the affected bindings**: each moving partition is frozen
  (in-flight envelopes quiesce behind a :class:`_MigrationGate`), its
  servant state ships as a :class:`ShardManifest` (the shard-level
  analogue of :class:`~repro.core.shipping.ComponentPackage` — the
  application itself travels as a shipped package and is replayed on the
  joining node), and the :class:`ShardedNamingService` performs an atomic
  ownership-epoch swap, so routing never observes a half-migrated shard.
* :class:`ReplicaManager` keeps, per partition key, a primary plus N
  standby servant copies on the ring-successor nodes (each successful
  mutating routed call appends to the partition's op log, which the
  standbys replay before the call returns).  :meth:`Federation.kill`
  models a fail-stop crash (in-flight requests finish, then the node
  goes dark); the ``failover`` interceptor element reacts to the resulting
  :class:`~repro.errors.NodeDownError` by promoting the standbys of the
  dead node's partitions, and the transport's QoS retry budget re-delivers
  the pre-effect call — re-resolving ``envelope.binding`` — onto the new
  primary.
"""

from __future__ import annotations

import bisect
import contextlib
import fnmatch
import hashlib
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.witness import named_condition, named_lock, named_rlock
from repro.errors import FederationError, NamingError, NodeDownError, ReproError
from repro.middleware.bus import ObjectRefData, Request, marshal
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    DEFAULT_QOS,
    ONEWAY_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
    current_delivery_context,
)
from repro.middleware.faults import FaultInjector
from repro.middleware.naming import NamingService
from repro.middleware.transport import (
    InProcessTransport,
    LazyQueuedTransport,
    QueuedTransport,
    in_serving_thread,
)
from repro.middleware.rpc import RemoteProxy
from repro.runtime.dispatch import inline_dispatch
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.node import Node
from repro.runtime.observability import TRACE_KEY, Observability


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise FederationError(f"ring needs >= 1 replica, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        self._members: List[str] = []

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.md5(value.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def members(self) -> List[str]:
        return list(self._members)

    def add(self, name: str) -> None:
        if name in self._members:
            raise FederationError(f"ring member {name!r} already present")
        self._members.append(name)
        for i in range(self.replicas):
            point = self._hash(f"{name}#{i}")
            # md5 collisions across member names are not expected; keep
            # first owner on the astronomically unlikely tie
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = name
        self._members.sort()

    def remove(self, name: str) -> None:
        if name not in self._members:
            raise FederationError(f"ring member {name!r} not present")
        self._members.remove(name)
        for i in range(self.replicas):
            point = self._hash(f"{name}#{i}")
            if self._owners.get(point) == name:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    def owner(self, key: str) -> str:
        """The member owning ``key`` (clockwise successor on the ring)."""
        if not self._points:
            raise FederationError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def preference(self, key: str, count: int) -> List[str]:
        """The first ``count`` distinct members clockwise from ``key``.

        The owner comes first; the members that follow are the natural
        standby order for replica placement — when the owner leaves the
        ring, ownership of ``key`` falls to ``preference(key, 2)[1]``.
        """
        if not self._points:
            raise FederationError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        result: List[str] = []
        total = len(self._points)
        for i in range(total):
            owner = self._owners[self._points[(index + i) % total]]
            if owner not in result:
                result.append(owner)
                if len(result) >= count:
                    break
        return result


class _Topology:
    """One immutable ownership snapshot: ring + shard stores + epoch.

    Readers take the whole snapshot in a single attribute read, so a
    concurrent topology swap can never be observed half-applied (ring
    says one owner, shard table says another).
    """

    __slots__ = ("ring", "shards", "epoch")

    def __init__(self, ring: HashRing, shards: Dict[str, NamingService], epoch: int):
        self.ring = ring
        self.shards = shards
        self.epoch = epoch


class ShardedNamingService:
    """Consistent-hash shards over plain :class:`NamingService` stores.

    The partition key of a name is its first path segment
    (``branch-3/Account/7`` → ``branch-3``), so all names below one
    partition co-locate on one shard — the property single-shard
    transactions rely on.

    Topology changes (``add_shard``/``remove_shard``) are **atomic
    ownership-epoch swaps**: a fresh ring and shard table are built off
    to the side and published in one reference assignment, bumping
    :attr:`epoch`.  Lookups pin one snapshot for their whole
    resolve-owner-then-read-shard sequence, so routing never sees a
    half-migrated shard even while a migration rebinds names.
    """

    def __init__(self, replicas: int = 64):
        self._replicas = replicas
        self._topology = _Topology(HashRing(replicas), {}, 0)  # guarded_by: _swap_lock
        self._swap_lock = named_lock("naming.swap")

    # -- topology -----------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The current ring snapshot (stable for the returned object)."""
        return self._topology.ring

    @property
    def epoch(self) -> int:
        """Bumped once per committed topology swap."""
        return self._topology.epoch

    def preview_ring(
        self, add: Optional[str] = None, drop: Optional[str] = None
    ) -> HashRing:
        """The ring as it *would* look after a membership change —
        migrations use it to compute which partitions move before any
        ownership actually changes."""
        members = [m for m in self._topology.ring.members if m != drop]
        if add is not None:
            members.append(add)
        ring = HashRing(self._replicas)
        for member in members:
            ring.add(member)
        return ring

    def add_shard(
        self, shard_name: str, naming: Optional[NamingService] = None
    ) -> NamingService:
        with self._swap_lock:
            topology = self._topology
            if shard_name in topology.shards:
                raise FederationError(f"shard {shard_name!r} already exists")
            store = naming or NamingService()
            shards = dict(topology.shards)
            shards[shard_name] = store
            self._commit(self.preview_ring(add=shard_name), shards)
            return store

    def remove_shard(self, shard_name: str) -> NamingService:
        """Drop a shard in one epoch swap; returns the detached store."""
        with self._swap_lock:
            topology = self._topology
            if shard_name not in topology.shards:
                raise FederationError(f"unknown shard {shard_name!r}")
            shards = dict(topology.shards)
            store = shards.pop(shard_name)
            self._commit(self.preview_ring(drop=shard_name), shards)
            return store

    def _commit(self, ring: HashRing, shards: Dict[str, NamingService]) -> None:
        self._topology = _Topology(ring, shards, self._topology.epoch + 1)

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._topology.shards)

    @staticmethod
    def partition_key(name: str) -> str:
        if not name or not isinstance(name, str):
            raise NamingError(f"invalid name {name!r}")
        for part in name.split("/"):
            if part:
                return part
        raise NamingError(f"invalid name {name!r}")

    def owner_of(self, name: str) -> str:
        return self._topology.ring.owner(self.partition_key(name))

    def resolve_with_owner(self, name: str) -> Tuple[str, ObjectRefData]:
        """Resolve against ONE topology snapshot: (owner shard, ref)."""
        topology = self._topology
        owner = topology.ring.owner(self.partition_key(name))
        return owner, topology.shards[owner].resolve(name)

    def partition_view(self, partition: str) -> Optional[Tuple[str, List[str]]]:
        """One partition's (owner, bound names) from ONE snapshot — or
        None while a membership change is swapping the shard away
        (callers like the replica sync treat that as 'try again later')."""
        topology = self._topology
        if not topology.shards:
            return None
        owner = topology.ring.owner(partition)
        store = topology.shards.get(owner)
        if store is None:
            return None
        return owner, store.list(partition)

    def shard_for(self, name: str) -> NamingService:
        topology = self._topology
        return topology.shards[topology.ring.owner(self.partition_key(name))]

    def shard(self, shard_name: str) -> NamingService:
        try:
            return self._topology.shards[shard_name]
        except KeyError:
            raise FederationError(f"unknown shard {shard_name!r}") from None

    # -- naming operations -----------------------------------------------------

    def bind(self, name: str, ref: ObjectRefData) -> None:
        self.shard_for(name).bind(name, ref)

    def rebind(self, name: str, ref: ObjectRefData) -> None:
        self.shard_for(name).rebind(name, ref)

    def resolve(self, name: str) -> ObjectRefData:
        return self.shard_for(name).resolve(name)

    def unbind(self, name: str) -> None:
        self.shard_for(name).unbind(name)

    def list(self, prefix: str = "") -> List[str]:
        names: List[str] = []
        for shard in self._topology.shards.values():
            names.extend(shard.list(prefix))
        return sorted(names)

    def stats(self) -> Dict[str, int]:
        """Bindings per shard — the shard-balance view."""
        return {
            name: len(shard.list())
            for name, shard in sorted(self._topology.shards.items())
        }


@dataclass
class ShardManifest:
    """The transfer unit of a shard migration — servant state in transit.

    The shard-level analogue of
    :class:`~repro.core.shipping.ComponentPackage`: where the package
    ships the *application* (model + refinement steps, replayed on the
    receiving node), the manifest ships one partition's *servant state*
    — ``(name, type name, attribute dict)`` per binding.  The receiving
    node reconstructs each servant from its own woven module class, so
    migrated servants are instrumented by the receiver's aspects exactly
    like locally created ones.  ``to_dict`` is JSON-shaped for the same
    reason the package is: a migration is auditable, not opaque.
    """

    partition: str
    source: str
    entries: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-shard-manifest/1",
            "partition": self.partition,
            "source": self.source,
            "entries": [
                {"name": name, "type": type_name, "state": dict(state)}
                for name, type_name, state in self.entries
            ],
        }


class _MigrationGate:
    """Quiesces in-flight envelopes on a moving shard.

    Routed deliveries enter their target partition for the duration of
    the hop; a migration ``freeze``\\ s the moving partitions, which
    (a) blocks *new* deliveries to them and (b) waits until every
    already-entered delivery has drained — so servant state is copied
    only while nothing executes against it, and resolution of the moving
    names resumes only after the ownership epoch swap.

    Re-entrancy rule: a thread that already holds an entry for a
    partition re-enters it without blocking on the frozen set — the
    freeze discounts its entries and waits for it, so blocking it would
    invert the wait (a servant's nested call back into its own frozen
    partition must pass).  A nested call into a *different* frozen
    partition waits for the unfreeze like any new delivery; the freeze
    timeout is the backstop for workloads that nest across two
    partitions frozen by the same migration.
    """

    def __init__(self, observer=None):
        self._lock = named_rlock("federation.gate")
        self._cond = named_condition("federation.gate", lock=self._lock)
        self._frozen: set = set()  # guarded_by: _cond
        self._inflight: Dict[str, int] = {}  # guarded_by: _cond
        self._local = threading.local()
        #: callable(partitions, waited_ms) — notified when a delivery
        #: had to block on a frozen partition (observability event)
        self._observer = observer

    def _held(self) -> Dict[str, int]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = {}
        return held

    def _enter(self, partition: str) -> None:
        """Enter ``partition`` for one delivery; pair with :meth:`_exit`.

        Waits while the partition is frozen — unless this thread already
        holds it: the freeze is waiting for that entry, so blocking on
        it would invert the wait.  A frozen partition the thread does
        NOT hold always blocks, so a nested delivery never slips into a
        shard mid-export.  The residual cross-wait (thread holds frozen
        A, wants frozen B) ends at the freeze timeout: the migration
        fails cleanly rather than the shard migrating with a torn
        snapshot.
        """
        held = self._held()
        waited_at = None
        with self._lock:
            while partition in self._frozen and partition not in held:
                if waited_at is None:
                    waited_at = time.perf_counter()
                if not self._cond.wait(timeout=30.0):
                    raise FederationError(
                        f"partition {partition!r} stayed frozen for 30s"
                    )
            self._inflight[partition] = self._inflight.get(partition, 0) + 1
        held[partition] = held.get(partition, 0) + 1
        if waited_at is not None and self._observer is not None:
            self._observer([partition], (time.perf_counter() - waited_at) * 1000.0)

    def _exit(self, partition: str) -> None:
        held = self._held()
        held[partition] -= 1
        if not held[partition]:
            del held[partition]
        with self._lock:
            self._inflight[partition] -= 1
            if not self._inflight[partition]:
                del self._inflight[partition]
            if self._frozen:
                # only a pending freeze waits for entries to drain
                self._cond.notify_all()

    @contextlib.contextmanager
    def freeze(self, partitions: Iterable[str], timeout_s: float = 30.0):
        frozen = set(partitions)
        held = self._held()

        def drained() -> bool:
            return all(
                self._inflight.get(p, 0) <= held.get(p, 0) for p in frozen
            )

        with self._cond:
            self._frozen |= frozen
            if not self._cond.wait_for(drained, timeout_s):
                self._frozen -= frozen
                self._cond.notify_all()
                raise FederationError(
                    "in-flight requests on the moving shard did not "
                    f"quiesce within {timeout_s}s"
                )
        try:
            yield
        finally:
            with self._cond:
                self._frozen -= frozen
                self._cond.notify_all()


class ReplicaGroup:
    """One partition's replication view: primary, standbys, watermarks."""

    __slots__ = (
        "partition", "primary", "standbys", "watermarks", "log", "epoch", "versions",
    )

    def __init__(
        self,
        partition: str,
        primary: str,
        standby_names: List[str],
        previous: Optional["ReplicaGroup"] = None,
    ):
        self.partition = partition
        self.primary = primary
        #: standby node names, in ring order; each node holds its own
        #: copies (``Node.standbys`` / a worker's, over CONTROL)
        self.standbys: List[str] = list(standby_names)
        #: standby node name -> applied log sequence: the
        #: watermark up to which that standby's copies have replayed the
        #: partition's :class:`ReplicationLog`; replica lag is the
        #: distance between the log head and the smallest watermark
        self.watermarks: Dict[str, int] = {name: 0 for name in standby_names}
        #: the partition's op log — outlives the group: a re-placed
        #: group inherits it and its fresh watermarks reseed from it
        self.log = previous.log if previous is not None else ReplicationLog(partition)
        #: naming epoch of the last full sync; a narrowed sync against
        #: an older epoch takes the full path, which re-places the group
        self.epoch = -1
        #: binding name -> newest snapshot version logged (the primary's
        #: own counter, so shared only by groups of one primary)
        self.versions: Dict[str, int] = (
            previous.versions
            if previous is not None and previous.primary == primary
            else {}
        )


class ReplicationLog:
    """Append-only, monotonically sequenced op log for one partition.

    Every mutating call appends one entry per touched servant carrying
    that servant's post-call state delta ``(seq, name, type_name,
    state)``.  Standbys *replay* the tail past their applied watermark
    instead of re-copying the partition.  Periodically the tail is
    folded into a base snapshot (``base``/``base_seq``) and truncated,
    bounding memory; a standby whose watermark predates ``base_seq``
    reseeds from the snapshot and replays the remaining tail — the same
    path serves steady-state catch-up, join-time seeding, and failover
    promotion.
    """

    __slots__ = (
        "partition", "seq", "base_seq", "base", "entries", "truncations", "lock",
    )

    def __init__(self, partition: str):
        self.partition = partition
        #: held across append, standby catch-up (replay round trips
        #: included) and fold, so one partition's replays stay in log
        #: order while other partitions replicate in parallel
        self.lock = named_rlock("replication.log")
        #: sequence of the newest entry ever appended (monotonic)
        self.seq = 0
        #: every entry with seq <= base_seq has been folded into base
        self.base_seq = 0
        #: binding name -> (type name, state) as of base_seq
        self.base: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        #: untruncated tail: [(seq, name, type name, state)], seq > base_seq
        self.entries: List[Tuple[int, str, str, Dict[str, Any]]] = []
        self.truncations = 0

    def append(self, name: str, type_name: str, state: Dict[str, Any]) -> int:
        self.seq += 1
        self.entries.append((self.seq, name, type_name, state))
        return self.seq

    def snapshot(self) -> None:
        """Fold the tail into the base snapshot and truncate the log."""
        for _seq, name, type_name, state in self.entries:
            self.base[name] = (type_name, state)
        self.base_seq = self.seq
        self.entries = []
        self.truncations += 1

    def prune(self, live_names) -> None:
        """Drop base entries for names no longer bound in the partition."""
        for name in list(self.base):
            if name not in live_names:
                del self.base[name]


class ReplicaManager:
    """Per-partition primary + N standby servant copies (failover state).

    Standbys are the partition's ring successors, so when the primary
    leaves the ring the new hash owner *is* the first standby — the node
    already holding current state.  Each standby node holds its own
    copies (instances of its own woven module classes, or a worker
    process's), so this manager drives every node through the same
    calls: ``snapshot`` on the owner, ``replay`` and ``promote`` on a
    standby.  Snapshots are taken under each servant's dispatch lock,
    so a single snapshot is never torn by a concurrent mutation
    (shallow — scenario servant state is primitive by construction).

    Replication is log shipping driven by **per-servant dirty
    tracking** (:meth:`sync_partition`); the standbys *replay* the log
    past their applied watermark before its tail is folded, so a write
    costs one copy per standby.  Seeding, catch-up and failover
    promotion all ride the same replay path.

    Cross-servant coherence comes from the sync discipline itself:
    every mutating call replicates its effects before it releases the
    node's in-flight count, so a drained (killed) primary has already
    pushed its final state.
    """

    def __init__(
        self,
        federation: "Federation",
        count: int = 1,
        snapshot_every: int = 64,
    ):
        if count < 1:
            raise FederationError(f"replication needs >= 1 standby, got {count}")
        if snapshot_every < 1:
            raise FederationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.federation = federation
        self.count = count
        self.snapshot_every = snapshot_every
        self._groups: Dict[str, ReplicaGroup] = {}  # guarded_by: _lock
        self._lock = named_rlock("replication.manager")
        #: syncs that actually refreshed at least one standby copy /
        #: skipped because the routed call touched no mutable servant
        self.syncs = 0
        self.skipped_syncs = 0
        #: log counters: entries appended, snapshot+truncate cycles,
        #: and the largest watermark deficit ever observed at catch-up
        self.log_appends = 0
        self.snapshots = 0
        self.max_replica_lag = 0
        #: standby replays / owner snapshots that could not be delivered
        self.replay_failures = 0
        self.snapshot_failures = 0

    def sync_partition(self, partition: str, states=None) -> None:
        """Replicate ``partition``'s state to its standbys.

        ``states`` are the post-call ``(name, type name, state,
        version)`` of the servants the triggering call mutated
        (:meth:`Node.touched_states`, or a worker's reply); when given,
        only this partition's entries among them are logged —
        per-servant dirty tracking — and none at all counts as a skipped
        sync.  ``None`` means "unknown": seed, rebuild, oneway and
        evicted-window calls pay the full-partition path, which also
        re-places the group after a topology change.

        Best-effort by design: it runs *after* the triggering call's
        servant effect, so it must never fail that call.  A topology
        swap racing the sync (owner read from one snapshot, gone in the
        next) just skips the refresh — the rebuild that every membership
        change performs re-syncs the partition moments later.  An owner
        that cannot be snapshot (a dead worker) is counted in
        ``snapshot_failures``.
        """
        federation = self.federation
        if states is not None:
            mine = [
                entry for entry in states if entry[0].split("/", 1)[0] == partition
            ]
            if not mine:
                with self._lock:
                    self.skipped_syncs += 1
                return
            # an unlocked read: a group re-placed meanwhile shares the log,
            # and one placed under an older epoch fails the check below
            group = self._groups.get(partition)
            if group is not None and group.epoch == federation.naming.epoch:
                self._replicate(group, mine, full=False)
                return
        view = federation.naming.partition_view(partition)
        if view is None:
            return
        owner_name, names = view
        owner = federation.nodes.get(owner_name)
        if owner is None:
            return
        try:
            # the ring successors: the first one is the next owner
            standby_names = federation.naming.ring.preference(partition, self.count + 1)[1:]
        except FederationError:
            return
        with self._lock:
            group = previous = self._groups.get(partition)
            if group is None or (group.primary, group.standbys) != (owner_name, standby_names):
                group = ReplicaGroup(partition, owner_name, standby_names, previous)
                self._groups[partition] = group
        with group.log.lock:
            if previous is not None and previous is not group:
                self._drop_copies(previous, keep=group.standbys)
            try:
                snapshots = owner.snapshot(names)
            except (ReproError, OSError) as exc:
                with self._lock:
                    self.snapshot_failures += 1
                federation.observability.emit(
                    "snapshot_failure",
                    partition=partition,
                    owner=owner_name,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            group.epoch = federation.naming.epoch
            self._replicate(group, snapshots, full=True)

    def _drop_copies(self, group, keep=()) -> None:
        """Clear ``group``'s copies on the standbys that left it."""
        for name in group.standbys:
            node = self.federation.nodes.get(name)
            if name not in keep and node is not None:
                with contextlib.suppress(ReproError, OSError):
                    node.replay(group.partition, [], reset=True)

    def _replicate(self, group, snapshots, full) -> None:
        """Log each of ``snapshots`` newer than its servant's last entry,
        replay the log onto the standbys, then fold the tail if due."""
        nodes = self.federation.nodes
        log = group.log
        with log.lock:
            appended = 0
            for name, type_name, state, version in snapshots:
                if version > group.versions.get(name, 0):
                    group.versions[name] = version
                    log.append(name, type_name, state)
                    appended += 1
            if full:
                # a full append re-states every live binding, so base
                # entries for since-unbound names can be dropped
                log.prune({entry[0] for entry in snapshots})
            refreshed = 0
            for standby_name in group.standbys:
                standby = nodes.get(standby_name)
                if standby is not None:
                    refreshed += self._catch_up(group, standby_name, standby)
            # fold only after the catch-up: a standby that was current
            # stays at base_seq and never has to reseed from the snapshot
            folded = len(log.entries) >= self.snapshot_every
            if folded:
                log.snapshot()
        with self._lock:
            self.log_appends += appended
            self.snapshots += folded
            self.syncs += refreshed > 0

    def _catch_up(self, group, standby_name, standby) -> int:
        """Replay the log past ``standby_name``'s watermark onto it
        (the caller holds the log's lock).

        A fresh watermark, or one the fold overtook, reseeds: the node
        drops its copies and replays the base snapshot plus the tail.
        """
        log = group.log
        applied = group.watermarks[standby_name]
        lag = log.seq - applied
        if lag > self.max_replica_lag:
            with self._lock:
                self.max_replica_lag = max(self.max_replica_lag, lag)
        if lag <= 0:
            return 0
        base_seq = log.base_seq
        reset = applied == 0 or applied < base_seq
        if reset:
            entries = [
                (base_seq, name, type_name, state)
                for name, (type_name, state) in log.base.items()
            ] + log.entries
        else:
            # seqs are contiguous above base_seq: the unapplied tail is a slice
            entries = log.entries[applied - base_seq:]
        try:
            refreshed = standby.replay(group.partition, entries, reset)
        except (ReproError, OSError) as exc:
            with self._lock:
                self.replay_failures += 1
            self.federation.observability.emit(
                "replay_failure",
                partition=group.partition,
                standby=standby_name,
                error=f"{type(exc).__name__}: {exc}",
            )
            return 0
        group.watermarks[standby_name] = log.seq
        return refreshed

    @staticmethod
    def _apply_state(module, copies, name, type_name, state) -> int:
        copy = copies.get(name)
        if copy is None or type(copy).__name__ != type_name:
            cls = getattr(module, type_name, None)
            if cls is None:
                return 0
            copy = cls.__new__(cls)
            copies[name] = copy
        copy.__dict__.clear()
        copy.__dict__.update(state)
        return 1

    def take(self, partition: str, node_name: str) -> Dict[str, Any]:
        """The standby copies ``node_name`` holds for ``partition``,
        caught up to the log head first."""
        with self._lock:
            group = self._groups.get(partition)
        standby = self.federation.nodes.get(node_name)
        if group is None or standby is None or node_name not in group.standbys:
            return {}
        with group.log.lock:
            self._catch_up(group, node_name, standby)
        return dict(standby.standby_copies(partition))

    def promote(self, partition: str, node, names: Iterable[str]) -> List[str]:
        """Failover: ``node`` serves its standby copies of ``partition``
        as primaries under ``names``, after replaying any shipped but
        unapplied tail.  The partition's group is dropped; returns the
        names no copy existed for (their state is lost)."""
        with self._lock:
            group = self._groups.pop(partition, None)
        promoted = {}
        if group is not None and node.name in group.standbys:
            with group.log.lock:
                self._catch_up(group, node.name, node)
                promoted = node.promote(partition, names)
        return sorted(name for name in names if name not in promoted)

    def rebuild(self) -> None:
        """Re-place every group after a topology change and resync."""
        partitions = {
            ShardedNamingService.partition_key(name)
            for name in self.federation.naming.list()
        }
        with self._lock:
            stale = [self._groups.pop(p) for p in set(self._groups) - partitions]
        for group in stale:
            with group.log.lock:
                self._drop_copies(group)
        for partition in sorted(partitions):
            self.sync_partition(partition)

    def replica_lag(self) -> int:
        """Largest current watermark deficit across all standbys."""
        with self._lock:
            lag = 0
            for group in self._groups.values():
                for standby_name in group.standbys:
                    behind = group.log.seq - group.watermarks[standby_name]
                    if behind > lag:
                        lag = behind
            return lag

    def stats(self) -> Dict[str, Any]:
        lag = self.replica_lag()
        with self._lock:
            return {
                "standbys_per_partition": self.count,
                "partitions": len(self._groups),
                "syncs": self.syncs,
                "skipped_syncs": self.skipped_syncs,
                "log_appends": self.log_appends,
                "snapshots": self.snapshots,
                "replica_lag": lag,
                "max_replica_lag": self.max_replica_lag,
                "replay_failures": self.replay_failures,
                "snapshot_failures": self.snapshot_failures,
            }


class Federation:
    """Named nodes + sharded naming + routed, metered invocation."""

    #: transport modes a federation can route hops through
    TRANSPORT_MODES = ("inproc", "socket")

    def __init__(
        self,
        seed: int = 0,
        latency_ms: float = 0.5,
        real_latency_s: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        replicas: int = 64,
        delivery_workers: int = 2,
        transport: str = "inproc",
        socket_family: str = "tcp",
    ):
        if transport not in self.TRANSPORT_MODES:
            raise FederationError(
                f"unknown transport mode {transport!r} "
                f"(one of {', '.join(self.TRANSPORT_MODES)})"
            )
        if socket_family not in ("tcp", "unix"):
            raise FederationError(
                f"unknown socket family {socket_family!r} (tcp or unix)"
            )
        self.clock = SimClock()
        self.seed = seed
        self.faults = FaultInjector(seed)
        self.metrics = metrics or MetricsRegistry()
        #: tracing + event log + gauge sampling; knobs compiled from
        #: ObservabilitySpec, run-level tracing toggled by the harness
        self.observability = Observability(seed=seed)
        self.naming = ShardedNamingService(replicas)
        self.nodes: Dict[str, Node] = {}
        self.latency_ms = latency_ms
        self.real_latency_s = real_latency_s
        self._route_lock = named_lock("federation.route")
        #: requests routed per target node (transport-level statistic)
        self.routed: Dict[str, int] = {}  # guarded_by: _route_lock
        #: pipelined batches delivered per target node
        self.batches: Dict[str, int] = {}  # guarded_by: _route_lock
        #: how routed hops travel: "inproc" (a direct node call) or
        #: "socket" (every hop crosses a real wire connection to the
        #: node's listener)
        self.transport_mode = transport
        self.socket_family = socket_family
        #: per-node wire listeners and their endpoints (socket mode)
        self._wire_servers: Dict[str, Any] = {}
        self._endpoints: Dict[str, str] = {}
        self._unix_sock_dir: Optional[str] = None
        #: synchronous hop transport (caller-thread semantics; in socket
        #: mode delivery still runs inline — the wire wait is in the
        #: routing terminal, where the GIL is released)
        if transport == "socket":
            from repro.middleware.sockets import SocketTransport

            self._socket_transport = SocketTransport(
                self._endpoints.get, node="federation"
            )
            self.transport = self._socket_transport
        else:
            self.transport = InProcessTransport()
        #: asynchronous hop transport, created lazily on first use
        self.delivery_workers = delivery_workers
        self._async = LazyQueuedTransport(
            lambda: QueuedTransport(
                workers=self.delivery_workers, name="federation"
            )
        )
        #: the one ordered element pipeline every routed hop runs through
        metrics_element = self.metrics.element()
        self.chain = InterceptorChain()
        self.chain.add("metrics", metrics_element)
        self.chain.add("trace", self.observability.tracer.element())
        self.chain.add("faults", self.faults.interceptor("federation.route"))
        self.chain.add("failover", self._failover_element)
        self.chain.add("latency", self._latency_element)
        self.chain.add("routing", self._routing_element)
        #: the per-call reactions around each member of a pipelined
        #: batch; the batch envelope's own hop runs ``chain``
        self._member_chain = (
            InterceptorChain()
            .add("metrics", metrics_element)
            .add("failover", self._failover_element)
        )
        # -- elastic membership state --
        #: serializes join/retire/fail_over against each other
        self._topology_lock = named_rlock("federation.topology")
        #: quiesces in-flight envelopes on partitions under migration
        self._gate = _MigrationGate(observer=self.observability.gate_wait)
        #: per-node count of requests currently executing (kill drains it)
        self._flight_lock = named_rlock("federation.flight")
        self._flight_cond = named_condition("federation.flight", lock=self._flight_lock)
        self._node_flight: Dict[str, int] = {}  # guarded_by: _flight_cond
        #: threads draining a node; a finished hop notifies only if any
        self._flight_waiters = 0  # guarded_by: _flight_cond
        #: users/faults provisioned so far — replayed onto joining nodes
        self._provisioned_users: List[Tuple[str, str, tuple]] = []
        self._fault_sites: List[Tuple[str, float, dict]] = []
        #: read-only operation sets per servant type, replayed onto
        #: joining nodes; feeds the buses' per-call mutation flags that
        #: let replication skip read-only routed calls
        self.read_only_ops: Dict[str, frozenset] = {}
        #: (binding pattern, QoS) defaults declared by a deployment
        #: spec; consulted (in declaration order) for calls issued
        #: without an explicit per-call policy
        self._binding_qos: List[Tuple[str, QoS]] = []
        #: the spec's client default: the policy of a routed call that
        #: states none and matches no per-binding declaration
        self.client_qos: Optional[QoS] = None
        #: the DeploymentSpec this federation was compiled from and the
        #: BootstrapPlan that materialized it (set by
        #: DeploymentCompiler.deploy; None for hand-built federations)
        self.spec = None
        self.bootstrap_plan = None
        #: standby state for failover; None until enable_replication()
        self.replicas: Optional[ReplicaManager] = None
        #: optional ComponentPackage every node runs — scenarios that
        #: support live join stash it here so a joiner replays the exact
        #: artifact the seed nodes deployed
        self.app_package = None
        #: elastic statistics
        self.joins = 0
        self.retires = 0
        self.failovers = 0
        self.bindings_moved = 0
        self.last_rebalance: Dict[str, Any] = {}

    # -- topology ---------------------------------------------------------------

    def add_node(
        self,
        name: str,
        workers: int = 0,
        seed: Optional[int] = None,
        node: Optional[Node] = None,
    ) -> Node:
        if name in self.nodes:
            raise FederationError(f"node {name!r} already exists")
        node = self._new_node(name, workers, seed, node)
        self._register(node)
        return node

    def _new_node(
        self, name: str, workers: int, seed: Optional[int], node: Optional[Node]
    ) -> Node:
        """A member not yet routable: built (or adopted) and instrumented."""
        node = node or Node(
            name,
            workers=workers,
            seed=seed if seed is not None else len(self.nodes) + 1,
        )
        node.federation = self
        self._instrument_node(node)
        return node

    def _register(self, node: Node) -> None:
        """Make ``node`` routable — the one step :meth:`add_node` and
        :meth:`join` share.  The node entry and its wire listener come
        first, so a resolver that sees the new shard always finds both."""
        self.nodes[node.name] = node
        if self.transport_mode == "socket":
            self._start_wire_server(node)
        self.naming.add_shard(node.name, node.shard)

    def _instrument_node(self, node: Node) -> None:
        """Weave the bus-level tracing element into the node's chain."""
        chain = node.services.bus.chain
        if not chain.has("trace"):
            chain.add(
                "trace",
                self.observability.tracer.bus_element(node.name),
                before="faults",
            )

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise FederationError(f"unknown node {name!r}") from None

    def node_for(self, key: str) -> Node:
        """The node owning partition ``key`` (or any name below it)."""
        return self.node(self.naming.ring.owner(self.naming.partition_key(key)))

    def quiesce(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until every asynchronous delivery (oneways included) landed."""
        quiet = self._async.drain(timeout_s)
        for node in list(self.nodes.values()):
            quiet = node.drain(timeout_s) and quiet
        return quiet

    def shutdown(self) -> None:
        self._async.shutdown()
        for name in list(self._wire_servers):
            self._stop_wire_server(name)
        # nodes first: a worker node's polite stop still needs the wire
        for node in list(self.nodes.values()):
            node.shutdown()
        self.transport.shutdown()
        if self._unix_sock_dir is not None:
            import shutil

            shutil.rmtree(self._unix_sock_dir, ignore_errors=True)
            self._unix_sock_dir = None

    # -- elastic membership -------------------------------------------------------

    def enable_replication(
        self,
        count: int = 1,
        snapshot_every: int = 64,
    ) -> ReplicaManager:
        """Give every partition ``count`` standby copies (failover state),
        kept current by shipping the partition's op log;
        ``snapshot_every`` is the snapshot+truncate threshold (entries
        retained before the tail is folded into the base snapshot).
        """
        with self._topology_lock:
            if self.replicas is None:
                self.replicas = ReplicaManager(
                    self, count, snapshot_every=snapshot_every
                )
                self.observability.emit("replication_enabled", count=count)
                self.replicas.rebuild()
            elif self.replicas.count != count:
                raise FederationError(
                    f"replication already enabled with "
                    f"{self.replicas.count} standby(s)"
                )
            return self.replicas

    def set_replication(
        self,
        count: int,
        snapshot_every: Optional[int] = None,
    ) -> ReplicaManager:
        """Enable replication or *change* the standby count on a live
        federation (the reconciler's path: a spec diff may raise the
        replica count mid-run).  Re-places every group and resyncs, so
        the new standbys hold current state before the call returns.
        ``snapshot_every`` retunes the log truncation threshold in
        place."""
        with self._topology_lock:
            if self.replicas is None:
                return self.enable_replication(
                    count,
                    snapshot_every=(
                        snapshot_every if snapshot_every is not None else 64
                    ),
                )
            if count < 1:
                raise FederationError(
                    "replication cannot be disabled once enabled "
                    "(standby state would be dropped under live traffic)"
                )
            if snapshot_every is not None:
                if snapshot_every < 1:
                    raise FederationError(
                        f"snapshot_every must be >= 1, got {snapshot_every}"
                    )
                self.replicas.snapshot_every = snapshot_every
            self.replicas.count = count
            self.observability.emit("replication_changed", count=count)
            self.replicas.rebuild()
            return self.replicas

    # -- declarative deployment hooks ---------------------------------------------

    def mark_read_only(self, type_name: str, operations) -> None:
        """Set the read-only classification of servant type
        ``type_name`` federation-wide (remembered, so joining nodes are
        classified identically).  Routed calls whose whole dispatch
        touched only read-only operations skip the replication
        sync — the dispatch-layer mutation tracking the
        narrowing relies on lives in each node's bus.  Replace
        semantics: a reconcile that narrows a type's set (reclassifies
        an op as mutating) takes full effect."""
        ops = frozenset(operations)
        self.read_only_ops[type_name] = ops
        for node in self.nodes.values():
            node.mark_read_only(type_name, ops)

    def replace_binding_qos(
        self, pairs: Iterable[Tuple[str, QoS]], client: Optional[QoS] = None
    ) -> None:
        """Swap the whole QoS declaration in one step — the per-binding
        table and the client default (the compiler's and reconciler's
        path: a spec diff re-declares it rather than patching it, so
        removals take effect too)."""
        self._binding_qos = list(pairs)
        self.client_qos = client

    def qos_for(self, name: str) -> Optional[QoS]:
        """The declared default QoS for ``name`` (None if undeclared;
        fnmatch over the federation name, declaration order wins)."""
        for pattern, qos in self._binding_qos:
            if fnmatch.fnmatchcase(name, pattern):
                return qos
        return None

    def current_spec(self, include_state: bool = False):
        """Re-extract the live topology as a
        :class:`~repro.deploy.DeploymentSpec` — the drift-check input of
        ``DeploymentDiff.between(current, target)``.  ``include_state``
        additionally snapshots every servant's attribute dict (the
        manifest view; mutable state is excluded from structural diffs
        either way)."""
        from repro.deploy.compiler import extract_spec

        return extract_spec(self, include_state=include_state)

    @staticmethod
    def _group_by_partition(names: Iterable[str]) -> Dict[str, List[str]]:
        grouped: Dict[str, List[str]] = {}
        for name in names:
            grouped.setdefault(
                ShardedNamingService.partition_key(name), []
            ).append(name)
        return grouped

    def _bindings_by_partition(self) -> Dict[str, List[str]]:
        return self._group_by_partition(self.naming.list())

    def servant(self, name: str) -> Any:
        """The live servant currently serving ``name`` — follows
        migrations and failovers, unlike a reference captured at setup."""
        owner, ref = self.naming.resolve_with_owner(name)
        return self.node(owner).services.bus.servant(ref.object_id)

    def _export_shard(self, source: Node, partition: str, names: List[str]) -> ShardManifest:
        # snapshots are taken under each servant's dispatch lock: the
        # freeze drained routed calls, but a nested delivery that
        # bypassed the frozen wait could still be mutating a servant
        return ShardManifest(
            partition=partition,
            source=source.name,
            entries=[entry[:3] for entry in source.snapshot(sorted(names))],
        )

    def _import_shard(self, target: Node, manifest: ShardManifest) -> int:
        """Materialize a manifest's servants on ``target``; returns count."""
        if target.module is None:
            raise FederationError(
                f"node {target.name!r} has no application deployed; "
                f"cannot adopt shard {manifest.partition!r}"
            )
        for name, type_name, state in manifest.entries:
            cls = getattr(target.module, type_name, None)
            if cls is None:
                raise FederationError(
                    f"node {target.name!r} has no class {type_name!r}; "
                    f"cannot adopt {name!r}"
                )
            servant = cls.__new__(cls)
            servant.__dict__.update(state)
            ref = target.services.orb.register(servant)
            target.services.naming.rebind(name, ref)
        return len(manifest.entries)

    def _release_exported(self, source: Node, manifest: ShardManifest) -> None:
        """Drop the moved bindings (and servants) from the old owner."""
        services = source.services
        for name, _type_name, _state in manifest.entries:
            with contextlib.suppress(ReproError):
                ref = services.naming.resolve(name)
                services.naming.unbind(name)
                services.orb.unregister(services.bus.servant(ref.object_id))

    def join(
        self,
        name: str,
        workers: int = 0,
        seed: Optional[int] = None,
        node: Optional[Node] = None,
        deploy: Optional[Callable[[Node], Any]] = None,
        drain_timeout_s: float = 30.0,
    ) -> Node:
        """Add a node to a *live* federation, migrating only what rehashes.

        The joiner is fully prepared off-ring (application deployed via
        ``deploy``, users and fault campaign provisioned); the partitions
        the new ring assigns to it are frozen, their in-flight envelopes
        quiesce, servant state ships as :class:`ShardManifest`\\ s, and
        one atomic epoch swap makes the joiner routable — every other
        partition keeps its owner and never stalls.
        """
        with self._topology_lock:
            if name in self.nodes:
                raise FederationError(f"node {name!r} already exists")
            self.reconcile()
            node = self._new_node(name, workers, seed, node)
            if deploy is not None:
                deploy(node)
            for user, password, roles in self._provisioned_users:
                node.add_user(user, password, roles=roles)
            for site, probability, kwargs in self._fault_sites:
                node.configure_fault(site, probability, **kwargs)
            for type_name, ops in self.read_only_ops.items():
                node.mark_read_only(type_name, ops)
            grouped = self._bindings_by_partition()
            total = sum(len(names) for names in grouped.values())
            next_ring = self.naming.preview_ring(add=name)
            moving = {
                partition: names
                for partition, names in sorted(grouped.items())
                if next_ring.owner(partition) == name
            }
            moved = 0
            with self._gate.freeze(moving, timeout_s=drain_timeout_s):
                manifests = []
                for partition, names in moving.items():
                    source = self.node(self.naming.owner_of(partition))
                    manifests.append(
                        (source, self._export_shard(source, partition, names))
                    )
                for _source, manifest in manifests:
                    moved += self._import_shard(node, manifest)
                # the atomic ownership-epoch swap: the joiner becomes
                # routable only now, with its bindings already in place
                self._register(node)
                for source, manifest in manifests:
                    self._release_exported(source, manifest)
            self.joins += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "join",
                "node": name,
                "moved": moved,
                "total": total,
                "partitions": sorted(moving),
            }
            self.observability.emit(
                "join", node=name, moved=moved, partitions=sorted(moving)
            )
            if self.replicas is not None:
                self.replicas.rebuild()
            return node

    def retire(self, name: str, drain_timeout_s: float = 30.0) -> Dict[str, Any]:
        """Gracefully remove a node: migrate its shard, then drop it.

        Every partition the retiree owns is frozen, quiesced, shipped to
        its next ring owner, and released in one epoch swap; retiring the
        last node raises — a federation cannot route with an empty ring.
        """
        with self._topology_lock:
            node = self.nodes.get(name)
            if node is None:
                raise FederationError(f"unknown node {name!r}")
            if not node.alive:
                raise FederationError(
                    f"node {name!r} is dead — fail_over() handles crashed "
                    "nodes; retire() is the graceful path"
                )
            self.reconcile()
            survivors = self.naming.preview_ring(drop=name)
            if not survivors.members:
                raise FederationError(
                    f"cannot retire {name!r}: it is the last node"
                )
            grouped = self._group_by_partition(self.naming.shard(name).list())
            total = len(self.naming.list())
            moved = 0
            with self._gate.freeze(grouped, timeout_s=drain_timeout_s):
                for partition, pnames in sorted(grouped.items()):
                    target = self.node(survivors.owner(partition))
                    manifest = self._export_shard(node, partition, pnames)
                    moved += self._import_shard(target, manifest)
                # epoch swap: the retiree's shard vanishes atomically
                self.naming.remove_shard(name)
                node.alive = False
                del self.nodes[name]
            self._stop_wire_server(name)
            node.shutdown()
            self.retires += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "retire",
                "node": name,
                "moved": moved,
                "total": total,
                "partitions": sorted(grouped),
            }
            self.observability.emit(
                "retire", node=name, moved=moved, partitions=sorted(grouped)
            )
            if self.replicas is not None:
                self.replicas.rebuild()
            return dict(self.last_rebalance)

    def _await_node_idle(self, name: str, timeout_s: float) -> None:
        """Wait until no admitted request still executes on ``name``."""
        with self._flight_cond:
            self._flight_waiters += 1
            try:
                drained = self._flight_cond.wait_for(
                    lambda: self._node_flight.get(name, 0) == 0, timeout_s
                )
            finally:
                self._flight_waiters -= 1
            if not drained:
                raise FederationError(
                    f"node {name!r} did not drain within {timeout_s}s"
                )

    def kill(self, name: str, drain_timeout_s: float = 30.0) -> None:
        """Fail-stop a node: requests already executing finish (and
        replicate), new routed calls see :class:`NodeDownError`.  The
        node stays in the ring until the failover interceptor (or an
        explicit :meth:`fail_over`) promotes its standbys."""
        node = self.node(name)
        with self._flight_cond:
            if not node.alive:
                return
            node.alive = False
        self.observability.emit("kill", node=name)
        self._await_node_idle(name, drain_timeout_s)

    def fail_over(self, name: str, blocking: bool = True) -> bool:
        """Promote the standbys of a dead node's partitions.

        Idempotent: returns True if this call performed the promotion,
        False if the node was already gone (a racing caller won) or no
        replication is enabled (nothing to promote — callers keep seeing
        :class:`NodeDownError`, as a replica-less system would).

        ``blocking=False`` skips the promotion when a membership change
        holds the topology lock — the failover element uses it because
        its calling thread holds a migration-gate entry the membership
        change may be waiting on (blocking would invert the two waits);
        the caller's retry, or any later fault, promotes once the lock
        frees up.
        """
        if not self._topology_lock.acquire(blocking=blocking):
            return False
        try:
            node = self.nodes.get(name)
            if node is None:
                return False
            if node.alive:
                raise FederationError(
                    f"node {name!r} is alive — use retire() for a "
                    "graceful leave"
                )
            if self.replicas is None:
                return False
            survivors = self.naming.preview_ring(drop=name)
            if not survivors.members:
                raise FederationError(
                    f"cannot fail over {name!r}: it is the last node"
                )
            # requests admitted before the node died may still be
            # executing (kill's own drain can be racing on another
            # thread): their effects — and replication syncs — must
            # land before the standby copies are taken, or the promoted
            # state silently loses them
            self._await_node_idle(name, 30.0)
            grouped = self._group_by_partition(self.naming.shard(name).list())
            moved = 0
            lost: List[str] = []
            for partition, pnames in sorted(grouped.items()):
                new_owner = self.node(survivors.owner(partition))
                missing = self.replicas.promote(partition, new_owner, pnames)
                lost.extend(missing)
                moved += len(pnames) - len(missing)
            # epoch swap: ownership falls to the ring successors — the
            # nodes whose standby copies were just promoted
            self.naming.remove_shard(name)
            del self.nodes[name]
            self._stop_wire_server(name)
            node.shutdown()
            self.failovers += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "failover",
                "node": name,
                "moved": moved,
                "lost": lost,
                "partitions": sorted(grouped),
            }
            self.observability.emit(
                "failover",
                node=name,
                moved=moved,
                lost=len(lost),
                partitions=sorted(grouped),
            )
            self.replicas.rebuild()
            return True
        finally:
            self._topology_lock.release()

    def reconcile(self) -> List[str]:
        """Promote every dead member still in the ring; returns the
        nodes promoted.  Membership changes call this first so a
        migration never picks a dead node as a target owner."""
        with self._topology_lock:
            promoted = []
            for name in sorted(self.nodes):
                node = self.nodes.get(name)
                if node is not None and not node.alive and self.fail_over(name):
                    promoted.append(name)
            if promoted:
                self.observability.emit("reconcile", promoted=promoted)
            return promoted

    def _failover_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        """On a dead-node transport fault, promote the standbys; the
        re-raise lets the transport's QoS retry budget re-deliver the
        (pre-effect) call, which re-resolves onto the new primary.

        The promotion is attempted without blocking: this thread holds a
        migration-gate entry, and a concurrent join/retire holding the
        topology lock may be waiting for exactly that entry to drain —
        blocking here would stall both until the freeze timeout.

        Nothing is promoted while the node is still alive: a worker
        process can refuse a dial for a moment before its exit is
        observable, and a ``mid_call`` fault (socket mode: the reply
        vanished after the request frame was written) on a living node
        stays non-retryable — a lost reply must not re-run the effect.
        Once the node is confirmed dead or already removed, a mid-call
        fault is upgraded to pre-effect: under fail-stop its unacked
        effect died with it and re-delivery re-resolves onto the
        promoted owner."""
        try:
            return proceed()
        except NodeDownError as exc:
            self._node_down(exc)
            raise

    def _node_down(self, exc: NodeDownError) -> None:
        """The failover element's reaction to one dead-node fault."""
        node = self.nodes.get(exc.node)
        if not exc.node or (node is not None and node.alive):
            return
        if exc.pre_effect:
            self.fail_over(exc.node, blocking=False)
        elif exc.mid_call:
            with contextlib.suppress(FederationError):
                self.fail_over(exc.node, blocking=False)
            exc.pre_effect = True

    # -- users ------------------------------------------------------------------

    def add_user(self, name: str, password: str, roles=()) -> None:
        """Provision a user on every node's credential store (remembered
        so joining nodes are provisioned identically)."""
        self._provisioned_users.append((name, password, tuple(roles)))
        for node in self.nodes.values():
            node.add_user(name, password, roles=roles)

    # -- faults -------------------------------------------------------------------

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        """Configure a fault site (pattern allowed) federation-wide."""
        self._fault_sites.append((site, probability, dict(kwargs)))
        self.observability.emit("fault_armed", site=site, probability=probability)
        self.faults.configure(site, probability, **kwargs)
        for node in self.nodes.values():
            node.configure_fault(site, probability, **kwargs)

    def faults_injected(self) -> Dict[str, int]:
        """Injected-fault counters summed over the transport and all nodes."""
        totals: Dict[str, int] = dict(self.faults.injected)
        for node in self.nodes.values():
            for site, count in node.faults_injected().items():
                totals[site] = totals.get(site, 0) + count
        return totals

    # -- routing ------------------------------------------------------------------

    def resolve(self, name: str) -> Tuple[Node, ObjectRefData]:
        owner, ref = self.naming.resolve_with_owner(name)
        node = self.nodes.get(owner)
        if node is None:
            # the snapshot we resolved against was retired between the
            # lookup and the node-table read; one fresh snapshot heals it
            owner, ref = self.naming.resolve_with_owner(name)
            node = self.node(owner)
        return node, ref

    def ref(self, name: str) -> ObjectRefData:
        """The wire reference of a bound name (usable as a call argument
        for operations served by the same node)."""
        return self.resolve(name)[1]

    # -- chain elements -----------------------------------------------------------

    def _latency_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        """One transport hop: simulated clock time plus optional real sleep
        (the network I/O that concurrent delivery overlaps)."""
        self.clock.advance(self.latency_ms)
        if self.real_latency_s > 0:
            time.sleep(self.real_latency_s)
        return proceed()

    def _routing_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        with self._route_lock:
            self.routed[envelope.target] = self.routed.get(envelope.target, 0) + 1
        return proceed()

    # -- invocation path -----------------------------------------------------------

    @property
    def async_transport(self) -> QueuedTransport:
        return self._async.get()

    def _submission_transport(self):
        """Where an asynchronous submission delivers.

        From a thread that is itself serving a request (delivery thread
        or dispatcher pool worker), nested submissions run inline on the
        synchronous transport — queueing them behind the bounded pools
        the caller occupies could deadlock the federation, exactly like
        nested synchronous dispatch (the dispatcher's in-worker rule).
        """
        if in_serving_thread():
            return self.transport
        return self.async_transport

    def _admit(self, node: Node) -> None:
        """Atomic aliveness check + in-flight accounting for one hop;
        pair every successful call with :meth:`_release`.

        The check and the bump are one step under the flight lock, so
        :meth:`kill`'s drain cannot miss a request that slipped past the
        check — a dead node never executes another servant effect, and
        kill returns only after every admitted request (including its
        replication sync) finished."""
        with self._flight_lock:
            if not node.alive:
                raise NodeDownError(
                    f"node {node.name!r} is down", node=node.name
                )
            self._node_flight[node.name] = self._node_flight.get(node.name, 0) + 1

    def _release(self, node: Node) -> None:
        with self._flight_lock:
            self._node_flight[node.name] -= 1
            if not self._node_flight[node.name]:
                del self._node_flight[node.name]
                if self._flight_waiters:
                    self._flight_cond.notify_all()

    def _dispatch(
        self, node: Node, ref: ObjectRefData, envelope: Envelope, partition: str
    ):
        """The routing terminal — branches on the transport mode.

        In-process mode executes the node hop directly
        (:meth:`_local_dispatch`); socket mode sends the hop over a real
        wire connection to the owner node's listener.  For an in-process
        node that listener runs the *same* :meth:`_local_dispatch` — so
        the node guard, dispatcher serialization, and replication
        semantics are identical on both sides of the wire; a worker
        process replies with the states the call touched, which the
        front end logs (:meth:`ReplicaManager.sync_partition`).
        """
        if self.transport_mode == "socket":
            return self._wire_dispatch(node, ref, envelope, partition)
        return self._local_dispatch(node, ref, envelope.request, partition)

    def _local_dispatch(
        self, node: Node, ref: ObjectRefData, request: Request, partition: str
    ):
        """The node hop: dead-node classification + dispatch + replication.

        The replication of the call runs *inside* the node guard: a
        kill that drained to zero has therefore already captured every
        completed effect in the standby copies (or shipped it through
        the replication log) — there is no window where an effect exists
        only on the dying primary.

        Mutation narrowing: the sync is skipped when the node's bus saw
        no (possibly) mutating dispatch while this call executed — the
        call's own dispatch, and every nested delivery it made on the
        node, were all spec-declared read-only operations.  Otherwise
        the bus's per-delivery record names exactly which servants were
        touched, so only those are refreshed (per-servant dirty
        tracking).  A concurrent mutating call on the same node can only
        flip a skip into a sync or widen the touched set (the safe
        direction); a mutating call always observes its own bump, so its
        sync is never skipped."""
        self._admit(node)
        try:
            replicas = self.replicas
            before = node.services.bus.mutations if replicas is not None else 0
            value = node.invoke(
                ref, request.operation, request.args, request.kwargs, request.context
            )
            if replicas is not None:
                replicas.sync_partition(partition, node.touched_states(before))
            return value
        finally:
            self._release(node)

    # -- socket loopback mode -----------------------------------------------------

    @staticmethod
    def _proxy_ref(value: Any) -> Optional[ObjectRefData]:
        """Client-side marshalling hook: proxies travel as references."""
        if isinstance(value, RemoteProxy):
            return value.ref
        return None

    def _wire_dispatch(
        self, node: Node, ref: ObjectRefData, envelope: Envelope, partition: str
    ):
        """Send one routed hop over the wire to ``node``'s listener.

        The hop envelope carries the *same* correlation id, message id,
        QoS, binding, and attempt counter as the in-memory envelope the
        chain executed — a traced retry over sockets is recognizably the
        same logical call — but its request payload is re-marshalled
        into pure wire values (proxies become references).  Faults come
        back as FAULT frames and re-raise here with their retryability
        intact, so the failover element and the QoS budget behave
        exactly as they do in process.  The node reads its own reply
        (:meth:`Node.wire_reply`; a worker node also logs the states
        its reply carries to ``partition``'s replication log).
        """
        request = envelope.request
        hop = Envelope(
            request=Request(
                object_id=ref.object_id,
                operation=request.operation,
                args=marshal(list(request.args), self._proxy_ref, root="args"),
                kwargs=marshal(
                    dict(request.kwargs), self._proxy_ref, root="kwargs"
                ),
                context=dict(request.context),
                message_id=request.message_id,
            ),
            qos=envelope.qos,
            correlation_id=envelope.correlation_id,
            target=node.name,
            binding=envelope.binding,
            label=envelope.label,
            attempt=envelope.attempt,
        )
        return node.wire_reply(
            self.transport.roundtrip(node.name, hop), partition
        )

    def _serve_wire_request(self, node: Node, envelope: Envelope):
        """Server half of a wire hop: runs on the listener's connection
        thread, inside the node's own process space.

        Rebuilds the dispatch coordinates from the envelope (the client
        already re-resolved the owner for this attempt) and runs the
        ordinary local terminal — node guard, dispatcher, replication —
        then re-marshals the hydrated result for the return frame.
        """
        request = envelope.request
        ref = ObjectRefData(request.object_id, envelope.label.rsplit(".", 1)[0])
        result = self._local_dispatch(
            node, ref, request, ShardedNamingService.partition_key(envelope.binding)
        )
        return marshal(result, self._proxy_ref, root="result")

    def _start_wire_server(self, node: Node) -> None:
        """Bind a per-node listener and publish its endpoint (socket mode)."""
        from repro.middleware.sockets import WireServer

        if self.socket_family == "unix":
            endpoint = f"unix://{self._unix_dir()}/{node.name}.sock"
        else:
            endpoint = "tcp://127.0.0.1:0"
        server = WireServer(
            node=node.name,
            request_handler=partial(self._serve_wire_request, node),
            endpoint=endpoint,
        )
        server.start()
        self._wire_servers[node.name] = server
        self._endpoints[node.name] = server.endpoint

    def _stop_wire_server(self, name: str) -> None:
        """Tear down a removed node's listener; in-flight connections to
        it fail as mid-call :class:`NodeDownError` on the client side,
        which the failover element upgrades to pre-effect because the
        node is already out of the table."""
        endpoint = self._endpoints.pop(name, None)
        server = self._wire_servers.pop(name, None)
        if server is not None:
            server.stop()
        if endpoint is not None:
            self._socket_transport.pool.invalidate(endpoint)

    def _unix_dir(self) -> str:
        if self._unix_sock_dir is None:
            import tempfile

            self._unix_sock_dir = tempfile.mkdtemp(prefix="repro-fed-")
        return self._unix_sock_dir

    def _envelope(
        self,
        binding: str,
        operation: str,
        args: tuple,
        kwargs: Optional[dict],
        context,
        qos: QoS,
        resolve: bool = False,
        chain: Optional[InterceptorChain] = None,
    ) -> Tuple[Envelope, Callable[[Envelope], Any]]:
        """Build one routed hop: envelope + its chain-wrapped handler.

        The handler enters the migration gate and resolves ``binding``
        (the federation name the caller routed by) on *every* delivery
        attempt — so queued envelopes and QoS retries land on the
        current primary even if the shard migrated or failed over since
        submission — sets the envelope's target and label, runs
        ``chain`` (the federation chain by default) around the owner's
        dispatch and, on success, replicates the touched servants' state
        to the partition's standbys.  A synchronous caller therefore
        pays one ring lookup per attempt.  With ``resolve`` the name is
        also resolved here, at the call site (asynchronous, oneway and
        pipelined calls): an unbound name or a failed login then raises
        where the caller can see it, not later on a delivery thread
        where nobody may read the future.

        ``context`` may be a *provider* ``callable(node) -> dict`` (how
        :class:`FederationClient` attaches credentials): it is re-invoked
        per attempt against the resolved owner, because a security
        token minted by the old primary means nothing to the node that
        took over its shard.  A missing static context defaults to the
        current delivery context, so nested cross-node calls made by
        servants propagate transaction ids and credentials without
        manual plumbing.
        """
        if qos is DEFAULT_QOS:
            # spec-declared QoS defaults — the binding's, else the
            # client's: they apply only when the caller did not state a
            # policy (identity check — an explicit QoS() equal to the
            # default is still explicit)
            declared = self.qos_for(binding) or self.client_qos
            if declared is not None:
                qos = declared
        provider = context if callable(context) else None
        if provider is None and context is None:
            context = current_delivery_context() or None
        tracer = self.observability.tracer
        # captured on the caller's thread at build time: the active
        # span (a harness root span, or the bus span of the dispatch
        # this nested call was made from) becomes this hop's parent.
        # Inherited delivery contexts already carry the trace key.
        trace_headers = tracer.current_headers() if tracer.enabled else None
        request = Request(
            object_id=None,
            operation=operation,
            args=list(args),
            kwargs=dict(kwargs or {}),
        )
        envelope = Envelope(request=request, qos=qos, binding=binding)
        if resolve:
            node, ref = self.resolve(binding)
            envelope.target = node.name
            envelope.label = f"{ref.type_name}.{operation}"
            request.object_id = ref.object_id
            request.context = dict((provider(node) if provider else context) or {})
        if trace_headers is not None:
            request.context[TRACE_KEY] = trace_headers
        partition = ShardedNamingService.partition_key(binding)
        gate = self._gate
        execute = (chain or self.chain).execute

        def handler(env: Envelope):
            gate._enter(partition)
            try:
                owner, live_ref = self.resolve(binding)
                env.target = owner.name
                env.label = f"{live_ref.type_name}.{operation}"
                env.request.object_id = live_ref.object_id
                try:
                    attempt_context = dict(
                        (provider(owner) if provider else context) or {}
                    )
                except NodeDownError as exc:
                    # minting a token on a dead owner (a worker node's
                    # login round trip) fails before the chain runs: it
                    # gets the failover element's reaction, so the QoS
                    # budget's re-delivery lands on the promoted owner
                    self._node_down(exc)
                    raise
                if trace_headers is not None:
                    # the hop's parent travels on the envelope: the
                    # caller's span, a failed attempt's hop, or the
                    # batch hop that carries a pipelined member
                    attempt_context[TRACE_KEY] = env.request.context[TRACE_KEY]
                # the dispatch reads the *envelope's* context: chain
                # elements (tracing) re-stamp per-attempt keys into it
                env.request.context = attempt_context
                return execute(
                    env, partial(self._dispatch, owner, live_ref, env, partition)
                )
            finally:
                gate._exit(partition)

        return envelope, handler

    def invoke(
        self,
        name: str,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context=None,
        qos: QoS = DEFAULT_QOS,
    ):
        """Route one request to the owner of ``name`` and execute it,
        metered, on the caller's thread."""
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos
        )
        return self.transport.submit(envelope, handler).raw()

    def call(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ):
        """Invoke ``operation`` on the owner node of ``name``."""
        return self.invoke(name, operation, args, kwargs, context, qos)

    def call_async(
        self,
        name: str,
        operation: str,
        *args,
        context=None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ) -> ReplyFuture:
        """Route one request asynchronously; returns the reply future."""
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos, resolve=True
        )
        return self._submission_transport().submit(envelope, handler)

    def call_oneway(
        self,
        name: str,
        operation: str,
        *args,
        context=None,
        qos: QoS = ONEWAY_QOS,
        **kwargs,
    ) -> None:
        """Fire-and-forget delivery: at most one servant effect, no reply."""
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos, resolve=True
        )
        self._submission_transport().submit(envelope, handler)

    def pipeline(
        self,
        max_batch: int = 8,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
    ) -> "InvocationPipeline":
        """A batching client: consecutive same-node calls share one hop."""
        return InvocationPipeline(
            self,
            max_batch=max_batch,
            context=None if context is None else dict(context),
            qos=qos,
        )

    def _submit_batch(self, members: List[Tuple[Envelope, Callable]], qos: QoS) -> None:
        """One envelope for consecutive pipelined calls to one node.

        The batch envelope runs the federation chain once — fault check,
        hop latency, routing, and one trace span that lists the members.
        Its terminal then delivers each member, in program order, through
        the transport's QoS retry loop with the member's own routed
        handler (:meth:`_envelope`): gate, per-attempt owner resolve,
        admission, dispatch and replication, wrapped only in the
        per-call reactions (metrics, failover).  Members dispatch on the
        thread delivering the batch, as nested calls do — no pool
        handoff per member.  A fault on the batch envelope itself fails
        every member: none of them ran.
        """
        target = members[0][0].target
        request = Request(
            object_id="<pipeline>",
            operation="<batch>",
            args=[member.label for member, _handler in members],
            kwargs={},
        )
        tracer = self.observability.tracer
        if tracer.enabled:
            headers = tracer.current_headers()
            if headers is not None:
                request.context[TRACE_KEY] = headers
        envelope = Envelope(request=request, qos=qos, target=target)

        def terminal():
            with self._route_lock:
                self.batches[target] = self.batches.get(target, 0) + 1
            # the trace element re-stamped the batch hop into the context
            hop = request.context.get(TRACE_KEY)
            with inline_dispatch():
                for member, handler in members:
                    if hop is not None and TRACE_KEY in member.request.context:
                        member.request.context[TRACE_KEY] = hop
                    self.transport._deliver(member, handler, member.reply_to)
            return len(members)

        batch = self._submission_transport().submit(
            envelope, lambda env: self.chain.execute(env, terminal)
        )

        def fail_members(done: ReplyFuture) -> None:
            failure = done.exception()
            if failure is not None:
                for member, _handler in members:
                    member.reply_to._fail(failure)

        batch.add_done_callback(fail_members)

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats = {
            "nodes": [node.stats() for node in self.nodes.values()],
            "shards": self.naming.stats(),
            "epoch": self.naming.epoch,
            "routed": dict(sorted(self.routed.items())),
            "sim_transport_ms": self.clock.now(),
            "faults_injected": self.faults_injected(),
        }
        if self.batches:
            stats["batches"] = dict(sorted(self.batches.items()))
        if self.joins or self.retires or self.failovers:
            stats["elastic"] = {
                "joins": self.joins,
                "retires": self.retires,
                "failovers": self.failovers,
                "bindings_moved": self.bindings_moved,
                "last_rebalance": dict(self.last_rebalance),
            }
        if self.replicas is not None:
            stats["replication"] = self.replicas.stats()
        async_transport = self._async.peek()
        if async_transport is not None:
            stats["async_transport"] = async_transport.stats()
        if self.transport_mode == "socket":
            stats["transport"] = self.transport.stats()
        return stats


class InvocationPipeline:
    """Client-side batching of consecutive same-node calls.

    ``call`` builds an ordinary routed call — the same envelope and
    handler as :meth:`Federation.call_async`, its name resolved at the
    call site — and returns its future immediately; a flush (explicit,
    on leaving the ``with`` block, or automatic once ``max_batch`` calls
    are queued) groups *consecutive* calls to the same node and ships
    each group as one envelope — one fault-injection site check and one
    hop latency per group, so a latency-bound client pays transport cost
    per batch instead of per call.

    Ordering: the members of one batch execute one after another, in
    program order; across batches and flushes, deliveries may interleave
    freely, like independent network flows.  Callers with cross-batch
    ordering dependencies must await the earlier future (or use
    synchronous calls) before issuing the dependent call.

    Elastic behaviour: each member re-resolves its name per attempt and
    retries pre-effect faults under the pipeline's QoS, exactly as an
    asynchronous call does — a batch queued across a migration, or
    caught by a node kill with a retry budget, lands its members on the
    current owners.
    """

    def __init__(
        self,
        federation: Federation,
        max_batch: int = 8,
        context=None,
        qos: QoS = DEFAULT_QOS,
    ):
        if max_batch < 1:
            raise FederationError(f"pipeline batch must be >= 1, got {max_batch}")
        self.federation = federation
        self.max_batch = max_batch
        #: a static context dict, or a provider ``callable(node) -> dict``
        self.context = context
        self.qos = qos
        self._pending: List[Tuple[Envelope, Callable]] = []

    def call(self, name: str, operation: str, *args, **kwargs) -> ReplyFuture:
        envelope, handler = self.federation._envelope(
            name, operation, args, kwargs, self.context, self.qos,
            resolve=True, chain=self.federation._member_chain,
        )
        future = envelope.reply_to = ReplyFuture(envelope)
        self._pending.append((envelope, handler))
        if len(self._pending) >= self.max_batch:
            self.flush()
        return future

    def flush(self) -> None:
        """Ship every queued call, grouped by consecutive target node."""
        pending, self._pending = self._pending, []
        batch: List[Tuple[Envelope, Callable]] = []
        for member in pending:
            if batch and member[0].target != batch[0][0].target:
                self.federation._submit_batch(batch, self.qos)
                batch = []
            batch.append(member)
        if batch:
            self.federation._submit_batch(batch, self.qos)

    def __enter__(self) -> "InvocationPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()


class FederationClient:
    """A client identity: routed calls with per-node credentials.

    ``qos`` sets the client's default policy for synchronous and
    asynchronous calls (elastic scenarios hand every client a retry
    budget so failover re-delivery is automatic); per-call ``qos=``
    still overrides it.
    """

    def __init__(
        self,
        federation: Federation,
        user: Optional[str] = None,
        password: Optional[str] = None,
        qos: Optional[QoS] = None,
    ):
        self.federation = federation
        self.user = user
        self.password = password
        self.default_qos = qos or DEFAULT_QOS
        self._tokens: Dict[str, str] = {}

    def ref(self, name: str) -> ObjectRefData:
        return self.federation.ref(name)

    def _token_for(self, node: Node) -> str:
        token = self._tokens.get(node.name)
        if token is None:
            token = self._tokens[node.name] = node.login(self.user, self.password)
        return token

    def _context_for(self, node: Node) -> Optional[Dict[str, Any]]:
        if self.user is None:
            return None
        return {"credentials": self._token_for(node)}

    def call(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ):
        return self.federation.invoke(
            name, operation, args, kwargs, self._context_for, qos or self.default_qos
        )

    def call_async(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ) -> ReplyFuture:
        return self.federation.call_async(
            name, operation, *args,
            context=self._context_for, qos=qos or self.default_qos, **kwargs,
        )

    def oneway(
        self, name: str, operation: str, *args, qos: QoS = ONEWAY_QOS, **kwargs
    ) -> None:
        self.federation.call_oneway(
            name, operation, *args, context=self._context_for, qos=qos, **kwargs
        )

    def pipeline(self, max_batch: int = 8, qos: QoS = DEFAULT_QOS) -> InvocationPipeline:
        """A batching view of this client (credentials attached per node)."""
        return InvocationPipeline(
            self.federation, max_batch=max_batch, context=self._context_for, qos=qos
        )
