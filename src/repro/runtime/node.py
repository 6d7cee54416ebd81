"""One federation node: an ORB endpoint hosting a woven application.

A :class:`Node` owns a full, independent middleware service set
(:class:`~repro.core.runtime.MiddlewareServices`: bus, ORB, naming shard,
transaction manager, security services) plus a request dispatcher.  The
node's naming service doubles as its shard of the federation's sharded
naming service, so binding a servant locally *is* publishing it to the
federation.

Applications are deployed per node: each node replays the shipped
application package against its own services and builds its own woven
module, so the weaver instruments node-private classes and aspects close
over node-private services — exactly the deployment unit a real ORB
federation replicates onto every host.

The calls a federation makes on a node (provisioning, the wire reply,
snapshots, standby replay and promotion) are the node protocol a worker
process answers too (:class:`~repro.runtime.procfed.WorkerNode`).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.witness import named_lock
from repro.core.lifecycle import MdaLifecycle
from repro.core.runtime import MiddlewareServices
from repro.errors import DeploymentError, FederationError, NamingError, ReproError
from repro.middleware.bus import ObjectRefData
from repro.middleware.envelope import delivery_frames
from repro.runtime.dispatch import ConcurrentDispatcher, SerialDispatcher


class Node:
    """A named ORB endpoint with its own services, dispatcher, and app."""

    def __init__(
        self,
        name: str,
        services: Optional[MiddlewareServices] = None,
        workers: int = 0,
        seed: int = 0,
    ):
        self.name = name
        self.services = services or MiddlewareServices.create(seed=seed)
        #: construction parameters, kept so Federation.current_spec()
        #: can re-extract the live topology as a DeploymentSpec
        self.workers = workers
        self.seed = seed
        if workers > 0:
            self.dispatcher = ConcurrentDispatcher(workers=workers, name=name)
        else:
            self.dispatcher = SerialDispatcher()
        # every bus delivery — including nested in-process proxy calls
        # that bypass Node.invoke — serializes on the servant's lock
        self.services.bus.dispatch_guard = self.dispatcher.serialize
        #: False once the node is killed (fail-stop) or retired; the
        #: federation's routing terminal refuses dead targets with a
        #: pre-effect NodeDownError so standby promotion can take over
        self.alive = True
        #: set by Federation.add_node
        self.federation = None
        self.lifecycle: Optional[MdaLifecycle] = None
        self.module = None
        #: partition -> {binding name -> standby servant copy}: the
        #: replicas this node holds for partitions other nodes own
        self.standbys: Dict[str, Dict[str, Any]] = {}
        self._bind_lock = named_lock("node.bind")
        #: snapshot versions, drawn under the servant's dispatch lock
        self._versions = itertools.count(1)

    # -- application deployment ------------------------------------------------

    def host(self, lifecycle: Optional[MdaLifecycle], module) -> None:
        """Adopt an application built elsewhere (e.g. replayed packages)."""
        self.lifecycle = lifecycle
        self.module = module

    def install(self, package) -> None:
        """Replay a shipped ComponentPackage against this node's services.

        The package was verified against the vendor model when it was
        shipped, so the per-node replay skips the fingerprint re-check
        (pure cost at N nodes).
        """
        from repro.core import replay

        lifecycle = replay(package, services=self.services, verify=False)
        self.host(
            lifecycle,
            lifecycle.build_application(f"deploy_{self.name.replace('-', '_')}"),
        )

    # -- servants -------------------------------------------------------------

    def bind(self, name: str, servant: Any) -> ObjectRefData:
        """Register ``servant`` and bind it under the federation name.

        The name's partition must hash to this node's shard — entities
        live where their names live, so request routing and naming
        resolution always agree.
        """
        if self.federation is not None:
            owner = self.federation.naming.owner_of(name)
            if owner != self.name:
                raise NamingError(
                    f"name {name!r} belongs to shard {owner!r}, "
                    f"not to node {self.name!r}"
                )
        with self._bind_lock:
            ref = self.services.orb.register(servant)
            self.services.naming.rebind(name, ref)
        if self.federation is not None and self.federation.replicas is not None:
            # seed the standby copies immediately: a partition must be
            # recoverable even if it is killed before any routed call
            # ever replicated it
            self.federation.replicas.sync_partition(
                self.federation.naming.partition_key(name)
            )
        return ref

    def create(self, name: str, type_name: str, state: Dict[str, Any]) -> ObjectRefData:
        """Construct a ``type_name`` servant from ``state`` and bind it."""
        if self.module is None:
            raise DeploymentError(f"no application deployed on node {self.name!r}")
        cls = getattr(self.module, type_name, None)
        if cls is None:
            raise DeploymentError(
                f"application has no class {type_name!r} (servant {name!r})"
            )
        try:
            servant = cls(**state)
        except TypeError as exc:
            raise DeploymentError(
                f"servant {name!r}: state does not match "
                f"{type_name!r} constructor: {exc}"
            ) from exc
        return self.bind(name, servant)

    def snapshot(self, names: Iterable[str]) -> List[Tuple[str, str, Dict[str, Any], int]]:
        """``(name, type name, state, version)`` per bound name.

        Each attribute dict is copied under its servant's dispatch lock,
        so a concurrent call cannot tear it; unbound names drop out.  The
        version is drawn under that lock too, so of two snapshots of one
        servant the later one has the higher version — however late
        their replies reach the replication log.
        """
        naming, bus, versions = self.services.naming, self.services.bus, self._versions
        snapshots = []
        for name in names:
            try:
                ref = naming.resolve(name)
                servant = bus.servant(ref.object_id)
            except ReproError:
                continue
            version, state = self.dispatcher.serialize(
                ref.object_id, lambda s=servant: (next(versions), dict(s.__dict__))
            )
            snapshots.append((name, type(servant).__name__, state, version))
        return snapshots

    def touched_states(self, before: int):
        """:meth:`snapshot` of the bound servants mutated since bus
        mutation count ``before`` — what a routed call changed: ``[]``
        when its whole dispatch ran read-only operations, None when the
        bus's bounded record lost part of that window."""
        bus = self.services.bus
        if bus.mutations == before:
            return []
        touched = bus.touched_since(before)
        if touched is None:
            return None
        name_of = self.services.naming.name_of
        return self.snapshot(
            [name for name in map(name_of, touched) if name is not None]
        )

    # -- standby replicas -------------------------------------------------------

    def replay(self, partition: str, entries, reset: bool = False) -> int:
        """Apply replication-log entries ``(seq, name, type name, state)``
        to this node's standby copies of ``partition``; ``reset`` first
        drops every copy (a reseed from the log's base snapshot).
        Returns the number of copies refreshed."""
        if self.module is None:
            raise FederationError(
                f"node {self.name!r} has no application deployed; "
                f"cannot replay {partition!r}"
            )
        # the one state applier (imported here: federation imports node)
        from repro.runtime.federation import ReplicaManager

        copies = self.standbys.setdefault(partition, {})
        if reset:
            copies.clear()
        refreshed = 0
        for _seq, name, type_name, state in entries:
            refreshed += ReplicaManager._apply_state(
                self.module, copies, name, type_name, state
            )
        return refreshed

    def standby_copies(self, partition: str) -> Dict[str, Any]:
        return self.standbys.get(partition, {})

    def promote(self, partition: str, names: Iterable[str]) -> Dict[str, ObjectRefData]:
        """Serve this node's standby copies of ``partition`` as primaries
        under ``names``; returns the references of those it held."""
        copies = self.standbys.pop(partition, {})
        promoted = {}
        for name in sorted(names):
            copy = copies.get(name)
            if copy is not None:
                ref = promoted[name] = self.services.orb.register(copy)
                self.services.naming.rebind(name, ref)
        return promoted

    # -- provisioning -------------------------------------------------------------

    @property
    def shard(self):
        """This node's naming service: its shard of the federation's."""
        return self.services.naming

    def add_user(self, name: str, password: str, roles=()) -> None:
        self.services.credentials.add_user(name, password, roles=roles)

    def login(self, user: str, password: str) -> str:
        """A node-local credential token (tokens never roam)."""
        return self.services.auth.login(user, password).token

    def mark_read_only(self, type_name: str, operations) -> None:
        self.services.bus.mark_read_only(type_name, operations)

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        self.services.faults.configure(site, probability, **kwargs)

    def faults_injected(self) -> Dict[str, int]:
        return dict(self.services.faults.injected)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        return self.services.bus.drain(timeout_s)

    # -- request entry point -----------------------------------------------------

    def wire_reply(self, response, partition: str):
        """A wire hop's reply, client side: the hydrated result.

        The serving side already replicated the call's effect (it runs
        the federation's own dispatch terminal), so ``partition`` needs
        nothing here."""
        if response.is_error:
            self.services.bus.raise_remote(response)
        # hydrate through the owner's orb, as an in-process hop would
        return self.services.orb._from_wire(response.result)

    def invoke(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]] = None,
    ):
        """Execute a request against a local servant through the dispatcher.

        The caller-supplied ``context`` (credentials, transaction hints)
        is re-established on the executing thread before the ORB builds
        the request, so implicit context survives a pool handoff; it is
        also published as the thread's *delivery context*, so outbound
        calls the servant makes (cross-node nested dispatch) inherit it.
        """
        orb = self.services.orb

        def run():
            # the frames are pushed inline (this runs once per hop)
            deliveries = delivery_frames()
            deliveries.append(dict(context or {}))
            try:
                if not context:
                    return orb.invoke(ref, operation, args, kwargs)
                frames = orb.context_frames
                frames.append(dict(context))
                try:
                    return orb.invoke(ref, operation, args, kwargs)
                finally:
                    frames.pop()
            finally:
                deliveries.pop()

        return self.dispatcher.dispatch(ref.object_id, run)

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        self.dispatcher.shutdown()
        self.services.bus.shutdown()

    def stats(self) -> Dict[str, Any]:
        services = self.services
        return {
            "node": self.name,
            "dispatch": self.dispatcher.stats.snapshot(),
            "bus_messages": services.bus.messages_delivered,
            "bus_bytes": services.bus.bytes_transferred,
            "bus_errors": services.bus.errors_returned,
            "commits": services.transactions.commits,
            "aborts": services.transactions.aborts,
            "sim_time_ms": services.clock.now(),
            "bindings": len(services.naming.list()),
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = type(self.dispatcher).__name__
        state = "" if self.alive else " DOWN"
        return f"<Node {self.name} dispatcher={kind}{state}>"
