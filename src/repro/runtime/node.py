"""One federation node: an ORB endpoint hosting a woven application.

A :class:`Node` owns a full, independent middleware service set
(:class:`~repro.core.runtime.MiddlewareServices`: bus, ORB, naming shard,
transaction manager, security services) plus a request dispatcher.  The
node's naming service doubles as its shard of the federation's sharded
naming service, so binding a servant locally *is* publishing it to the
federation.

Applications are deployed per node: each node refines its own copy of the
PIM through the configured concerns and builds its own woven module, so
the weaver instruments node-private classes and aspects close over
node-private services — exactly the deployment unit a real ORB federation
replicates onto every host.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.analysis.witness import named_lock
from repro.core.lifecycle import MdaLifecycle
from repro.core.runtime import MiddlewareServices
from repro.errors import NamingError
from repro.middleware.bus import ObjectRefData
from repro.middleware.envelope import delivery_frames
from repro.runtime.dispatch import ConcurrentDispatcher, SerialDispatcher

_module_counter = itertools.count(1)

ConcernPlan = Union[
    Mapping[str, Mapping[str, Any]], Iterable[Tuple[str, Mapping[str, Any]]]
]


def _concern_pairs(concerns: ConcernPlan):
    if isinstance(concerns, Mapping):
        return list(concerns.items())
    return list(concerns)


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
        self._bind_lock = named_lock("node.bind")

    # -- application deployment ------------------------------------------------

    def deploy(
        self,
        resource,
        concerns: ConcernPlan = (),
        module_name: Optional[str] = None,
    ):
        """Refine ``resource`` through ``concerns`` and build the woven app.

        Returns the generated module; the node keeps the lifecycle for
        introspection (``node.lifecycle``) and the module for instancing
        servants (``node.module``).
        """
        lifecycle = MdaLifecycle(resource, services=self.services)
        for concern, params in _concern_pairs(concerns):
            lifecycle.apply_concern(concern, **params)
        name = module_name or (
            f"{self.name.replace('-', '_')}_app_{next(_module_counter)}"
        )
        module = lifecycle.build_application(name)
        self.host(lifecycle, module)
        return module

    def host(self, lifecycle: Optional[MdaLifecycle], module) -> None:
        """Adopt an application built elsewhere (e.g. replayed packages)."""
        self.lifecycle = lifecycle
        self.module = module

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

    # -- request entry point -----------------------------------------------------

    def _runner(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]],
    ):
        """The executable unit both invocation styles dispatch.

        The caller-supplied ``context`` (credentials, transaction hints)
        is re-established on the executing thread before the ORB builds
        the request, so implicit context survives the thread hop; it is
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

        return run

    def invoke(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]] = None,
    ):
        """Execute a request against a local servant through the dispatcher."""
        return self.dispatcher.dispatch(
            ref.object_id, self._runner(ref, operation, args, kwargs, context)
        )

    def invoke_async(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]] = None,
    ):
        """Dispatch without blocking; returns a ``concurrent.futures.Future``.

        With a concurrent dispatcher the request lands in the node's
        pool (per-servant serialization still applies), so a pipelined
        batch overlaps the work of calls against different servants.
        """
        return self.dispatcher.submit(
            ref.object_id, self._runner(ref, operation, args, kwargs, context)
        )

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
