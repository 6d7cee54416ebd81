"""Multi-process federation: worker node hosts + a wire-routing front-end.

This is the deployment shape the socket transport exists for: every
federation member is its *own operating-system process*, serving its
shard behind a :class:`~repro.middleware.sockets.WireServer`, and the
front-end routes envelopes to workers over real connections — true
parallel dispatch, one GIL per node.

Two halves, meeting only at the wire protocol:

* :func:`serve_node` — the worker process body (``repro.cli node
  serve``).  It starts empty: one :class:`~repro.runtime.node.Node`
  plus a listener.  Everything else arrives over CONTROL frames —
  the application ships as a serialized
  :class:`~repro.core.shipping.ComponentPackage` and is *replayed*
  against the worker's own services (the same ship-once/replay-per-node
  discipline in-process deployments use), servants bind from state
  dicts, snapshots stream back out for replication.  The worker never
  imports the deployment spec: partition placement is entirely the
  front-end's concern.

* :class:`ProcessFederation` — compiles an unchanged
  :class:`~repro.deploy.DeploymentSpec` (``transport: "socket"`` or
  not — the spec needs no edits), spawns one worker per
  :class:`~repro.deploy.spec.NodeSpec`, ships the package, binds
  servants on their ring owners, and then serves ``call`` /
  ``call_async`` / ``call_oneway`` through the *same interceptor
  chain shape the in-process federation runs* — metrics, tracing,
  fault injection, failover promotion, simulated latency, routing
  counters — terminating in a
  :class:`~repro.middleware.sockets.SocketTransport` round trip.

Failover works exactly like the in-process federation's, with the
standby state held front-end-side: every mutating call write-through
snapshots its partition out of the owner worker (a CONTROL round
trip), and when a worker process dies mid-call the pre-effect
:class:`~repro.errors.NodeDownError` trips the failover element, the
partitions promote onto the ring successor (their snapshots restored
over CONTROL ``bind``), and the QoS retry budget re-delivers the call
to the new owner.  Killing a *process* and killing a :class:`Node`
in-process are therefore the same observable event.

Known limits (by design, documented in docs/TRANSPORTS.md): worker-side
fault sites and pipelined batches are in-process-federation features;
the front-end injects faults client-side only and has no batch path.
"""

from __future__ import annotations

import contextlib
import fnmatch
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.witness import named_lock, named_rlock
from repro.errors import (
    DeploymentError,
    FederationError,
    NamingError,
    NodeDownError,
    ReproError,
)
from repro.middleware.bus import ObjectRefData, Request, marshal
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    DEFAULT_QOS,
    ONEWAY_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
)
from repro.middleware.faults import FaultInjector
from repro.middleware.naming import NamingService
from repro.middleware.sockets import SocketTransport, WireServer
from repro.middleware.transport import LazyQueuedTransport, QueuedTransport
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.node import Node
from repro.runtime.observability import TRACE_KEY, Observability


# ---------------------------------------------------------------------------
# worker process body
# ---------------------------------------------------------------------------

#: stdout announcement prefix the spawner scans for
ANNOUNCE_PREFIX = "REPRO-NODE"


def _wire_ref(node: Node):
    """Marshalling hook for worker results: registered servants (and
    proxies to them) leave the process as :class:`ObjectRefData`."""
    from repro.middleware.rpc import RemoteProxy

    def ref_of(value):
        if isinstance(value, RemoteProxy):
            return value.ref
        found = node.services.orb.ref_of(value)
        if found is not None:
            return ObjectRefData(found.object_id, found.type_name)
        return None

    return ref_of


class NodeHost:
    """One worker's serving state: the node, its listener, its controls."""

    def __init__(
        self,
        name: str,
        workers: int = 0,
        seed: int = 0,
        endpoint: str = "tcp://127.0.0.1:0",
    ):
        self.node = Node(name, workers=workers, seed=seed)
        self._ref_of = _wire_ref(self.node)
        self.server = WireServer(
            node=name,
            request_handler=self._serve_request,
            control_handler=self._serve_control,
            endpoint=endpoint,
        )

    # -- requests ------------------------------------------------------------

    def _serve_request(self, envelope: Envelope) -> Any:
        """Dispatch one wire REQUEST against the local shard.

        The hop label carries the servant type (``Type.operation``), so
        the wire reference can be rebuilt without a naming lookup —
        the front-end already resolved the binding.  Arguments are wire
        values; the ORB hydrates embedded references against this
        worker's own registry during dispatch.
        """
        request = envelope.request
        type_name = (envelope.label or ".").rsplit(".", 1)[0]
        ref = ObjectRefData(request.object_id, type_name)
        result = self.node.invoke(
            ref,
            request.operation,
            tuple(request.args),
            dict(request.kwargs),
            dict(request.context),
        )
        return marshal(result, self._ref_of, root="result")

    # -- controls ------------------------------------------------------------

    def _serve_control(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        verb = payload.get("verb")
        handler = getattr(self, f"_control_{verb}", None)
        if handler is None:
            return {"error": f"unknown control verb {verb!r}"}
        try:
            return handler(payload)
        except ReproError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _control_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"node": self.node.name, "pid": os.getpid()}

    def _control_deploy(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Replay a shipped ComponentPackage against this worker's own
        services and adopt the built application module."""
        from repro.core import replay
        from repro.core.shipping import ComponentPackage

        package = ComponentPackage.from_json(payload["package"])
        lifecycle = replay(package, services=self.node.services, verify=False)
        module = lifecycle.build_application(
            f"worker_{self.node.name.replace('-', '_')}"
        )
        self.node.host(lifecycle, module)
        for type_name, ops in payload.get("read_only", {}).items():
            self.node.services.bus.mark_read_only(type_name, frozenset(ops))
        return {"node": self.node.name, "application": module.__name__}

    def _control_bind(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Materialize one servant and bind it under its federation name.

        ``restore`` selects the construction path: False runs the
        constructor on the spec state (initial deployment); True
        bypasses it and installs a snapshot attribute dict verbatim
        (failover promotion — the same semantics
        ``ReplicaManager._apply_state`` uses in-process).
        """
        if self.node.module is None:
            return {"error": "no application deployed on this worker yet"}
        type_name = payload["type"]
        cls = getattr(self.node.module, type_name, None)
        if cls is None:
            return {"error": f"application has no class {type_name!r}"}
        state = dict(payload.get("state", {}))
        if payload.get("restore"):
            servant = cls.__new__(cls)
            servant.__dict__.update(state)
        else:
            try:
                servant = cls(**state)
            except TypeError as exc:
                return {"error": f"state does not match constructor: {exc}"}
        ref = self.node.bind(payload["name"], servant)
        return {"object_id": ref.object_id, "type": ref.type_name}

    def _control_snapshot(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Servant state snapshots for the named bindings, each taken
        under its servant's dispatch lock so no snapshot is torn by a
        concurrent call (the replication manager's discipline)."""
        states: Dict[str, Dict[str, Any]] = {}
        for name in payload.get("names", ()):
            try:
                ref = self.node.services.naming.resolve(name)
                servant = self.node.services.bus.servant(ref.object_id)
            except ReproError:
                continue
            state = self.node.dispatcher.serialize(
                ref.object_id, lambda s=servant: dict(s.__dict__)
            )
            states[name] = {"type": type(servant).__name__, "state": state}
        return {"node": self.node.name, "states": states}

    def _control_add_user(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.node.services.credentials.add_user(
            payload["name"],
            payload["password"],
            roles=tuple(payload.get("roles", ())),
        )
        return {"node": self.node.name, "user": payload["name"]}

    def _control_login(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Mint a node-local credential token (tokens never roam: a
        token minted by one worker means nothing to another, exactly
        like the in-process per-node login discipline)."""
        credential = self.node.services.auth.login(
            payload["user"], payload["password"]
        )
        return {"node": self.node.name, "token": credential.token}

    def _control_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        stats = self.node.stats()
        stats["wire"] = {
            "requests_served": self.server.requests_served,
            "faults_returned": self.server.faults_returned,
            "protocol_errors": self.server.protocol_errors,
        }
        return stats

    def _control_stop(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"__stop__": True, "node": self.node.name}


def serve_node(
    name: str,
    endpoint: str = "tcp://127.0.0.1:0",
    workers: int = 0,
    seed: int = 0,
    announce=None,
) -> int:
    """The ``repro.cli node serve`` body: host one worker until stopped.

    Prints ``REPRO-NODE <name> <endpoint>`` (flushed) once the listener
    is bound, which is how the spawning front-end learns the
    OS-assigned port, then blocks until a CONTROL ``stop`` arrives.
    """
    host = NodeHost(name, workers=workers, seed=seed, endpoint=endpoint)
    bound = host.server.start()
    stream = announce or sys.stdout
    print(f"{ANNOUNCE_PREFIX} {name} {bound}", file=stream, flush=True)
    try:
        host.server.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        host.server.stop()
    host.node.shutdown()
    return 0


# ---------------------------------------------------------------------------
# the front-end
# ---------------------------------------------------------------------------


@dataclass
class WorkerHandle:
    """One spawned worker process and what the front-end knows about it."""

    name: str
    process: subprocess.Popen
    endpoint: str
    stderr_path: str
    alive: bool = True

    def poll(self) -> Optional[int]:
        return self.process.poll()


def _worker_env() -> Dict[str, str]:
    """The child environment: this repro package importable, verbatim."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return env


class ProcessFederation:
    """A DeploymentSpec served by one OS process per node.

    The spec is the same declarative value the in-process compiler
    consumes — nothing in it is socket-specific.  ``start()`` compiles
    the application once (resolve PIM, apply concerns, ship), spawns
    the workers, replays the package into each over the wire, and binds
    every servant on its ring owner.  After that, :meth:`call` routes
    exactly like ``Federation.call``: resolve the binding, run the
    interceptor chain (metrics → trace → faults → failover → latency →
    routing), and deliver — here, over a pooled socket connection
    under the call's QoS retry budget.
    """

    def __init__(
        self,
        spec,
        registry=None,
        socket_family: str = "tcp",
        startup_timeout_s: float = 30.0,
    ):
        if socket_family not in ("tcp", "unix"):
            raise FederationError(
                f"unknown socket family {socket_family!r} (tcp or unix)"
            )
        spec.validate()
        self.spec = spec
        self.registry = registry
        self.socket_family = socket_family
        self.startup_timeout_s = startup_timeout_s
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.observability = Observability(seed=spec.seed)
        self.faults = FaultInjector(spec.seed)
        # the front-end's own sharded name space: one shard per worker,
        # the ring deciding partition placement exactly as in-process
        from repro.runtime.federation import ShardedNamingService

        self.naming = ShardedNamingService()
        self._shards: Dict[str, NamingService] = {}
        self.workers: Dict[str, WorkerHandle] = {}
        self._endpoints: Dict[str, str] = {}
        self.transport = SocketTransport(self._endpoints.get, node="procfed")
        self._async = LazyQueuedTransport(
            lambda: QueuedTransport(
                workers=spec.delivery_workers, name="procfed"
            )
        )
        #: the one ordered element pipeline every routed call runs
        #: through — the same shape (and order) as Federation.chain
        self.chain = InterceptorChain()
        self.chain.add("metrics", self.metrics.element())
        self.chain.add("trace", self.observability.tracer.element())
        self.chain.add("faults", self.faults.interceptor("federation.route"))
        self.chain.add("failover", self._failover_element)
        self.chain.add("latency", self._latency_element)
        self.chain.add("routing", self._routing_element)
        self.latency_ms = spec.sim_latency_ms
        self.real_latency_s = spec.real_latency_ms / 1000.0
        self._route_lock = named_lock("federation.route")
        self.routed: Dict[str, int] = {}  # guarded_by: _route_lock
        #: write-through syncs that could not reach the owner worker
        self.sync_failures = 0  # guarded_by: _route_lock
        self._topology_lock = named_rlock("federation.topology")
        #: binding name -> servant type (read-only classification key)
        self._bindings: Dict[str, str] = {}
        #: partition key -> binding names in it
        self._partitions: Dict[str, List[str]] = {}
        #: partition key -> {name: {"type", "state"}} standby snapshots
        #: (front-end-mediated write-through replication)
        self._standby: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._read_only = spec.read_only_by_type()
        self._binding_qos: List[Tuple[str, QoS]] = []
        self._client_qos = (
            spec.profile(spec.client_qos).to_qos()
            if spec.client_qos is not None
            else None
        )
        self._unix_dir: Optional[str] = None
        self._started = False
        self.failovers = 0
        self.app_package = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProcessFederation":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> "ProcessFederation":
        """Compile, spawn, deploy, bind — then the federation serves."""
        if self._started:
            return self
        from repro.core import MdaLifecycle, MiddlewareServices, ship
        from repro.deploy.compiler import DeploymentCompiler

        compiler = DeploymentCompiler(self.registry)
        bootstrap = compiler.compile(self.spec)
        vendor = MdaLifecycle(
            bootstrap.resource,
            registry=compiler.registry,
            services=MiddlewareServices.create(),
        )
        if self.spec.application.concerns:
            vendor.apply_plan(bootstrap.concern_plan)
        self.app_package = ship(vendor)
        package_json = self.app_package.to_json()
        read_only = {
            type_name: sorted(ops)
            for type_name, ops in self._read_only.items()
            if ops
        }
        try:
            for index, node_spec in enumerate(self.spec.nodes):
                self._spawn_worker(node_spec, index)
            for name in self.workers:
                self.transport.control(
                    name,
                    {
                        "verb": "deploy",
                        "package": package_json,
                        "read_only": read_only,
                    },
                )
            for partition in self.spec.partitions:
                names = self._partitions.setdefault(partition.key, [])
                owner = self.naming.owner_of(partition.key)
                for servant_spec in partition.servants:
                    self._bind(owner, servant_spec)
                    names.append(servant_spec.name)
            for _partition, servant_spec in self.spec.servants():
                if servant_spec.qos is not None:
                    self._binding_qos.append(
                        (
                            servant_spec.name,
                            self.spec.profile(servant_spec.qos).to_qos(),
                        )
                    )
            for user in self.spec.users:
                for name in self.workers:
                    self.transport.control(
                        name,
                        {
                            "verb": "add_user",
                            "name": user.name,
                            "password": user.password,
                            "roles": list(user.roles),
                        },
                    )
            for site in self.spec.faults.effective_sites():
                self.faults.configure(
                    site.site, site.probability
                )
            self.observability.configure(self.spec.observability)
            if self.spec.replication.count > 0:
                for partition in self._partitions:
                    self._sync_partition(partition)
        except BaseException:
            self.shutdown()
            raise
        self._started = True
        return self

    def _spawn_worker(self, node_spec, index: int) -> WorkerHandle:
        endpoint = "tcp://127.0.0.1:0"
        if self.socket_family == "unix":
            if self._unix_dir is None:
                self._unix_dir = tempfile.mkdtemp(prefix="repro-procfed-")
            endpoint = f"unix://{self._unix_dir}/{node_spec.name}.sock"
        seed = (
            node_spec.seed
            if node_spec.seed is not None
            else self.spec.seed * 31 + index
        )
        stderr_file = tempfile.NamedTemporaryFile(
            mode="wb", prefix=f"repro-worker-{node_spec.name}-",
            suffix=".log", delete=False,
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", node_spec.name,
                "--endpoint", endpoint,
                "--workers", str(node_spec.workers),
                "--seed", str(seed),
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=stderr_file,
        )
        stderr_file.close()
        try:
            bound = self._read_announcement(process, stderr_file.name)
        except BaseException:
            process.kill()
            process.wait()
            raise
        handle = WorkerHandle(
            name=node_spec.name,
            process=process,
            endpoint=bound,
            stderr_path=stderr_file.name,
        )
        self.workers[node_spec.name] = handle
        self._endpoints[node_spec.name] = bound
        shard = NamingService()
        self._shards[node_spec.name] = shard
        self.naming.add_shard(node_spec.name, shard)
        return handle

    def _read_announcement(self, process: subprocess.Popen, stderr_path: str) -> str:
        """Scan the worker's stdout for its bound-endpoint announcement."""
        deadline = time.monotonic() + self.startup_timeout_s
        stream = process.stdout
        buffer = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeploymentError(
                    "worker did not announce its endpoint within "
                    f"{self.startup_timeout_s:g}s"
                    + self._stderr_tail(stderr_path)
                )
            ready, _w, _x = select.select([stream], [], [], min(remaining, 0.5))
            if not ready:
                if process.poll() is not None:
                    raise DeploymentError(
                        f"worker exited with status {process.returncode} "
                        "before announcing its endpoint"
                        + self._stderr_tail(stderr_path)
                    )
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                raise DeploymentError(
                    "worker closed stdout before announcing its endpoint"
                    + self._stderr_tail(stderr_path)
                )
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                parts = line.decode("utf-8", "replace").split()
                if len(parts) == 3 and parts[0] == ANNOUNCE_PREFIX:
                    return parts[2]

    @staticmethod
    def _stderr_tail(path: str, limit: int = 2000) -> str:
        try:
            with open(path, "rb") as handle:
                tail = handle.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""
        return f"; worker stderr:\n{tail}" if tail.strip() else ""

    def _bind(self, owner: str, servant_spec, restore_state=None) -> None:
        payload = {
            "verb": "bind",
            "name": servant_spec.name,
            "type": servant_spec.type_name,
            "state": dict(
                restore_state if restore_state is not None
                else servant_spec.state
            ),
            "restore": restore_state is not None,
        }
        reply = self.transport.control(owner, payload)
        ref = ObjectRefData(reply["object_id"], reply["type"])
        self._shards[owner].rebind(servant_spec.name, ref)
        self._bindings[servant_spec.name] = servant_spec.type_name

    def shutdown(self) -> None:
        """Stop every worker (polite control first, then the OS)."""
        self._async.shutdown()
        for name, handle in list(self.workers.items()):
            if handle.alive and handle.poll() is None:
                with contextlib.suppress(ReproError, OSError):
                    self.transport.control(name, {"verb": "stop"})
        self.transport.shutdown()
        for handle in self.workers.values():
            if handle.poll() is None:
                handle.process.terminate()
            try:
                handle.process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                handle.process.kill()
                handle.process.wait()
            if handle.process.stdout is not None:
                handle.process.stdout.close()
            with contextlib.suppress(OSError):
                os.unlink(handle.stderr_path)
        if self._unix_dir is not None:
            shutil.rmtree(self._unix_dir, ignore_errors=True)
        self._started = False

    # -- fault tolerance ------------------------------------------------------

    def kill(self, name: str) -> None:
        """Hard-kill one worker process (fail-stop).

        The endpoint stays registered: in-flight and subsequent calls
        meet a dead socket and surface :class:`NodeDownError` — a
        refused dial is pre-effect outright, a mid-call disconnect is
        upgraded by the failover element once it confirms the process
        is dead — and drive failover + retry, the same observable
        sequence as killing an in-process node.
        """
        handle = self.workers.get(name)
        if handle is None:
            raise FederationError(f"unknown node {name!r}")
        handle.alive = False
        if handle.poll() is None:
            handle.process.kill()
            handle.process.wait()

    def fail_over(self, name: str) -> List[str]:
        """Promote the dead worker's partitions onto their ring successors.

        Standby snapshots (captured by write-through replication) are
        restored over CONTROL ``bind`` on each partition's new owner,
        names rebind, and the dead shard leaves the ring.  Idempotent —
        concurrent retries racing the same dead node promote once.
        """
        from repro.deploy.spec import ServantSpec

        with self._topology_lock:
            handle = self.workers.get(name)
            if handle is None:
                return []  # already failed over (or never existed)
            if handle.poll() is None and handle.alive:
                raise FederationError(
                    f"node {name!r} is still alive; kill it first"
                )
            del self.workers[name]
            endpoint = self._endpoints.pop(name, None)
            if endpoint is not None:
                self.transport.pool.invalidate(endpoint)
            owned = [
                partition
                for partition in self._partitions
                if self.naming.owner_of(partition) == name
            ]
            self.naming.remove_shard(name)
            self._shards.pop(name, None)
            promoted: List[str] = []
            for partition in owned:
                successor = self.naming.owner_of(partition)
                snapshots = self._standby.get(partition, {})
                for binding in self._partitions[partition]:
                    snap = snapshots.get(binding)
                    if snap is None:
                        continue  # never replicated — state is lost
                    spec = ServantSpec(name=binding, type_name=snap["type"])
                    self._bind(successor, spec, restore_state=snap["state"])
                    promoted.append(binding)
            self.failovers += 1
            return promoted

    def _sync_partition(self, partition: str, owner: Optional[str] = None) -> None:
        """Write-through: snapshot the partition out of its owner worker
        into the front-end's standby map.  Best-effort — it runs after
        the triggering call's effect and must never fail that call — but
        a failed sync is counted (``stats()["sync_failures"]``) and
        emitted as a ``sync_failure`` event: the standby copy is stale."""
        names = self._partitions.get(partition)
        if not names:
            return
        owner = owner or self.naming.owner_of(partition)
        try:
            reply = self.transport.control(
                owner, {"verb": "snapshot", "names": list(names)}
            )
        except (ReproError, OSError) as exc:
            with self._route_lock:
                self.sync_failures += 1
            self.observability.emit(
                "sync_failure",
                partition=partition,
                owner=owner,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        states = reply.get("states", {})
        if states:
            self._standby.setdefault(partition, {}).update(states)

    # -- chain elements -------------------------------------------------------

    def _failover_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        """Promote a dead worker's standbys; classify mid-call faults.

        A ``mid_call`` fault (reply lost after the request was written)
        is ambiguous at the transport: the effect may have executed.
        ``fail_over`` resolves it — it refuses while the worker process
        is alive (so a slow-or-flaky but living node never gets a
        duplicate delivery) and succeeds only once the worker is
        fail-stop dead, at which point any unacked effect died with the
        process and promotion restored the pre-call standby snapshot.
        Only then is the fault upgraded to pre-effect, letting the QoS
        budget land the very same call on the new primary."""
        try:
            return proceed()
        except NodeDownError as exc:
            if exc.node and (exc.pre_effect or exc.mid_call):
                try:
                    self.fail_over(exc.node)
                except FederationError:
                    pass  # worker still alive (or last node): no upgrade
                else:
                    exc.pre_effect = True
            raise

    def _latency_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        self.clock.advance(self.latency_ms)
        if self.real_latency_s > 0:
            time.sleep(self.real_latency_s)
        return proceed()

    def _routing_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        with self._route_lock:
            self.routed[envelope.target] = self.routed.get(envelope.target, 0) + 1
        return proceed()

    # -- invocation path ------------------------------------------------------

    def ref(self, name: str) -> ObjectRefData:
        """The wire reference of a bound name (usable as a call argument
        for operations served by the same worker — the worker's ORB
        hydrates it back into a proxy to its local servant)."""
        return self._resolve(name)[1]

    def qos_for(self, name: str) -> Optional[QoS]:
        for pattern, qos in self._binding_qos:
            if fnmatch.fnmatchcase(name, pattern):
                return qos
        return None

    def _resolve(self, binding: str) -> Tuple[str, ObjectRefData]:
        """Owner + wire ref for ``binding``, riding out failover windows.

        Between ``remove_shard`` and the promotion rebinds a resolve can
        transiently miss; a short bounded retry (not the QoS budget)
        absorbs it, mirroring the in-process migration gate's effect.
        """
        for _attempt in range(50):
            try:
                return self.naming.resolve_with_owner(binding)
            except NamingError:
                time.sleep(0.01)
        return self.naming.resolve_with_owner(binding)

    def _envelope(
        self,
        binding: str,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]],
        qos: QoS,
    ) -> Tuple[Envelope, Callable[[Envelope], Any]]:
        if qos is DEFAULT_QOS:
            declared = self.qos_for(binding)
            if declared is None:
                declared = self._client_qos
            if declared is not None:
                qos = declared
        type_name = self._bindings.get(binding)
        if type_name is None:
            # bound outside the spec (or promoted): resolve for the type
            type_name = self._resolve(binding)[1].type_name
        # ``context`` may be a provider ``callable(owner_name) -> dict``
        # (how ProcessClient attaches per-worker credential tokens): it
        # is re-invoked per attempt against the re-resolved owner
        if callable(context):
            context_for = lambda owner: dict(context(owner) or {})  # noqa: E731
        else:
            static_context = dict(context or {})
            context_for = lambda owner: dict(static_context)  # noqa: E731
        tracer = self.observability.tracer
        trace_headers = tracer.current_headers() if tracer.enabled else None
        request = Request(
            object_id="",
            operation=operation,
            args=marshal(list(args), root="args"),
            kwargs=marshal(dict(kwargs or {}), root="kwargs"),
            context={},
        )
        envelope = Envelope(
            request=request,
            qos=qos,
            label=f"{type_name}.{operation}",
            binding=binding,
        )
        from repro.runtime.federation import ShardedNamingService

        partition = ShardedNamingService.partition_key(binding)

        def handler(env: Envelope):
            owner, live_ref = self._resolve(binding)
            env.target = owner
            env.request.object_id = live_ref.object_id
            env.request.context = attempt_context = context_for(owner)
            if trace_headers is not None:
                attempt_context[TRACE_KEY] = trace_headers
            return self.chain.execute(
                env, lambda: self._wire_call(owner, partition, env)
            )

        return envelope, handler

    def _wire_call(self, owner: str, partition: str, envelope: Envelope):
        response = self.transport.roundtrip(owner, envelope)
        if envelope.is_oneway or response is None:
            self._after_effect(owner, partition, envelope)
            return None
        if response.is_error:
            from repro.middleware.bus import MessageBus

            MessageBus.raise_remote(response)
        self._after_effect(owner, partition, envelope)
        return response.result

    def _after_effect(self, owner: str, partition: str, envelope: Envelope) -> None:
        if self.spec.replication.count < 1:
            return
        type_name = self._bindings.get(envelope.binding or "")
        read_only = self._read_only.get(type_name or "", frozenset())
        if envelope.request.operation in read_only:
            return
        self._sync_partition(partition, owner)

    def call(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ):
        """Resolve ``name`` and invoke ``operation`` on its owner worker."""
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos
        )
        return self.transport.submit(envelope, handler).raw()

    def call_async(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ) -> ReplyFuture:
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos
        )
        return self._async.get().submit(envelope, handler)

    def call_oneway(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = ONEWAY_QOS,
        **kwargs,
    ) -> None:
        envelope, handler = self._envelope(
            name, operation, args, kwargs, context, qos
        )
        self._async.get().submit(envelope, handler)

    def quiesce(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until every asynchronous submission delivered.

        Oneways are acked only after their servant effect landed
        (execute-then-ack), so a drained queue means drained workers."""
        return self._async.drain(timeout_s)

    def client(
        self,
        user: Optional[str] = None,
        password: Optional[str] = None,
        qos: Optional[QoS] = None,
    ) -> "ProcessClient":
        return ProcessClient(self, user=user, password=password, qos=qos)

    # -- introspection --------------------------------------------------------

    def worker_stats(self, name: str) -> Dict[str, Any]:
        return self.transport.control(name, {"verb": "stats"})

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": sorted(self.workers),
            "routed": dict(self.routed),
            "failovers": self.failovers,
            "sync_failures": self.sync_failures,
            "transport": self.transport.stats(),
        }


class ProcessClient:
    """A client identity against a ProcessFederation: per-worker tokens.

    The multi-process mirror of ``FederationClient`` — tokens are
    node-local, so the client logs in over CONTROL against whichever
    worker a binding resolves to (re-minting after a failover promoted
    the shard to a worker it has never spoken to)."""

    def __init__(
        self,
        federation: ProcessFederation,
        user: Optional[str] = None,
        password: Optional[str] = None,
        qos: Optional[QoS] = None,
    ):
        self.federation = federation
        self.user = user
        self.password = password
        self.default_qos = qos or DEFAULT_QOS
        self._tokens: Dict[str, str] = {}  # guarded_by: _lock
        self._lock = named_lock("procfed.client")

    def ref(self, name: str) -> ObjectRefData:
        return self.federation.ref(name)

    def _token_for(self, owner: str) -> str:
        with self._lock:
            token = self._tokens.get(owner)
        if token is None:
            reply = self.federation.transport.control(
                owner,
                {"verb": "login", "user": self.user, "password": self.password},
            )
            token = reply["token"]
            with self._lock:
                self._tokens[owner] = token
        return token

    def _context_for(self, owner: str) -> Optional[Dict[str, Any]]:
        if self.user is None:
            return None
        return {"credentials": self._token_for(owner)}

    def call(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ):
        return self.federation.call(
            name, operation, *args,
            context=self._context_for, qos=qos or self.default_qos, **kwargs,
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
            name, operation, *args,
            context=self._context_for, qos=qos, **kwargs,
        )
