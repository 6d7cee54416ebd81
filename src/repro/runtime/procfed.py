"""Multi-process federation: worker processes as Federation nodes.

Every federation member is its *own operating-system process*, serving
its shard behind a :class:`~repro.middleware.sockets.WireServer`; the
front end routes envelopes to the workers over real connections — true
parallel dispatch, one GIL per node.  Three pieces meet only at the wire
protocol:

* :func:`serve_node` / :class:`NodeHost` — the worker process body
  (``repro.cli node serve``).  It starts empty: one
  :class:`~repro.runtime.node.Node` plus a listener.  Everything else
  arrives over CONTROL frames: the application ships as a serialized
  :class:`~repro.core.shipping.ComponentPackage` and is *replayed*
  against the worker's own services, servants bind from state dicts,
  standby copies replay the front end's replication log.  The worker
  never sees the deployment spec.
* :class:`WorkerNode` — a worker process as a member of
  ``Federation.nodes``: each call the federation, the deployment
  compiler or the replica manager makes on a node is one REQUEST or
  CONTROL round trip.
* :class:`ProcessFederation` — a socket-mode
  :class:`~repro.runtime.federation.Federation` plus the process
  lifecycle (spawn, announce, SIGKILL, worker stats, shutdown).  It
  deploys an unchanged :class:`~repro.deploy.DeploymentSpec` through the
  :class:`~repro.deploy.DeploymentCompiler`; calls, the interceptor
  chain, QoS, failover, clients and replication are the federation's.

Replication rides the one :class:`~repro.runtime.federation.ReplicationLog`:
a worker's reply to a mutating call carries the post-call states of the
servants it touched, the front end appends them to the partition log,
and catch-up replays the slice past each standby's watermark onto the
standby worker (CONTROL ``replay``).  When a worker process dies, the
pre-effect :class:`~repro.errors.NodeDownError` trips the failover
element, the ring successor promotes its own caught-up copies (CONTROL
``promote``), and the QoS retry budget re-delivers the call — killing a
*process* and killing an in-process :class:`Node` are the same
observable event.

Pipelined batches work as in process: each member is an ordinary
routed call and crosses the wire on its own round trip.

Known limits (docs/TRANSPORTS.md): worker-side fault sites and live
join/retire are in-process-federation features; the front end injects
faults client-side only.
"""

from __future__ import annotations

import contextlib
import os
import select
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DeploymentError, FederationError, ReproError
from repro.middleware.bus import MessageBus, ObjectRefData, marshal
from repro.middleware.envelope import Envelope
from repro.middleware.naming import NamingService
from repro.middleware.sockets import WireServer
from repro.runtime.federation import Federation, FederationClient
from repro.runtime.node import Node


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
        return node.services.orb.ref_of(value)

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
        worker's own registry during dispatch.  The reply is ``[result,
        states]``: the result plus the post-call states of the named
        servants the call mutated, for the front end's replication log
        (a oneway's ack carries it too).
        """
        request = envelope.request
        type_name = (envelope.label or ".").rsplit(".", 1)[0]
        ref = ObjectRefData(request.object_id, type_name)
        before = self.node.services.bus.mutations
        result = self.node.invoke(
            ref,
            request.operation,
            tuple(request.args),
            dict(request.kwargs),
            dict(request.context),
        )
        return [
            marshal(result, self._ref_of, root="result"),
            self.node.touched_states(before),
        ]

    # -- controls ------------------------------------------------------------

    #: the Node calls a worker serves as CONTROL verbs of the same name:
    #: keyword arguments in, ``{"result": value}`` out (what a
    #: WorkerNode forwards)
    NODE_VERBS = frozenset(
        {"snapshot", "replay", "promote", "add_user", "login", "mark_read_only"}
    )

    def _serve_control(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        verb = payload.pop("verb", None)
        try:
            if verb in self.NODE_VERBS:
                return {"result": getattr(self.node, verb)(**payload)}
            handler = getattr(self, f"_control_{verb}", None)
            if handler is None:
                return {"error": f"unknown control verb {verb!r}"}
            return handler(payload)
        except ReproError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _control_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"node": self.node.name, "pid": os.getpid()}

    def _control_deploy(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Replay a shipped ComponentPackage against this worker's own
        services and adopt the built application module."""
        from repro.core.shipping import ComponentPackage

        self.node.install(ComponentPackage.from_json(payload["package"]))
        return {"node": self.node.name, "application": self.node.module.__name__}

    def _control_bind(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Construct one servant from its spec state and bind it under
        its federation name."""
        ref = self.node.create(
            payload["name"], payload["type"], dict(payload.get("state", {}))
        )
        return {"object_id": ref.object_id, "type": ref.type_name}

    def _control_standby(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The states of this worker's standby copies of one partition."""
        copies = self.node.standby_copies(payload["partition"])
        return {
            "node": self.node.name,
            "states": {name: dict(copy.__dict__) for name, copy in copies.items()},
        }

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


class WorkerNode:
    """A worker process as a :class:`Federation` node.

    It answers the calls the federation, the deployment compiler and
    the replica manager make on a :class:`Node` — each one REQUEST or
    CONTROL round trip to the worker.  Its naming shard lives here in
    the front end and holds the wire references the worker returned
    when it bound (or promoted) each servant.
    """

    def __init__(
        self,
        name: str,
        process: subprocess.Popen,
        stderr_path: str,
    ):
        self.name = name
        self.process = process
        #: the listener the worker announced on stdout (set once read)
        self.endpoint: Optional[str] = None
        self.stderr_path = stderr_path
        #: set by Federation.add_node
        self.federation = None
        self.shard = NamingService()
        self._alive = True

    @property
    def alive(self) -> bool:
        """False once killed — or once the process exited on its own."""
        return self._alive and self.process.poll() is None

    @alive.setter
    def alive(self, value: bool) -> None:
        self._alive = value

    def _control(self, verb: str, **payload) -> Dict[str, Any]:
        payload["verb"] = verb
        return self.federation.transport.control(self.name, payload)

    def _call(self, verb: str, **kwargs):
        """Run the worker's own :class:`Node` method ``verb``."""
        return self._control(verb, **kwargs)["result"]

    # -- deployment ------------------------------------------------------------

    def install(self, package) -> None:
        self._control("deploy", package=package.to_json())

    def create(self, name: str, type_name: str, state: Dict[str, Any]) -> ObjectRefData:
        reply = self._control("bind", name=name, type=type_name, state=dict(state))
        ref = ObjectRefData(reply["object_id"], reply["type"])
        self.shard.rebind(name, ref)
        return ref

    def add_user(self, name: str, password: str, roles=()) -> None:
        self._call("add_user", name=name, password=password, roles=tuple(roles))

    def login(self, user: str, password: str) -> str:
        return self._call("login", user=user, password=password)

    def mark_read_only(self, type_name: str, operations) -> None:
        self._call("mark_read_only", type_name=type_name, operations=sorted(operations))

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        """Worker-side fault sites are not armed: the front end's chain
        injects the campaign client-side (a documented known limit)."""

    def faults_injected(self) -> Dict[str, int]:
        return {}

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Nothing to wait for: a worker acks a oneway only after its
        effect landed."""
        return True

    # -- the routed hop --------------------------------------------------------

    def wire_reply(self, response, partition: str):
        """The worker's reply, client side: log the states it carries to
        ``partition``'s replication log, return the wire result."""
        if response.is_error:
            MessageBus.raise_remote(response)
        # a oneway whose dispatch failed acks with no reply: sync it all
        value, states = response.result or (None, None)
        replicas = self.federation.replicas
        if replicas is not None:
            replicas.sync_partition(partition, states)
        return value

    # -- replication -------------------------------------------------------------

    def snapshot(self, names) -> List[Tuple[str, str, Dict[str, Any], int]]:
        return self._call("snapshot", names=list(names))

    def replay(self, partition: str, entries, reset: bool = False) -> int:
        return self._call(
            "replay", partition=partition, entries=list(entries), reset=reset
        )

    def standby_copies(self, partition: str) -> Dict[str, Any]:
        """The worker's standby copies, as attribute namespaces."""
        reply = self._control("standby", partition=partition)
        return {
            name: SimpleNamespace(**state) for name, state in reply["states"].items()
        }

    def promote(self, partition: str, names) -> Dict[str, ObjectRefData]:
        promoted = self._call("promote", partition=partition, names=sorted(names))
        for name, ref in promoted.items():
            self.shard.rebind(name, ref)
        return promoted

    # -- lifecycle ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        if not self.alive:
            return {"node": self.name, "alive": False}
        try:
            return self._control("stats")
        except (ReproError, OSError) as exc:
            return {"node": self.name, "error": f"{type(exc).__name__}: {exc}"}

    def shutdown(self) -> None:
        """Stop the worker (polite control first, then the OS) and reap it."""
        process = self.process
        if process.poll() is None:
            with contextlib.suppress(ReproError, OSError):
                self._control("stop")
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        with contextlib.suppress(OSError):
            os.unlink(self.stderr_path)


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


class ProcessFederation(Federation):
    """A DeploymentSpec served by one OS process per node.

    The spec is the same declarative value the in-process compiler
    consumes — nothing in it is socket-specific.  ``start()`` spawns the
    workers, registers each as a :class:`WorkerNode`, and deploys through
    the :class:`~repro.deploy.DeploymentCompiler` (the application is
    compiled once and replayed into each worker over the wire).  After
    that, every call is ``Federation``'s own: the interceptor chain,
    QoS, failover, clients and pipelines, with each hop crossing a
    pooled socket connection.  What this class adds is the process
    lifecycle: spawn, announce, SIGKILL, worker stats, shutdown.
    """

    def __init__(
        self,
        spec,
        registry=None,
        socket_family: str = "tcp",
        startup_timeout_s: float = 30.0,
    ):
        spec.validate()
        super().__init__(
            seed=spec.seed,
            latency_ms=spec.sim_latency_ms,
            real_latency_s=spec.real_latency_ms / 1000.0,
            delivery_workers=spec.delivery_workers,
            transport="socket",
            socket_family=socket_family,
        )
        self.spec = spec
        self.registry = registry
        self.startup_timeout_s = startup_timeout_s

    @property
    def workers(self) -> Dict[str, WorkerNode]:
        """The live worker nodes (a failed-over worker leaves)."""
        return self.nodes

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProcessFederation":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> "ProcessFederation":
        """Spawn, register and deploy — then the federation serves.

        Every worker is launched before any announcement is awaited, so
        the processes start up side by side."""
        if self.nodes:
            return self
        from repro.deploy.compiler import DeploymentCompiler

        compiler = DeploymentCompiler(self.registry)
        bootstrap = compiler.compile(self.spec)
        launched: List[WorkerNode] = []
        try:
            for index, node_spec in enumerate(self.spec.nodes):
                launched.append(
                    self._launch_worker(
                        node_spec, DeploymentCompiler.node_seed(self.spec, index)
                    )
                )
            for node in launched:
                node.endpoint = self._read_announcement(
                    node.process, node.stderr_path
                )
                self.add_node(node.name, node=node)
            compiler.populate(self, bootstrap)
        except BaseException:
            for node in launched:
                if node.name not in self.nodes:
                    node.process.kill()
                    node.process.wait()
                    node.shutdown()
            self.shutdown()
            raise
        return self

    def _launch_worker(self, node_spec, seed: int) -> WorkerNode:
        """Start one ``repro.cli node serve`` process (not yet announced)."""
        endpoint = "tcp://127.0.0.1:0"
        if self.socket_family == "unix":
            endpoint = f"unix://{self._unix_dir()}/{node_spec.name}.sock"
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
        return WorkerNode(node_spec.name, process, stderr_file.name)

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

    def _start_wire_server(self, node: WorkerNode) -> None:
        """A worker serves its own listener: publish its endpoint."""
        self._endpoints[node.name] = node.endpoint

    def _instrument_node(self, node: WorkerNode) -> None:
        """A worker's bus lives in its own process: nothing to weave."""

    # -- fault tolerance ------------------------------------------------------

    def kill(self, name: str, drain_timeout_s: float = 30.0) -> None:
        """Hard-kill one worker process (fail-stop, SIGKILL).

        The endpoint stays registered: subsequent calls meet a dead
        socket and surface :class:`NodeDownError` — a refused dial is
        pre-effect outright, a mid-call disconnect is upgraded by the
        failover element once the node is known dead — and drive
        failover + retry, the same observable sequence as killing an
        in-process node.
        """
        process = self.node(name).process
        super().kill(name, drain_timeout_s)
        if process.poll() is None:
            process.kill()
            process.wait()

    def _in_process_only(self, *args, **kwargs):
        raise FederationError(
            "live join/retire are in-process federation features: a "
            "worker federation's members are fixed at start()"
        )

    join = retire = _in_process_only

    # -- introspection --------------------------------------------------------

    def client(self, user: Optional[str] = None, password: Optional[str] = None, qos=None):
        return ProcessClient(self, user=user, password=password, qos=qos)

    def worker_stats(self, name: str) -> Dict[str, Any]:
        return self.transport.control(name, {"verb": "stats"})


class ProcessClient(FederationClient):
    """A client identity against a ProcessFederation: a
    :class:`FederationClient` whose per-node tokens are minted by each
    worker over CONTROL ``login``."""

    # in this class's own namespace, so an entry-point tracer that wraps
    # ``ProcessClient.call`` times worker-federation calls separately
    call = FederationClient.call
