"""Socket IO for the sans-IO wire protocol: listeners, pools, transport.

Everything protocol-shaped lives in :mod:`repro.middleware.wire` (frame
codec, handshake, fault encoding); this module owns the sockets and the
threads:

* :class:`WireServer` — a listener (TCP or unix-domain) that runs one
  :class:`~repro.middleware.wire.WireSession` per accepted connection
  and hands decoded REQUEST/CONTROL frames to callbacks.
* :class:`WireClient` — one handshaken client connection with a
  blocking send-one-await-one conversation step.
* :class:`ConnectionPool` — per-endpoint reuse of idle client
  connections (dial on miss, bounded idle keep).
* :class:`SocketTransport` — the :class:`~repro.middleware.transport.Transport`
  implementation: delivery runs inline on the caller's thread (socket
  waits release the GIL, which is the whole point), the QoS retry
  budget is honoured by the shared delivery core, and socket-level
  failures surface as :class:`~repro.errors.NodeDownError` classified
  by *when* they struck.  A failure before the request frame was fully
  written (no endpoint, dial refused, send error) is pre-effect — the
  peer can never have dispatched a partial frame — and is safe for the
  failover element and the QoS budget to re-deliver.  A failure *after*
  the frame was written (disconnect or timeout while awaiting the
  reply) is ``mid_call``: the effect may have executed, so it is not
  retryable here; only the failover element upgrades it, after
  confirming the node actually died (fail-stop rollback makes the
  re-delivery pre-effect again).  Reconnection is therefore not a
  private loop here: a retryable envelope redials simply by being
  re-delivered under its own budget.

Endpoints are strings: ``tcp://127.0.0.1:9307`` or
``unix:///tmp/node-a.sock``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import select
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, Deque, Optional, Tuple

from repro.analysis.witness import named_lock
from repro.errors import NodeDownError, ProtocolError, TransportError
from repro.middleware.bus import Response
from repro.middleware.envelope import Envelope, ReplyFuture
from repro.middleware.transport import Handler, Transport, serving_request
from repro.middleware.wire import (
    CONTROL,
    CONTROL_OK,
    DEFAULT_MAX_FRAME,
    FAULT,
    ONEWAY_ACK,
    REQUEST,
    RESPONSE,
    WireSession,
    decode_fault,
)

_RECV_CHUNK = 64 * 1024

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


def parse_endpoint(endpoint: str) -> Tuple[str, Any]:
    """``tcp://host:port`` -> ("tcp", (host, port)); ``unix://path`` -> ("unix", path)."""
    if endpoint.startswith("tcp://"):
        rest = endpoint[len("tcp://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise TransportError(f"malformed tcp endpoint {endpoint!r}")
        return "tcp", (host or "127.0.0.1", int(port))
    if endpoint.startswith("unix://"):
        path = endpoint[len("unix://"):]
        if not path:
            raise TransportError(f"malformed unix endpoint {endpoint!r}")
        return "unix", path
    raise TransportError(
        f"unknown endpoint scheme {endpoint!r} (tcp:// or unix://)"
    )


def _dial(endpoint: str, timeout_s: float) -> socket.socket:
    family, address = parse_endpoint(endpoint)
    if family == "tcp":
        return socket.create_connection(address, timeout=timeout_s)
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
        raise TransportError("unix-domain sockets are unavailable here")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(address)
    return sock


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class WireServer:
    """A wire-protocol listener serving one node's envelopes.

    ``request_handler(envelope) -> wire value`` executes a decoded
    REQUEST and returns the (already marshalled) result; exceptions
    become FAULT frames with retryability classified sender-side.
    ``control_handler(payload) -> dict`` answers CONTROL frames (deploy,
    state transfer, shutdown); a reply containing ``"__stop__"`` closes
    the server after it is sent — how a management conversation ends a
    worker from the outside.
    """

    def __init__(
        self,
        node: str,
        request_handler: Callable[[Envelope], Any],
        control_handler: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        endpoint: str = "tcp://127.0.0.1:0",
        max_frame: int = DEFAULT_MAX_FRAME,
        backlog: int = 32,
    ):
        self.node = node
        self.request_handler = request_handler
        self.control_handler = control_handler
        self.max_frame = max_frame
        self._requested_endpoint = endpoint
        self._backlog = backlog
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self.endpoint: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Dict[int, socket.socket] = {}  # guarded_by: _lock
        self._conn_counter = 0  # guarded_by: _lock
        self._lock = named_lock("sockets.server")
        self._closed = False
        self._stopped = threading.Event()
        #: served-frame counters (observable in tests and stats)
        self.requests_served = 0  # guarded_by: _lock
        self.faults_returned = 0  # guarded_by: _lock
        self.protocol_errors = 0  # guarded_by: _lock
        self.oneway_failures = 0  # guarded_by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        """Bind, listen, and serve in the background; returns the endpoint."""
        family, address = parse_endpoint(self._requested_endpoint)
        if family == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            host, port = listener.getsockname()[:2]
            self.endpoint = f"tcp://{host}:{port}"
        else:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise TransportError("unix-domain sockets are unavailable here")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with contextlib.suppress(OSError):
                os.unlink(address)
            listener.bind(address)
            self._unix_path = address
            self.endpoint = f"unix://{address}"
        listener.listen(self._backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"wire-accept-{self.node}", daemon=True
        )
        self._accept_thread.start()
        return self.endpoint

    def stop(self) -> None:
        """Close the listener and every open connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections.values())
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        for conn in connections:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        self._stopped.set()

    @property
    def closed(self) -> bool:
        return self._closed

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until :meth:`stop` ran (a worker process's main loop)."""
        return self._stopped.wait(timeout_s)

    # -- serving -------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    with contextlib.suppress(OSError):
                        conn.close()
                    return
                self._conn_counter += 1
                conn_id = self._conn_counter
                self._connections[conn_id] = conn
            threading.Thread(
                target=self._serve_connection,
                args=(conn_id, conn),
                name=f"wire-serve-{self.node}-{conn_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, conn: socket.socket) -> None:
        session = WireSession("server", node=self.node, max_frame=self.max_frame)
        try:
            conn.settimeout(None)
            while True:
                try:
                    data = conn.recv(_RECV_CHUNK)
                except OSError:
                    return
                if not data:
                    return
                try:
                    session.feed(data)
                except ProtocolError:
                    # beyond resynchronization: drop the connection (the
                    # peer sees a disconnect, never a hung call)
                    with self._lock:
                        self.protocol_errors += 1
                    return
                greeting = session.take_outbound()
                if greeting:
                    conn.sendall(greeting)
                for kind, payload in session.events():
                    try:
                        stop = self._serve_frame(conn, session, kind, payload)
                    except OSError:
                        return  # client went away while we replied
                    if stop:
                        return
        finally:
            with self._lock:
                self._connections.pop(conn_id, None)
            with contextlib.suppress(OSError):
                conn.close()

    def _serve_frame(self, conn, session, kind: int, payload: Any) -> bool:
        """Serve one conversation frame; True ends the connection."""
        if kind == REQUEST:
            envelope = Envelope.from_wire(payload)
            if envelope.is_oneway:
                # at-most-once effect, no client-visible error; the ack
                # follows the effect so a drained caller (the harness's
                # quiesce) knows every acked oneway has fully landed, and
                # carries the handler's reply (a worker's touched states)
                result = None
                try:
                    with serving_request():
                        result = self.request_handler(envelope)
                except Exception as exc:  # noqa: BLE001 - oneway has no reply path
                    # nowhere to send a FAULT; count and log instead of
                    # discarding the only evidence the effect was lost
                    with self._lock:
                        self.oneway_failures += 1
                    _log.warning(
                        "oneway dispatch failed on %s: %s: %s",
                        self.node,
                        type(exc).__name__,
                        exc,
                    )
                with self._lock:
                    self.requests_served += 1
                conn.sendall(session.send_oneway_ack(envelope.correlation_id, result))
                return False
            try:
                with serving_request():
                    result = self.request_handler(envelope)
            except Exception as exc:  # noqa: BLE001 - crosses as FAULT frame
                with self._lock:
                    self.faults_returned += 1
                conn.sendall(session.send_fault(envelope.correlation_id, exc))
                return False
            response = Response(envelope.request.message_id, result=result)
            with self._lock:
                self.requests_served += 1
            conn.sendall(session.send_response(envelope.correlation_id, response))
            return False
        if kind == CONTROL:
            if self.control_handler is None:
                conn.sendall(
                    session.send_control_ok(
                        {"error": "node serves no control plane"}
                    )
                )
                return False
            try:
                reply = self.control_handler(dict(payload))
            except Exception as exc:  # noqa: BLE001 - crosses as error reply
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            stop = bool(reply.pop("__stop__", False))
            conn.sendall(session.send_control_ok(reply))
            if stop:
                self.stop()
            return stop
        # RESPONSE/FAULT/ACK frames are client-bound; receiving one here
        # is a peer bug, not recoverable on this connection
        with self._lock:
            self.protocol_errors += 1
        return True


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class WireClient:
    """One handshaken client connection (single caller at a time)."""

    def __init__(
        self,
        endpoint: str,
        node: str = "client",
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.endpoint = endpoint
        self._sock = _dial(endpoint, timeout_s)
        self._sock.settimeout(timeout_s)
        self.session = WireSession("client", node=node, max_frame=max_frame)
        self._sock.sendall(self.session.greeting())
        while not self.session.handshaken:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise TransportError(
                    f"peer at {endpoint} closed during handshake"
                )
            self.session.feed(data)
        #: the node name the server announced in its HELLO-OK
        self.peer = self.session.peer

    def send(self, frame: bytes) -> None:
        """Write one frame; raising means the frame was NOT fully written,
        so the peer can never decode (let alone dispatch) the request."""
        self._sock.sendall(frame)

    def await_reply(self) -> Tuple[int, Any]:
        """Block for the next conversation frame from the peer."""
        while True:
            events = self.session.events()
            if events:
                return events[0]
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise TransportError(f"peer at {self.endpoint} disconnected")
            self.session.feed(data)

    def roundtrip(self, frame: bytes) -> Tuple[int, Any]:
        """Send one frame and block for the next conversation frame."""
        self.send(frame)
        return self.await_reply()

    def stale(self) -> bool:
        """True when the *idle* socket is readable: the peer closed it
        (EOF/RST pending) or sent bytes outside any conversation —
        either way it cannot carry a fresh at-most-once request."""
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True
        return bool(readable)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.close()


class ConnectionPool:
    """Idle-connection reuse per endpoint (dial on miss)."""

    def __init__(
        self,
        node: str = "client",
        max_idle: int = 4,
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.node = node
        self.max_idle = max_idle
        self.timeout_s = timeout_s
        self.max_frame = max_frame
        self._idle: Dict[str, Deque[WireClient]] = {}  # guarded_by: _lock
        self._lock = named_lock("sockets.pool")
        self._closed = False
        #: pool statistics
        self.dials = 0
        self.reuses = 0

    def checkout(self, endpoint: str) -> Tuple[WireClient, bool]:
        """An idle or fresh connection; the flag says it was pooled.

        Idle entries are probed before reuse: a connection the peer
        closed while pooled is discarded here, *before* any request
        bytes are risked on it — the at-most-once contract never has to
        reason about a knowingly-dead socket."""
        discarded = []
        try:
            with self._lock:
                if self._closed:
                    raise TransportError("connection pool is shut down")
                queue = self._idle.get(endpoint)
                while queue:
                    client = queue.popleft()
                    if client.stale():
                        discarded.append(client)
                        continue
                    self.reuses += 1
                    return client, True
                self.dials += 1
        finally:
            for client in discarded:
                client.close()
        return (
            WireClient(
                endpoint,
                node=self.node,
                timeout_s=self.timeout_s,
                max_frame=self.max_frame,
            ),
            False,
        )

    def checkin(self, client: WireClient) -> None:
        with self._lock:
            if not self._closed:
                queue = self._idle.setdefault(client.endpoint, deque())
                if len(queue) < self.max_idle:
                    queue.append(client)
                    return
        client.close()

    def invalidate(self, endpoint: str) -> None:
        """Drop every idle connection to a (probably dead) endpoint."""
        with self._lock:
            stale = self._idle.pop(endpoint, deque())
        for client in stale:
            client.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            stale = [c for q in self._idle.values() for c in q]
            self._idle.clear()
        for client in stale:
            client.close()


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------


class SocketTransport(Transport):
    """Envelope delivery over pooled wire connections.

    ``submit`` delivers inline on the caller's thread — synchronous
    semantics, like :class:`~repro.middleware.transport.InProcessTransport`
    — through the shared retry core, so the envelope's QoS budget drives
    reconnection: a pre-effect failure (no endpoint, dial refused, the
    request frame rejected before it was fully written) raises
    :class:`~repro.errors.NodeDownError`, the failover element reacts,
    and the re-delivery dials whatever node the binding re-resolves to.
    A failure *after* the frame was written is the ambiguous mid-call
    case: it raises ``NodeDownError(pre_effect=False, mid_call=True)``
    and is never blind-retried here — the effect may already exist on
    the peer, so only the failover element (which can confirm the node
    is fail-stop dead and roll its state back to the standby snapshot)
    may make it retryable.

    The handler the routing layer passes in runs its interceptor chain
    client-side; the chain's terminal calls :meth:`roundtrip` to put the
    envelope on the wire.  The transport resolves node names to
    endpoints through the ``endpoints`` callable, so topology changes
    (failover promoting a different worker) need no transport surgery.
    """

    name = "socket"

    def __init__(
        self,
        endpoints: Callable[[str], Optional[str]],
        node: str = "client",
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_idle: int = 4,
    ):
        self.endpoints = endpoints
        self.pool = ConnectionPool(
            node=node, max_idle=max_idle, timeout_s=timeout_s, max_frame=max_frame
        )
        #: transport statistics
        self.roundtrips = 0  # guarded_by: _stats_lock
        self.disconnects = 0  # guarded_by: _stats_lock
        self._stats_lock = named_lock("sockets.stats")

    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        future = ReplyFuture(envelope)
        envelope.reply_to = future
        self._deliver(envelope, handler, future)
        return future

    # -- the wire hop --------------------------------------------------------

    def roundtrip(self, node: str, envelope: Envelope) -> Any:
        """Deliver ``envelope`` to ``node`` and return the wire result.

        Raises the decoded remote fault on FAULT frames.  Socket-level
        failures are classified by phase, because at-most-once hinges on
        it: a failure *before* the request frame was fully written (no
        endpoint, dial refused, send error — a partial frame can never
        decode, so no effect can exist) raises the pre-effect
        :class:`NodeDownError` the failover/retry path may re-deliver;
        a failure *after* the frame was written (disconnect or timeout
        while awaiting the reply) raises
        ``NodeDownError(pre_effect=False, mid_call=True)`` — the effect
        may have executed, so re-delivery is only safe once the failover
        element confirms the node is fail-stop dead.
        """
        endpoint = self.endpoints(node)
        if endpoint is None:
            raise NodeDownError(
                f"node {node!r} has no wire endpoint", node=node
            )
        try:
            client, pooled = self.pool.checkout(endpoint)
        except (OSError, TransportError) as exc:
            if isinstance(exc, NodeDownError):
                raise
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} unreachable at {endpoint}: {exc}", node=node
            ) from exc
        frame = client.session.send_request(envelope)
        try:
            client.send(frame)
        except (OSError, TransportError) as exc:
            client.close()
            self._disconnected(endpoint)
            if pooled:
                # the checkout probe can race the peer's close: a pooled
                # connection that rejected the *send* never delivered a
                # complete frame, so one blind fresh dial is effect-free
                return self._retry_fresh(node, endpoint, envelope, exc)
            raise NodeDownError(
                f"node {node!r} rejected the request at {endpoint}: {exc}",
                node=node,
            ) from exc
        return self._await_and_conclude(node, endpoint, envelope, client)

    def _retry_fresh(self, node, endpoint, envelope, cause) -> Any:
        """One fresh dial after a pooled connection refused the *send*.

        Only reachable pre-effect: the stale socket never accepted a
        complete request frame, so re-sending on a new connection cannot
        duplicate anything.  Failures here are classified exactly like a
        first attempt's."""
        try:
            client = WireClient(
                endpoint,
                node=self.pool.node,
                timeout_s=self.pool.timeout_s,
                max_frame=self.pool.max_frame,
            )
        except (OSError, TransportError) as exc:
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} unreachable at {endpoint}: {exc}", node=node
            ) from exc
        try:
            client.send(client.session.send_request(envelope))
        except (OSError, TransportError) as exc:
            client.close()
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} rejected the request at {endpoint}: {exc}",
                node=node,
            ) from exc
        return self._await_and_conclude(node, endpoint, envelope, client)

    def _await_and_conclude(
        self, node: str, endpoint: str, envelope: Envelope, client: WireClient
    ) -> Any:
        """The post-send half of a hop: any failure past this point is
        mid-call — the request frame is on the wire and the effect may
        run (or already have run) on the peer."""
        try:
            kind, payload = client.await_reply()
        except (OSError, TransportError) as exc:
            client.close()
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} gave no reply mid-call: {exc}",
                node=node,
                pre_effect=False,
                mid_call=True,
            ) from exc
        return self._conclude(node, envelope, client, kind, payload)

    def _conclude(
        self,
        node: str,
        envelope: Envelope,
        client: WireClient,
        kind: int,
        payload: Any,
    ):
        with self._stats_lock:
            self.roundtrips += 1
        if kind not in (RESPONSE, FAULT, ONEWAY_ACK):
            client.close()
            raise ProtocolError(
                f"expected a response frame from {node!r}, got kind {kind}"
            )
        got = payload.get("correlation_id") if isinstance(payload, dict) else None
        if got != envelope.correlation_id:
            # a stray or reordered frame must fail loudly, never be
            # paired with the wrong call; the connection is beyond trust
            client.close()
            raise ProtocolError(
                f"reply from {node!r} correlates to {got!r}, expected "
                f"{envelope.correlation_id}"
            )
        self.pool.checkin(client)
        if kind == FAULT:
            raise decode_fault(payload.get("fault", {}))
        if kind == ONEWAY_ACK:
            return Response(envelope.request.message_id, result=payload.get("result"))
        return Response.from_wire(payload["response"])

    def control(self, node: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One management round trip (deploy, state transfer, shutdown)."""
        endpoint = self.endpoints(node)
        if endpoint is None:
            raise NodeDownError(f"node {node!r} has no wire endpoint", node=node)
        try:
            client, _pooled = self.pool.checkout(endpoint)
        except (OSError, TransportError) as exc:
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} unreachable at {endpoint}: {exc}", node=node
            ) from exc
        try:
            kind, reply = client.roundtrip(client.session.send_control(payload))
        except (OSError, TransportError) as exc:
            client.close()
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} unreachable at {endpoint}: {exc}", node=node
            ) from exc
        if kind != CONTROL_OK:
            client.close()
            raise ProtocolError(
                f"expected a control reply from {node!r}, got kind {kind}"
            )
        self.pool.checkin(client)
        if "error" in reply:
            raise TransportError(
                f"control request to {node!r} failed: {reply['error']}"
            )
        return dict(reply)

    def _disconnected(self, endpoint: str) -> None:
        with self._stats_lock:
            self.disconnects += 1
        self.pool.invalidate(endpoint)

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return {
                "roundtrips": self.roundtrips,
                "disconnects": self.disconnects,
                "dials": self.pool.dials,
                "reuses": self.pool.reuses,
            }

    def shutdown(self) -> None:
        self.pool.close()
