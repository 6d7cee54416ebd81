"""Socket transport: loopback federation wire mode + raw socket layer.

Every test runs the federation in ``transport="socket"`` mode: each
routed hop is marshalled, framed, sent over a real TCP (or unix-domain)
connection to the owner node's listener, dispatched there, and the
result (or fault) framed back — while the entire client-side
interceptor chain (metrics, tracing, fault injection, failover,
latency, routing) runs unmodified.  The oracle throughout is the
in-process federation: same calls, same results, same exception
shapes, same failover sequence.
"""

import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    FederationError,
    NodeDownError,
    ProtocolError,
    RemoteInvocationError,
    TransportError,
)
from repro.middleware.envelope import QoS, is_retryable
from repro.middleware.sockets import (
    ConnectionPool,
    SocketTransport,
    WireClient,
    WireServer,
    parse_endpoint,
)
from repro.middleware.wire import WireSession
from repro.runtime import Federation

RETRY = QoS(retries=3)


class Counter:
    def __init__(self, value=0.0):
        self.value = value

    def bump(self, amount):
        self.value += amount
        return self.value

    def read(self):
        return self.value

    def boom(self):
        raise ValueError("no")


MODULE = SimpleNamespace(Counter=Counter)


def build(transport="socket", nodes=3, partitions=6, replication=0, **kwargs):
    federation = Federation(latency_ms=0.0, transport=transport, **kwargs)
    for i in range(nodes):
        federation.add_node(f"node-{i}").host(None, MODULE)
    names = []
    for k in range(partitions):
        partition = f"part-{k}"
        node = federation.node_for(partition)
        name = f"{partition}/Counter/0"
        node.bind(name, Counter(100.0))
        names.append(name)
    if replication:
        federation.enable_replication(replication)
    return federation, names


def _envelope(target):
    from repro.middleware.bus import Request
    from repro.middleware.envelope import Envelope

    return Envelope(
        request=Request(
            object_id="obj-1", operation="op", args=[], kwargs={}, context={}
        ),
        target=target,
        label="T.op",
    )


class _ScriptedServer:
    """A raw listener speaking just enough wire protocol to misbehave.

    Completes the HELLO handshake, then runs
    ``script(conn, session, kind, payload)`` per conversation frame —
    returning True closes the connection (the mid-call disconnect).
    ``close_after_handshake`` drops each connection right after the
    handshake instead (the peer-closed-while-idle case).  Connections
    are served sequentially; the listener stays up until :meth:`close`.
    """

    def __init__(self, script, close_after_handshake=False):
        self._script = script
        self._close_after_handshake = close_after_handshake
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        host, port = self._listener.getsockname()
        self.endpoint = f"tcp://{host}:{port}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                self._converse(conn)
            except OSError:
                pass
            finally:
                conn.close()

    def _converse(self, conn):
        session = WireSession("server", node="scripted")
        while True:
            data = conn.recv(65536)
            if not data:
                return
            session.feed(data)
            greeting = session.take_outbound()
            if greeting:
                conn.sendall(greeting)
            if session.handshaken and self._close_after_handshake:
                return
            for kind, payload in session.events():
                if self._script(conn, session, kind, payload):
                    return

    def close(self):
        self._listener.close()


# ---------------------------------------------------------------------------
# endpoint parsing
# ---------------------------------------------------------------------------


def test_parse_endpoints():
    assert parse_endpoint("tcp://127.0.0.1:9307") == ("tcp", ("127.0.0.1", 9307))
    assert parse_endpoint("unix:///tmp/a.sock") == ("unix", "/tmp/a.sock")
    with pytest.raises(TransportError):
        parse_endpoint("http://example.com")


# ---------------------------------------------------------------------------
# the wire server/client layer, bare
# ---------------------------------------------------------------------------


class TestWireLayer:
    def test_request_response_over_tcp(self):
        from repro.middleware.bus import Request
        from repro.middleware.envelope import Envelope

        served = []

        def handler(envelope):
            served.append(envelope.request.operation)
            return envelope.request.args[0] * 2

        server = WireServer(node="w", request_handler=handler)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            request = Request(
                object_id="obj-1", operation="double", args=[21], kwargs={},
                context={},
            )
            envelope = Envelope(request=request, target="w", label="T.double")
            response = transport.roundtrip("w", envelope)
            assert response.result == 42
            assert served == ["double"]
            transport.shutdown()
        finally:
            server.stop()

    def test_unknown_node_is_node_down(self):
        transport = SocketTransport({}.get)
        from repro.middleware.bus import Request
        from repro.middleware.envelope import Envelope

        envelope = Envelope(
            request=Request(
                object_id="o", operation="x", args=[], kwargs={}, context={}
            ),
            target="ghost",
        )
        with pytest.raises(NodeDownError) as excinfo:
            transport.roundtrip("ghost", envelope)
        assert excinfo.value.node == "ghost"
        assert excinfo.value.pre_effect

    def test_reply_timeout_is_mid_call_and_not_retryable(self):
        """The review's core at-most-once scenario: a slow handler on a
        *living* node times the client out after the request was fully
        written — the effect may land, so the fault must not be
        pre-effect-retryable."""
        import time as time_module

        server = WireServer(
            node="w", request_handler=lambda env: time_module.sleep(1.2) or 1
        )
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get, timeout_s=0.3)
            with pytest.raises(NodeDownError) as excinfo:
                transport.roundtrip("w", _envelope("w"))
            assert excinfo.value.mid_call
            assert not excinfo.value.pre_effect
            assert not is_retryable(excinfo.value)
            transport.shutdown()
        finally:
            server.stop()

    def test_disconnect_after_request_sent_is_mid_call(self):
        """A connection dropped after the request frame was written is
        the ambiguous case: NodeDownError, but never blind-retried and
        not retryable until failover confirms the node died."""
        server = _ScriptedServer(lambda conn, session, kind, payload: True)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(NodeDownError) as excinfo:
                transport.roundtrip("w", _envelope("w"))
            assert excinfo.value.mid_call
            assert not excinfo.value.pre_effect
            assert not is_retryable(excinfo.value)
            transport.shutdown()
        finally:
            server.close()

    def test_mismatched_correlation_id_fails_loudly(self):
        from repro.middleware.bus import Response

        def misreply(conn, session, kind, payload):
            wrong = payload["correlation_id"] + 7
            conn.sendall(
                session.send_response(
                    wrong, Response(payload["request"]["message_id"], result=1)
                )
            )
            return False

        server = _ScriptedServer(misreply)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(ProtocolError, match="correlates to"):
                transport.roundtrip("w", _envelope("w"))
            transport.shutdown()
        finally:
            server.close()

    def test_control_failure_closes_the_checked_out_connection(self, monkeypatch):
        closed = []
        original = WireClient.close
        monkeypatch.setattr(
            WireClient, "close", lambda self: (closed.append(self), original(self))
        )
        server = _ScriptedServer(lambda conn, session, kind, payload: True)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(NodeDownError):
                transport.control("w", {"verb": "ping"})
            assert len(closed) == 1  # no socket leaked until GC
            transport.shutdown()
        finally:
            server.close()

    def test_pool_discards_connections_closed_while_idle(self):
        """The checkout probe: a pooled connection the peer closed is
        discarded before any request bytes are risked on it."""
        server = _ScriptedServer(script=None, close_after_handshake=True)
        try:
            pool = ConnectionPool(node="c")
            client, pooled = pool.checkout(server.endpoint)
            assert not pooled
            pool.checkin(client)
            time.sleep(0.2)  # let the server's close reach the socket
            fresh, pooled = pool.checkout(server.endpoint)
            assert not pooled and fresh is not client
            assert pool.dials == 2 and pool.reuses == 0
            fresh.close()
            pool.close()
        finally:
            server.close()

    def test_connection_pool_reuses_and_invalidates(self):
        server = WireServer(node="w", request_handler=lambda env: None)
        endpoint = server.start()
        try:
            pool = ConnectionPool(node="c")
            client, pooled = pool.checkout(endpoint)
            assert not pooled
            pool.checkin(client)
            again, pooled = pool.checkout(endpoint)
            assert pooled and again is client
            pool.checkin(again)
            pool.invalidate(endpoint)
            fresh, pooled = pool.checkout(endpoint)
            assert not pooled
            assert pool.dials == 2 and pool.reuses == 1
            fresh.close()
            pool.close()
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# federation loopback socket mode
# ---------------------------------------------------------------------------


class TestSocketFederation:
    def test_unknown_transport_mode_is_refused(self):
        with pytest.raises(FederationError, match="unknown transport mode"):
            Federation(transport="carrier-pigeon")

    def test_call_parity_with_inproc(self):
        """Same workload, both modes: identical results and routing."""
        results = {}
        for mode in ("inproc", "socket"):
            federation, names = build(transport=mode)
            try:
                values = [
                    federation.call(name, "bump", float(i))
                    for i, name in enumerate(names)
                ]
                values += [federation.call(name, "read") for name in names]
                results[mode] = (values, dict(federation.routed))
            finally:
                federation.shutdown()
        assert results["socket"] == results["inproc"]

    def test_exception_parity_with_inproc(self):
        """A servant raising a builtin degrades identically in both modes."""
        shapes = {}
        for mode in ("inproc", "socket"):
            federation, names = build(transport=mode, partitions=1)
            try:
                with pytest.raises(RemoteInvocationError) as excinfo:
                    federation.call(names[0], "boom")
                shapes[mode] = (
                    type(excinfo.value).__name__,
                    str(excinfo.value),
                    getattr(excinfo.value, "_remote_rebuilt", False),
                )
            finally:
                federation.shutdown()
        assert shapes["socket"] == shapes["inproc"]

    def test_oneway_acks_after_effect(self):
        federation, names = build()
        try:
            federation.call_oneway(names[0], "bump", 5.0)
            assert federation.quiesce(5.0)
            assert federation.call(names[0], "read") == 105.0
        finally:
            federation.shutdown()

    def test_async_calls_over_sockets(self):
        federation, names = build()
        try:
            futures = [
                federation.call_async(name, "bump", 1.0) for name in names
            ]
            assert [f.result(5000) for f in futures] == [101.0] * len(names)
        finally:
            federation.shutdown()

    def test_unix_domain_family(self):
        federation, names = build(socket_family="unix")
        try:
            assert federation.call(names[0], "bump", 1.0) == 101.0
            endpoint = federation._endpoints[federation.naming.owner_of(names[0])]
            assert endpoint.startswith("unix://")
        finally:
            federation.shutdown()

    def test_kill_mid_stream_fails_over_and_retries(self):
        """Dead node -> wire FAULT -> NodeDownError -> promotion -> retry."""
        federation, names = build(replication=1)
        try:
            name = names[0]
            federation.call(name, "bump", 11.0)
            owner = federation.naming.owner_of(name)
            federation.kill(owner)
            # retry budget re-delivers onto the promoted standby
            assert federation.call(name, "read", qos=RETRY) == 111.0
            assert federation.failovers >= 1
            new_owner = federation.naming.owner_of(name)
            assert new_owner != owner
            # wire stats observed actual connection churn
            stats = federation._socket_transport.stats()
            assert stats["roundtrips"] > 0
        finally:
            federation.shutdown()

    def test_no_retry_budget_surfaces_node_down(self):
        federation, names = build(replication=1)
        try:
            owner = federation.naming.owner_of(names[0])
            federation.kill(owner)
            with pytest.raises(NodeDownError):
                federation.call(names[0], "read")  # zero retries
        finally:
            federation.shutdown()

    def test_interceptor_chain_runs_on_socket_hops(self):
        """Metrics, fault injection, and routing all observe wire hops."""
        federation, names = build(partitions=4)
        try:
            federation.configure_fault("federation.route", 1.0)
            with pytest.raises(Exception):
                federation.call(names[0], "read")
            federation.configure_fault("federation.route", 0.0)
            for name in names:
                federation.call(name, "read")
            assert sum(federation.routed.values()) >= len(names)
            assert federation.faults_injected().get("federation.route", 0) >= 1
            snapshot = federation.metrics.snapshot()
            assert snapshot  # hop timings recorded client-side
        finally:
            federation.shutdown()

    def test_traced_hop_spans_carry_worker_node(self):
        """A traced cross-wire call shows hop spans with the serving node."""
        federation, names = build(partitions=2)
        try:
            federation.observability.tracer.enabled = True
            name = names[0]
            owner = federation.naming.owner_of(name)
            with federation.observability.tracer.client_span(
                "client.read", "trace-1"
            ):
                federation.call(name, "read")
            spans = federation.observability.tracer.export()["spans"]
            hop_spans = [s for s in spans if s["kind"] == "hop"]
            assert hop_spans, f"no hop spans in {spans!r}"
            assert any(s["target"] == owner for s in hop_spans)
            # the hop ran over a real connection, not in-process
            assert federation._socket_transport.stats()["roundtrips"] >= 1
        finally:
            federation.shutdown()

    def test_nested_cross_node_calls_over_sockets(self):
        """A servant calling another partition mid-dispatch crosses the
        wire again from inside the server-side dispatch thread."""
        federation, names = build(partitions=4)

        class Chainer:
            def __init__(self, federation, next_name):
                self._federation = federation
                self._next = next_name

            def __getstate__(self):  # keep replication off our back
                return {}

            def relay(self, amount):
                return self._federation.call(self._next, "bump", amount)

        try:
            # bind the chainer on whatever node owns its partition
            node = federation.node_for("chain")
            module = SimpleNamespace(Counter=Counter, Chainer=Chainer)
            for member in federation.nodes.values():
                member.host(None, module)
            node.bind("chain/Chainer/0", Chainer(federation, names[0]))
            assert federation.call("chain/Chainer/0", "relay", 2.5) == 102.5
            assert federation.call(names[0], "read") == 102.5
        finally:
            federation.shutdown()

    def test_joined_node_serves_over_its_own_listener(self):
        """A node joining a live socket-mode federation gets a listener,
        as a seed node does: the partitions it took over answer instead
        of raising NodeDownError (no wire endpoint)."""
        federation, names = build(nodes=2, partitions=16)
        try:
            federation.join("node-2", deploy=lambda node: node.host(None, MODULE))
            moved = [n for n in names if federation.naming.owner_of(n) == "node-2"]
            assert moved
            assert "node-2" in federation._endpoints
            for name in moved:
                assert federation.call(name, "bump", 1.0) == 101.0
        finally:
            federation.shutdown()

    def test_pipelined_members_each_cross_the_wire(self):
        """A pipelined batch shares one hop through the chain, but every
        member is a routed call: one wire round trip each."""
        federation, names = build()
        try:
            owners = [federation.naming.owner_of(name) for name in names]
            target = max(set(owners), key=owners.count)
            group = [n for n, owner in zip(names, owners) if owner == target]
            before = federation.stats()["transport"]["roundtrips"]
            with federation.pipeline(max_batch=len(group)) as pipe:
                futures = [pipe.call(name, "bump", 1.0) for name in group]
            assert [f.result(timeout_ms=5000) for f in futures] == [101.0] * len(group)
            stats = federation.stats()
            assert stats["transport"]["roundtrips"] == before + len(group)
            assert stats["batches"] == {target: 1}
        finally:
            federation.shutdown()

    def test_retired_node_endpoint_is_withdrawn(self):
        federation, names = build(partitions=6)
        try:
            victim = "node-2"
            assert victim in federation._endpoints
            federation.retire(victim)
            assert victim not in federation._endpoints
            # calls still succeed, re-routed to surviving listeners
            for name in names:
                federation.call(name, "read", qos=RETRY)
        finally:
            federation.shutdown()
