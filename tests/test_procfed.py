"""Multi-process federation: worker processes, wire deploys, failover.

These tests spawn real OS processes (``repro.cli node serve``) and
drive them through :class:`~repro.runtime.procfed.ProcessFederation`.
The oracle is the in-process federation: the same spec deploys, the
same calls return the same values, and killing a worker *process*
produces the same observable sequence killing an in-process node does —
pre-effect :class:`~repro.errors.NodeDownError`, standby promotion onto
the ring successor, and the QoS retry budget landing the call on the
new primary.
"""

import dataclasses
import subprocess
import sys

import pytest

from repro.deploy.spec import QoSProfile, ReplicationSpec
from repro.errors import NodeDownError
from repro.middleware.envelope import QoS
from repro.runtime.harness import RunConfig
from repro.runtime.procfed import ANNOUNCE_PREFIX, ProcessFederation, _worker_env
from repro.runtime.scenarios import get_scenario


def banking_spec(nodes=3, replication=1, retries=4):
    config = RunConfig(scenario="banking", nodes=nodes, clients=2, ops=10, seed=1)
    spec = get_scenario("banking").deployment_spec(config)
    return dataclasses.replace(
        spec,
        replication=ReplicationSpec(count=replication),
        qos_profiles=(
            QoSProfile(name="retry", retries=retries, timeout_ms=10000),
        ),
        client_qos="retry",
    )


@pytest.fixture(scope="module")
def fed():
    federation = ProcessFederation(banking_spec()).start()
    yield federation
    federation.shutdown()


@pytest.fixture(scope="module")
def client(fed):
    return fed.client("alice", "pw")


class TestProcessFederation:
    def test_workers_are_separate_processes(self, fed):
        pids = {
            fed.transport.control(name, {"verb": "ping"})["pid"]
            for name in fed.workers
        }
        import os

        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_deployed_application_serves_calls(self, fed, client):
        assert client.call("branch-0/Account/0", "getBalance") == 1000.0
        assert client.call("branch-0/Account/0", "deposit", 50) == 1050.0
        assert client.call("branch-0/Account/0", "withdraw", 25) == 1025.0

    def test_refs_cross_the_wire_and_hydrate_on_the_worker(self, fed, client):
        assert client.call(
            "branch-1/Bank/0",
            "transfer",
            client.ref("branch-1/Account/0"),
            client.ref("branch-1/Account/1"),
            100,
        )
        assert client.call("branch-1/Account/0", "getBalance") == 900.0
        assert client.call("branch-1/Account/1", "getBalance") == 1100.0

    def test_protected_op_requires_credentials(self, fed):
        from repro.errors import SecurityError

        anonymous = fed  # bare federation calls carry no credentials
        with pytest.raises(SecurityError):
            anonymous.call(
                "branch-2/Bank/0",
                "transfer",
                anonymous.ref("branch-2/Account/0"),
                anonymous.ref("branch-2/Account/1"),
                1,
            )

    def test_oneway_ack_means_effect_landed(self, fed, client):
        client.oneway("branch-2/Account/2", "deposit", 5)
        assert fed.quiesce(10.0)
        assert client.call("branch-2/Account/2", "getBalance") == 1005.0

    def test_async_replies(self, fed, client):
        future = client.call_async("branch-2/Account/3", "deposit", 7)
        assert future.result(10000) == 1007.0

    def test_worker_faults_cross_as_degraded_exceptions(self, fed, client):
        from repro.errors import RemoteInvocationError

        with pytest.raises(RemoteInvocationError, match="insufficient funds"):
            client.call("branch-0/Account/1", "withdraw", 10**9)

    def test_routing_and_transport_stats(self, fed, client):
        client.call("branch-0/Account/0", "getBalance")
        stats = fed.stats()
        assert sum(stats["routed"].values()) > 0
        assert stats["transport"]["roundtrips"] > 0
        worker = fed.worker_stats(sorted(fed.workers)[0])
        assert worker["wire"]["requests_served"] >= 0


class TestProcessFailover:
    def test_kill_process_mid_delivery_fails_over_and_retries(self):
        """The PR-4 oracle, cross-process: a pooled connection to a
        worker that was just SIGKILLed surfaces the disconnect as a
        pre-effect NodeDownError, the failover element promotes the
        partitions onto the ring successor (restoring the write-through
        snapshots over the wire), and the QoS retry budget lands the
        very same call on the new primary."""
        with ProcessFederation(banking_spec()) as fed:
            client = fed.client("alice", "pw")
            owner = fed.naming.owner_of("branch-0")
            assert client.call("branch-0/Account/0", "deposit", 111) == 1111.0
            fed.kill(owner)  # SIGKILL the OS process; endpoint stays
            # replicated state survives onto the promoted worker
            assert client.call("branch-0/Account/0", "getBalance") == 1111.0
            assert fed.failovers == 1
            new_owner = fed.naming.owner_of("branch-0")
            assert new_owner != owner
            assert owner not in fed.workers
            # effects keep applying on the new primary
            assert client.call("branch-0/Account/0", "deposit", 9) == 1120.0
            assert fed.stats()["transport"]["disconnects"] >= 1

    def test_kill_without_retry_budget_surfaces_node_down(self):
        with ProcessFederation(banking_spec()) as fed:
            owner = fed.naming.owner_of("branch-0")
            fed.call("branch-0/Account/0", "getBalance", qos=QoS(retries=2))
            fed.kill(owner)
            with pytest.raises(NodeDownError) as excinfo:
                fed.call("branch-0/Account/0", "getBalance", qos=QoS())
            assert excinfo.value.pre_effect


    def test_failed_write_through_sync_is_counted(self):
        """A write-through sync that cannot reach its owner worker must
        not fail the call that triggered it, but it is not swallowed
        either: the federation counts it and emits an event."""
        with ProcessFederation(banking_spec()) as fed:
            owner = fed.naming.owner_of("branch-0")
            assert fed.stats()["sync_failures"] == 0
            fed.kill(owner)
            fed._sync_partition("branch-0", owner)
            assert fed.stats()["sync_failures"] == 1
            event = fed.observability.events.last("sync_failure")
            assert event["partition"] == "branch-0"
            assert event["owner"] == owner


class TestNodeServeCli:
    def test_serve_announces_and_stops_over_the_wire(self):
        """The bare CLI surface: spawn, scan the announcement, ping,
        stop — no ProcessFederation involved."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", "solo", "--endpoint", "tcp://127.0.0.1:0",
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
        )
        try:
            line = process.stdout.readline().decode()
            prefix, name, endpoint = line.split()
            assert prefix == ANNOUNCE_PREFIX and name == "solo"
            from repro.middleware.sockets import SocketTransport

            transport = SocketTransport({"solo": endpoint}.get)
            assert transport.control("solo", {"verb": "ping"})["node"] == "solo"
            reply = transport.control("solo", {"verb": "stop"})
            assert reply["node"] == "solo"  # __stop__ is consumed server-side
            transport.shutdown()
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_undeployed_worker_refuses_binds(self):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", "bare", "--endpoint", "tcp://127.0.0.1:0",
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
        )
        try:
            endpoint = process.stdout.readline().decode().split()[2]
            from repro.errors import TransportError
            from repro.middleware.sockets import SocketTransport

            transport = SocketTransport({"bare": endpoint}.get)
            with pytest.raises(TransportError, match="no application deployed"):
                transport.control(
                    "bare",
                    {"verb": "bind", "name": "p/T/0", "type": "T", "state": {}},
                )
            transport.control("bare", {"verb": "stop"})
            transport.shutdown()
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
