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
import random
import subprocess
import sys
import threading
import time

import pytest

from repro.deploy import DeploymentCompiler
from repro.deploy.spec import QoSProfile, ReplicationSpec
from repro.errors import NamingError, NodeDownError
from repro.middleware.envelope import QoS
from repro.runtime.federation import FederationClient
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

    def test_membership_changes_are_in_process_only(self, fed):
        from repro.errors import FederationError

        for change in (fed.join, fed.retire):
            with pytest.raises(FederationError, match="in-process"):
                change("node-9")
        assert len(fed.workers) == 3

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


    def test_fresh_client_fails_over_on_its_first_call(self):
        """A new client's first call mints its token on the dead owner;
        that failed login reaches the failover element, so the retry
        budget lands the call on the promoted successor."""
        with ProcessFederation(banking_spec()) as fed:
            owner = fed.naming.owner_of("branch-0")
            fed.kill(owner)
            client = fed.client("alice", "pw")
            assert client.call("branch-0/Account/0", "getBalance") == 1000.0
            assert fed.failovers == 1
            assert fed.naming.owner_of("branch-0") != owner

    def test_failed_standby_replay_is_counted(self):
        """A standby replay that cannot reach its worker must not fail
        the write that triggered it, but it is not swallowed either: it
        is counted, emitted as an event, and the standby's watermark
        stays put so the next catch-up re-sends the slice."""
        with ProcessFederation(banking_spec()) as fed:
            client = fed.client("alice", "pw")
            standby = fed.naming.ring.preference("branch-0", 2)[1]
            assert fed.stats()["replication"]["replay_failures"] == 0
            fed.kill(standby)
            assert client.call("branch-0/Account/0", "deposit", 5) == 1005.0
            assert fed.stats()["replication"]["replay_failures"] == 1
            event = fed.observability.events.last("replay_failure")
            assert event["partition"] == "branch-0"
            assert event["standby"] == standby
            group = fed.replicas._groups["branch-0"]
            assert group.watermarks[standby] < group.log.seq
            assert fed.replicas.replica_lag() >= 1


class TestReplicationOrder:
    @pytest.mark.parametrize("kind", ["inproc", "worker"])
    def test_a_late_older_snapshot_never_overwrites_a_newer_one(self, kind):
        """Two deposits on one account whose syncs reach the log in the
        reverse order: the later-arriving, older state is dropped, so
        the standby equals the primary after each write."""
        spec = banking_spec()
        if kind == "inproc":
            fed = DeploymentCompiler().deploy(spec)
            client = FederationClient(fed, "alice", "pw")
        else:
            fed = ProcessFederation(spec).start()
            client = fed.client("alice", "pw")
        name, partition = "branch-0/Account/0", "branch-0"
        replicas = fed.replicas
        sync, invoked, overtaken = (
            replicas.sync_partition, threading.Event(), threading.Event()
        )

        def late_sync(partition, states=None):
            if states and threading.current_thread().name == "late":
                invoked.set()
                overtaken.wait(10)
            return sync(partition, states)

        replicas.sync_partition = late_sync
        try:
            for round_ in range(3):
                invoked.clear()
                overtaken.clear()
                late = threading.Thread(
                    target=client.call, args=(name, "deposit", 1), name="late"
                )
                late.start()
                assert invoked.wait(10)
                client.call(name, "deposit", 10)
                overtaken.set()
                late.join(10)
                owner = fed.node(fed.naming.owner_of(partition))
                primary = owner.snapshot([name])[0][2]
                assert primary["balance"] == 1000.0 + 11 * (round_ + 1)
                for standby in replicas._groups[partition].standbys:
                    copy = replicas.take(partition, standby)[name]
                    assert vars(copy) == primary, (round_, standby)
        finally:
            del replicas.sync_partition
            fed.shutdown()


class TestOneways:
    def test_oneway_ack_carries_the_touched_states(self, fed, client):
        """A oneway's ack ships the states its dispatch touched, as a
        reply does: a read-only oneway logs nothing, a mutating one logs
        only its servant (no full-partition sync)."""
        name = "branch-3/Account/0"
        appends = fed.replicas.stats()["log_appends"]
        client.oneway(name, "getBalance")
        assert fed.quiesce(10.0)
        assert fed.replicas.stats()["log_appends"] == appends
        client.oneway(name, "deposit", 3)
        assert fed.quiesce(10.0)
        assert fed.replicas.stats()["log_appends"] == appends + 1
        standby = fed.replicas._groups["branch-3"].standbys[0]
        assert fed.replicas.take("branch-3", standby)[name].balance == 1003.0


class TestPipelines:
    def test_client_pipeline_lands_and_standbys_track_the_owner(self, fed, client):
        """A pipelined burst of deposits on worker processes: every
        member crosses the wire, lands, and is logged, so each standby
        worker's copies equal the owner's state afterwards."""
        partition = "branch-5"
        names = [f"{partition}/Account/{i}" for i in range(4)]
        before = {name: client.call(name, "getBalance") for name in names}
        with client.pipeline(max_batch=len(names)) as pipe:
            futures = [pipe.call(name, "deposit", 10) for name in names]
        assert [f.result(10000) for f in futures] == [before[n] + 10 for n in names]
        owner = fed.node(fed.naming.owner_of(partition))
        primary = {
            name: state
            for name, _type, state, _version in owner.snapshot(
                fed.naming.shard(owner.name).list(partition)
            )
        }
        assert {name: primary[name]["balance"] for name in names} == {
            name: before[name] + 10 for name in names
        }
        for standby in fed.replicas._groups[partition].standbys:
            copies = fed.replicas.take(partition, standby)
            assert {name: vars(copy) for name, copy in copies.items()} == primary


class TestUnboundNames:
    @pytest.mark.parametrize("style", ["call", "call_async", "call_oneway"])
    def test_unbound_name_raises_at_once(self, fed, style):
        started = time.perf_counter()
        with pytest.raises(NamingError):
            getattr(fed, style)("branch-0/Account/999", "getBalance")
        assert time.perf_counter() - started < 0.1


def banking_ops(count, seed):
    """A seeded banking op list: (kind, account, amount, other account)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        branch = rng.randrange(6)
        first, second = rng.sample(range(4), 2)
        ops.append(
            (
                rng.choice(("deposit", "withdraw", "getBalance", "transfer")),
                branch,
                f"branch-{branch}/Account/{first}",
                f"branch-{branch}/Account/{second}",
                float(rng.randrange(1, 50)),
            )
        )
    return ops


def run_op(client, op):
    kind, branch, account, other, amount = op
    if kind == "getBalance":
        return client.call(account, "getBalance")
    if kind == "transfer":
        return client.call(
            f"branch-{branch}/Bank/0", "transfer",
            client.ref(account), client.ref(other), amount,
        )
    return client.call(account, kind, amount)


class TestParity:
    def test_worker_federation_matches_in_process_and_standbys_track_the_log(self):
        """One seeded op list on both deployments of one spec: the same
        values and final balances; after every write, each standby
        worker's copies equal the owner's state at the log watermark."""
        spec = banking_spec()
        ops = banking_ops(40, seed=3)
        accounts = [
            servant.name
            for _partition, servant in spec.servants()
            if servant.type_name == "Account"
        ]
        inproc = DeploymentCompiler().deploy(spec)
        try:
            local = FederationClient(inproc, "alice", "pw")
            with ProcessFederation(spec) as fed:
                remote = fed.client("alice", "pw")
                for op in ops:
                    assert run_op(remote, op) == run_op(local, op), op
                    if op[0] == "getBalance":
                        continue
                    partition = f"branch-{op[1]}"
                    group = fed.replicas._groups[partition]
                    owner = fed.node(fed.naming.owner_of(partition))
                    primary = {
                        name: state
                        for name, _type, state, _version in owner.snapshot(
                            fed.naming.shard(owner.name).list(partition)
                        )
                    }
                    for standby in group.standbys:
                        assert group.watermarks[standby] == group.log.seq
                        copies = fed.replicas.take(partition, standby)
                        assert {
                            name: vars(copy) for name, copy in copies.items()
                        } == primary
                assert {
                    name: remote.call(name, "getBalance") for name in accounts
                } == {name: local.call(name, "getBalance") for name in accounts}
        finally:
            inproc.shutdown()


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
