"""Log-shipping replication: dirty tracking, replay equivalence, truncation.

The contract under test: a standby that only ever *replays* the
partition's append-only :class:`ReplicationLog` holds state
byte-identical to a full-state copy of the primary — through narrowed
per-servant syncs, snapshot+truncate cycles, concurrent writers,
membership churn, and failover promotion of a log-shipped tail.
"""

import json
import random
import threading

import pytest

from repro.deploy import (
    ApplicationSpec,
    DeploymentCompiler,
    DeploymentDiff,
    DeploymentSpec,
    NodeSpec,
    ReplicationSpec,
)
from repro.errors import DeploymentError, FederationError, NodeDownError
from repro.middleware.envelope import QoS
from repro.runtime import Federation, ReplicaManager, RunConfig, get_scenario
from repro.runtime.federation import ReplicationLog


class Counter:
    """Minimal stateful servant for replication tests."""

    def __init__(self, value=0.0):
        self.value = value

    def bump(self, amount):
        self.value += amount
        return self.value

    def read(self):
        return self.value


MODULE = type("ReplicationTestModule", (), {"Counter": Counter})

RETRY = QoS(timeout_ms=30_000.0, retries=2)


def build(nodes=3, partitions=6, per_partition=3, standbys=1, snapshot_every=8):
    federation = Federation(seed=7, latency_ms=0.0)
    for i in range(nodes):
        federation.add_node(f"node-{i}").module = MODULE
    names = []
    for k in range(partitions):
        partition = f"part-{k}"
        node = federation.node_for(partition)
        for j in range(per_partition):
            name = f"{partition}/Counter/{j}"
            node.bind(name, Counter(100.0))
            names.append(name)
    federation.enable_replication(standbys, snapshot_every=snapshot_every)
    return federation, names


def deploy_module(node):
    node.module = MODULE


def assert_standbys_match_primaries(federation, names):
    """Every standby copy's attribute dict equals its primary's."""
    replicas = federation.replicas
    for name in names:
        primary = federation.servant(name)
        partition = federation.naming.partition_key(name)
        group = replicas._groups[partition]
        for standby_name in group.standbys:
            copies = replicas.take(partition, standby_name)
            assert name in copies, f"{standby_name} holds no copy of {name}"
            copy = copies[name]
            assert copy is not primary
            assert copy.__dict__ == primary.__dict__, (
                f"standby {standby_name} diverged on {name}: "
                f"{copy.__dict__} != {primary.__dict__}"
            )


# ---------------------------------------------------------------------------
# ReplicationLog unit behavior
# ---------------------------------------------------------------------------


class TestReplicationLog:
    def test_appends_are_monotonically_sequenced(self):
        log = ReplicationLog("p")
        seqs = [log.append(f"p/Counter/{i}", "Counter", {"value": i}) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.seq == 5
        assert [entry[0] for entry in log.entries] == seqs

    def test_snapshot_folds_last_write_and_truncates(self):
        log = ReplicationLog("p")
        log.append("p/Counter/0", "Counter", {"value": 1.0})
        log.append("p/Counter/1", "Counter", {"value": 2.0})
        log.append("p/Counter/0", "Counter", {"value": 3.0})
        log.snapshot()
        assert log.entries == []
        assert log.base_seq == log.seq == 3
        # last write per name wins in the folded base
        assert log.base["p/Counter/0"] == ("Counter", {"value": 3.0})
        assert log.base["p/Counter/1"] == ("Counter", {"value": 2.0})
        assert log.truncations == 1
        # sequencing continues across the truncation
        assert log.append("p/Counter/1", "Counter", {"value": 4.0}) == 4

    def test_prune_drops_unbound_names_from_base(self):
        log = ReplicationLog("p")
        log.append("p/Counter/0", "Counter", {"value": 1.0})
        log.append("p/Counter/1", "Counter", {"value": 2.0})
        log.snapshot()
        log.prune({"p/Counter/0"})
        assert list(log.base) == ["p/Counter/0"]


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


def banking_spec_json(replication):
    """The banking scenario's spec as JSON, with ``replication`` swapped
    in verbatim (the shape an old or hand-written spec file carries)."""
    config = RunConfig(
        scenario="banking", nodes=3, seed=1, workers=0, concurrent=False,
        sim_latency_ms=0.0, entities_per_node=1,
    )
    data = get_scenario("banking").deployment_spec(config).to_dict()
    data["replication"] = replication
    return json.dumps(data)


class TestReplicationConfig:
    def test_unknown_mode_rejected(self):
        spec = DeploymentSpec.from_json(
            banking_spec_json({"count": 1, "mode": "paxos"})
        )
        with pytest.raises(DeploymentError, match="replication mode"):
            spec.validate()
        with pytest.raises(DeploymentError, match="replication mode"):
            DeploymentCompiler().deploy(spec)

    @pytest.mark.parametrize("mode", ["full", "log"])
    def test_spec_mode_values_both_deploy_the_log(self, mode):
        spec = DeploymentSpec.from_json(
            banking_spec_json({"count": 1, "mode": mode, "snapshot_every": 4})
        )
        federation = DeploymentCompiler().deploy(spec)
        try:
            replicas = federation.replicas
            assert replicas.count == 1 and replicas.snapshot_every == 4
            name = spec.partitions[0].servants[-1].name
            for _ in range(6):
                federation.call(name, "deposit", 1.0)
            partition = federation.naming.partition_key(name)
            group = replicas._groups[partition]
            # the writes went through the op log: appended, folded, and
            # replayed onto the standby up to the head
            assert group.log.seq > 0 and group.log.truncations > 0
            assert replicas.replica_lag() == 0
            assert_standbys_match_primaries(federation, [name])
        finally:
            federation.shutdown()

    def test_snapshot_threshold_must_be_positive(self):
        federation, _ = build()
        with pytest.raises(FederationError, match="snapshot_every"):
            ReplicaManager(federation, count=1, snapshot_every=0)
        federation.shutdown()

    def test_set_replication_retunes_snapshot_threshold(self):
        federation, _ = build(snapshot_every=8)
        federation.set_replication(1, snapshot_every=2)
        assert federation.replicas.snapshot_every == 2
        federation.shutdown()

    def test_spec_round_trip_and_legacy_default(self):
        spec = ReplicationSpec(count=2, mode="log", snapshot_every=16)
        assert ReplicationSpec.from_dict(spec.to_dict()) == spec
        # mode selects nothing: it is neither serialized nor compared
        assert spec.to_dict() == {"count": 2, "snapshot_every": 16}
        assert ReplicationSpec(count=2, mode="full", snapshot_every=16) == spec
        # pre-log spec files carry only the count
        legacy = ReplicationSpec.from_dict({"count": 1})
        assert legacy == ReplicationSpec(count=1)
        assert legacy.snapshot_every == 64


class TestReconcileModeChanges:
    @staticmethod
    def _spec(replication):
        return DeploymentSpec(
            name="repl",
            application=ApplicationSpec(name="banking", builder="scenario:banking"),
            nodes=(NodeSpec(name="node-0"), NodeSpec(name="node-1")),
            replication=replication,
        )

    def test_diff_ignores_a_mode_only_change(self):
        current = self._spec(ReplicationSpec(count=1, mode="full"))
        target = self._spec(ReplicationSpec(count=1, mode="log"))
        assert DeploymentDiff.between(current, target).empty

    def test_diff_allows_mode_choice_when_first_enabled(self):
        current = self._spec(ReplicationSpec(count=0))
        target = self._spec(ReplicationSpec(count=1, mode="log", snapshot_every=4))
        diff = DeploymentDiff.between(current, target)
        plan = diff.plan()
        (action,) = [a for a in plan.actions if a.kind == "set_replication"]
        assert "mode" not in action.payload
        assert action.payload["count"] == 1
        assert action.payload["snapshot_every"] == 4

    def test_diff_retunes_snapshot_threshold(self):
        current = self._spec(ReplicationSpec(count=1, mode="log", snapshot_every=64))
        target = self._spec(ReplicationSpec(count=1, mode="log", snapshot_every=8))
        diff = DeploymentDiff.between(current, target)
        assert not diff.empty
        (action,) = [a for a in diff.plan().actions if a.kind == "set_replication"]
        assert action.payload["count"] == 1
        assert action.payload["snapshot_every"] == 8


# ---------------------------------------------------------------------------
# stats accounting (the syncs over-count fix)
# ---------------------------------------------------------------------------


class TestStatsAccounting:
    def test_noop_sync_does_not_inflate_syncs(self):
        federation, _ = build()
        before = federation.replicas.stats()["syncs"]
        # no such partition: the early return must not count as a sync
        federation.replicas.sync_partition("no-such-partition")
        assert federation.replicas.stats()["syncs"] == before
        federation.shutdown()

    def test_mutating_call_counts_one_refreshing_sync(self):
        federation, names = build()
        before = federation.replicas.stats()["syncs"]
        federation.call(names[0], "bump", 1.0)
        assert federation.replicas.stats()["syncs"] == before + 1
        federation.shutdown()

    def test_stats_expose_log_counters(self):
        federation, names = build()
        federation.call(names[0], "bump", 1.0)
        stats = federation.replicas.stats()
        assert stats["log_appends"] > 0
        assert stats["replica_lag"] == 0
        assert stats["max_replica_lag"] >= 1
        for key in ("syncs", "skipped_syncs", "snapshots"):
            assert key in stats
        federation.shutdown()

    def test_lag_is_measurable_for_an_unreachable_standby(self):
        federation, names = build()
        name = names[0]
        partition = federation.naming.partition_key(name)
        group = federation.replicas._groups[partition]
        (standby_name,) = list(group.standbys)
        # an undeployed standby cannot apply the shipped tail: its
        # watermark freezes and the lag becomes visible in stats()
        module, federation.nodes[standby_name].module = (
            federation.nodes[standby_name].module,
            None,
        )
        try:
            federation.call(name, "bump", 1.0)
            assert federation.replicas.stats()["replica_lag"] >= 1
        finally:
            federation.nodes[standby_name].module = module
        # the next write catches the standby back up through the log
        federation.call(name, "bump", 1.0)
        assert federation.replicas.stats()["replica_lag"] == 0
        assert_standbys_match_primaries(federation, [name])
        federation.shutdown()


# ---------------------------------------------------------------------------
# replay equivalence
# ---------------------------------------------------------------------------


class TestReplayEquivalence:
    def test_sequential_writes_replay_identically(self):
        federation, names = build(snapshot_every=8)
        rng = random.Random(11)
        for _ in range(200):
            federation.call(rng.choice(names), "bump", rng.choice((1.0, 2.5)))
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_truncation_preserves_equivalence(self):
        # snapshot_every=1 folds+truncates after every single append
        federation, names = build(snapshot_every=1)
        rng = random.Random(13)
        for _ in range(120):
            federation.call(rng.choice(names), "bump", 1.0)
        stats = federation.replicas.stats()
        assert stats["snapshots"] > 0
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_snapshot_thresholds_converge_to_identical_state(self):
        # never folding, folding every few writes, and folding after
        # every append are one replay path: same primaries, same standbys
        ops = [(i % 18, float(1 + i % 5)) for i in range(90)]
        finals = []
        for snapshot_every in (1_000, 4, 1):
            federation, names = build(snapshot_every=snapshot_every)
            for index, amount in ops:
                federation.call(names[index], "bump", amount)
            finals.append(
                {name: federation.servant(name).__dict__.copy() for name in names}
            )
            assert_standbys_match_primaries(federation, names)
            federation.shutdown()
        assert finals[0] == finals[1] == finals[2]

    def test_join_reseeds_new_standbys_through_the_log(self):
        federation, names = build(nodes=3, snapshot_every=4)
        rng = random.Random(17)
        for _ in range(60):
            federation.call(rng.choice(names), "bump", 1.0)
        federation.join("node-joiner", deploy=deploy_module)
        # the joiner is now a ring successor for some partitions: the
        # rebuild seeded its copies by replaying snapshot + tail
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_departed_standbys_drop_their_copies(self):
        federation, names = build(nodes=3, partitions=12)
        federation.join("node-joiner", deploy=deploy_module)
        federation.retire("node-0")
        # join and retire re-placed groups: a node that stopped being a
        # partition's standby (or became its owner) holds no copies of it
        groups = federation.replicas._groups
        for node in federation.nodes.values():
            for partition, copies in node.standbys.items():
                assert not copies or node.name in groups[partition].standbys, (
                    node.name,
                    partition,
                )
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_kill_after_log_tail_promotes_last_write(self):
        federation, names = build(snapshot_every=4)
        name = names[0]
        victim = federation.naming.owner_of(name)
        expected = federation.call(name, "bump", 41.0)
        federation.kill(victim)
        # the promoted standby must hold the log-shipped tail, last
        # write included — the QoS budget absorbs the dead-node fault
        assert federation.call(name, "read", qos=RETRY) == expected
        assert federation.failovers == 1
        federation.shutdown()


class TestPartitionLocks:
    def test_a_stalled_standby_replay_blocks_only_its_partition(self):
        """Replication holds one partition's lock across its standby
        replays: a replay that hangs stalls writes to that partition,
        never writes to another one."""
        federation, names = build(nodes=3, partitions=6)
        stalled_name, other_name = names[0], names[-1]
        stalled = federation.naming.partition_key(stalled_name)
        assert federation.naming.partition_key(other_name) != stalled
        standby = federation.nodes[federation.replicas._groups[stalled].standbys[0]]
        replay, entered, release = standby.replay, threading.Event(), threading.Event()

        def hanging_replay(partition, entries, reset=False):
            if partition == stalled:
                entered.set()
                release.wait(10)
            return replay(partition, entries, reset)

        standby.replay = hanging_replay
        writer = threading.Thread(
            target=federation.call, args=(stalled_name, "bump", 1.0)
        )
        other = threading.Thread(
            target=federation.call, args=(other_name, "bump", 1.0)
        )
        writer.start()
        try:
            assert entered.wait(10)
            other.start()
            other.join(5)
            assert not other.is_alive(), "a stalled replay blocked another partition"
        finally:
            release.set()
            writer.join(10)
            other.join(10)
            del standby.replay
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()


class TestCopiesPerWrite:
    def test_each_write_copies_once_per_standby_across_folds(self, monkeypatch):
        # two standbys, a fold every 4 entries: each partition folds
        # several times, and a standby that was current when its tail
        # folded must not reseed the whole partition from the snapshot
        federation, names = build(
            nodes=3, partitions=2, per_partition=8, standbys=2, snapshot_every=4
        )
        copied = []
        apply_state = ReplicaManager._apply_state

        def counting(module, copies, name, type_name, state):
            copied.append(name)
            return apply_state(module, copies, name, type_name, state)

        monkeypatch.setattr(ReplicaManager, "_apply_state", staticmethod(counting))
        snapshots = federation.replicas.stats()["snapshots"]
        rng = random.Random(5)
        writes = 40
        for _ in range(writes):
            federation.call(rng.choice(names), "bump", 1.0)
        assert federation.replicas.stats()["snapshots"] - snapshots >= 8
        assert len(copied) == 2 * writes
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()


# ---------------------------------------------------------------------------
# seeded multi-threaded stress: writers + churn
# ---------------------------------------------------------------------------


class TestReplayStress:
    def _run_stress(self, snapshot_every):
        federation = Federation(seed=23, latency_ms=0.0)
        for i in range(4):
            federation.add_node(f"node-{i}", workers=2).module = MODULE
        names = []
        for k in range(8):
            partition = f"part-{k}"
            node = federation.node_for(partition)
            for j in range(3):
                name = f"{partition}/Counter/{j}"
                node.bind(name, Counter(100.0))
                names.append(name)
        federation.enable_replication(1, snapshot_every=snapshot_every)

        successes = []
        unexpected = []

        def writer(seed):
            rng = random.Random(seed)
            done = 0
            for _ in range(80):
                try:
                    federation.call(rng.choice(names), "bump", 1.0, qos=RETRY)
                    done += 1
                except NodeDownError:
                    # a kill window can outlast the retry budget under
                    # heavy concurrency; dead-node refusals are
                    # pre-effect, so the bump left no mark — money
                    # conservation below still holds exactly
                    pass
                except Exception as exc:  # pragma: no cover - fails the test
                    unexpected.append(exc)
            successes.append(done)

        threads = [
            threading.Thread(target=writer, args=(100 + i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # membership churn while the writers hammer the partitions
        federation.join("node-churn", deploy=deploy_module)
        federation.kill("node-1")
        federation.retire("node-2")
        for thread in threads:
            thread.join()

        assert not unexpected, f"writer calls failed: {unexpected[:3]}"
        # money conserved: every successful bump left exactly one mark
        total = sum(federation.call(name, "read", qos=RETRY) for name in names)
        assert total == 100.0 * len(names) + sum(successes)
        # replay equivalence after the dust settles: every standby copy
        # byte-identical to its primary, and no standby left behind
        assert_standbys_match_primaries(federation, names)
        assert federation.replicas.replica_lag() == 0
        stats = federation.replicas.stats()
        federation.shutdown()
        return stats

    def test_concurrent_writers_with_churn(self):
        stats = self._run_stress(snapshot_every=8)
        assert stats["log_appends"] > 0
        assert stats["snapshots"] > 0

    def test_concurrent_writers_with_aggressive_truncation(self):
        stats = self._run_stress(snapshot_every=1)
        assert stats["snapshots"] >= stats["log_appends"] // 2
