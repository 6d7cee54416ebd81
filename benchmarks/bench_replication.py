"""E17 — log-shipping replication: write throughput vs partition size.

The claim under test: **delta replication decouples write cost from
partition size**.  Re-copying every servant in the partition after each
mutating call is O(partition) per write, so throughput collapses as
partitions grow.  Per-servant dirty tracking plus the append-only
replication log make the per-write replication work O(touched
servants): one state snapshot appended to the partition log and
replayed onto the standby.

Two variants are measured at each partition size (64 → 4096 servants,
one standby):

* ``full_sync`` — the O(partition) reference: an unreplicated
  federation, and after each write this bench snapshots every servant
  in the partition (under its dispatch lock) onto a standby copy;
* ``log``       — the federation's replication: narrowed appends +
  replay, with snapshot+truncate every 64 entries.

The CI bar is **log >= 3x full_sync at 1024 servants**.  Replica lag
(applied-watermark deficit) and failover recovery time with log-replay
promotion are reported alongside.  Every run asserts effect
conservation on the *standby* copies: each successful deposit must be
visible in the replicated state, so a variant that loses writes cannot
pass.

Run standalone:  python benchmarks/bench_replication.py
"""

from __future__ import annotations

import random
import time

from _benchjson import write_bench_json

from repro.middleware.envelope import QoS
from repro.runtime import Federation

#: partition sizes swept (servants in the one replicated partition)
SIZES = (64, 256, 1024, 4096)
#: the CI floor: log-shipping throughput over full-partition sync at 1024
FLOOR_SPEEDUP = 3.0
FLOOR_AT_SIZE = 1024
#: ops per log window (cheap writes: fixed count)
OPS_FAST = 1_500
#: full-sync ops shrink with partition size so the O(size^2) total
#: copy work stays bounded; throughput is a rate, so windows need not
#: match across variants
OPS_FULL_BUDGET = 120_000
#: retry budget that absorbs the dead-node fault during failover
RETRY = QoS(timeout_ms=30_000.0, retries=2)

PARTITION = "shard-0"


class Account:
    """Plain servant: replication needs state, not weaving."""

    def __init__(self, balance=0.0):
        self.balance = balance

    def deposit(self, amount):
        self.balance += amount
        return self.balance

    def getBalance(self):
        return self.balance


MODULE = type("BenchReplicationModule", (), {"Account": Account})


def build_federation(size, replicated=True):
    federation = Federation(seed=1, latency_ms=0.0)
    for i in range(2):
        federation.add_node(f"node-{i}").module = MODULE
    owner = federation.node_for(PARTITION)
    names = []
    for i in range(size):
        name = f"{PARTITION}/Account/{i}"
        owner.bind(name, Account())
        names.append(name)
    if replicated:
        # enabled after the binds: seeding syncs once per partition
        # instead of once per bind
        federation.enable_replication(1, snapshot_every=64)
    return federation, names


class FullSync:
    """The O(partition) reference: after each write, snapshot every
    servant of the partition under its dispatch lock and overwrite a
    standby copy of it — the whole partition, whatever the write
    touched."""

    def __init__(self, federation):
        self.federation = federation
        self.copies = {}

    def sync(self):
        federation = self.federation
        owner_name, names = federation.naming.partition_view(PARTITION)
        owner = federation.nodes[owner_name]
        for name, _type_name, state, _version in owner.snapshot(names):
            copy = self.copies.get(name)
            if copy is None:
                copy = self.copies[name] = Account.__new__(Account)
            copy.__dict__.clear()
            copy.__dict__.update(state)

    def total(self, names):
        return sum(self.copies[name].balance for name in names)


def standby_total(federation, names):
    """Sum of balances held by the standby copies (replicated state)."""
    replicas = federation.replicas
    group = replicas._groups[PARTITION]
    total = 0.0
    for standby_name in group.standbys:
        copies = replicas.take(PARTITION, standby_name)
        total += sum(copies[name].balance for name in names)
    return total


def write_window(federation, names, ops, seed, after_write=None):
    """Closed-loop deposits against one replicated partition."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(ops):
        federation.call(rng.choice(names), "deposit", 1.0)
        if after_write is not None:
            after_write()
    return ops / (time.perf_counter() - start)


def measure_full_sync(size, ops):
    federation, names = build_federation(size, replicated=False)
    reference = FullSync(federation)
    reference.sync()
    ops_s = write_window(federation, names, ops, seed=size, after_write=reference.sync)
    replicated = reference.total(names)
    assert replicated == float(ops), (
        f"full_sync lost writes: standby holds {replicated}, "
        f"expected {float(ops)}"
    )
    federation.shutdown()
    return {"ops": ops, "ops_s": round(ops_s)}


def measure_log(size, ops):
    federation, names = build_federation(size)
    ops_s = write_window(federation, names, ops, seed=size)
    stats = federation.replicas.stats()
    # effect conservation ON THE STANDBY: every deposit must have been
    # replicated — a variant that drops writes cannot report a speedup
    replicated = standby_total(federation, names)
    assert replicated == float(ops), (
        f"log lost writes: standby holds {replicated}, expected {float(ops)}"
    )
    federation.shutdown()
    return {
        "ops": ops,
        "ops_s": round(ops_s),
        "syncs": stats["syncs"],
        "log_appends": stats["log_appends"],
        "snapshots": stats["snapshots"],
        "replica_lag": stats["replica_lag"],
        "max_replica_lag": stats["max_replica_lag"],
    }


def bench_sizes():
    results = []
    for size in SIZES:
        ops_full = max(60, OPS_FULL_BUDGET // size)
        row = {
            "partition_size": size,
            "full_sync": measure_full_sync(size, ops_full),
            "log": measure_log(size, OPS_FAST),
        }
        row["speedup_log_vs_full"] = round(
            row["log"]["ops_s"] / row["full_sync"]["ops_s"], 2
        )
        results.append(row)
        print(
            f"size {size:5d}: full_sync {row['full_sync']['ops_s']:>7} ops/s, "
            f"log {row['log']['ops_s']:>7} ops/s "
            f"({row['speedup_log_vs_full']:.1f}x vs full)"
        )
    return results


def bench_failover(size=FLOOR_AT_SIZE):
    """Kill the primary after a log-shipped tail; time the promotion."""
    federation, names = build_federation(size)
    write_window(federation, names, 500, seed=99)
    victim = federation.naming.owner_of(PARTITION)
    last = federation.call(names[0], "deposit", 1.0)
    kill_started = time.perf_counter()
    federation.kill(victim)
    # the first read eats the dead-node fault, the (log-riding)
    # promotion, and the retry re-resolve onto the new primary
    recovered = federation.call(names[0], "getBalance", qos=RETRY)
    recovery_ms = (time.perf_counter() - kill_started) * 1000.0
    assert recovered == last, (
        f"promotion lost the log tail: {recovered} != {last}"
    )
    failovers = federation.failovers
    federation.shutdown()
    return {
        "partition_size": size,
        "writes_before_kill": 501,
        "recovery_ms": round(recovery_ms, 2),
        "failovers": failovers,
        "last_write_survived": True,
    }


def main():
    sizes = bench_sizes()
    failover = bench_failover()
    print(
        f"failover at {failover['partition_size']} servants: "
        f"{failover['recovery_ms']:.1f} ms to first successful call, "
        f"last write survived"
    )
    at_floor = next(r for r in sizes if r["partition_size"] == FLOOR_AT_SIZE)
    speedup = at_floor["speedup_log_vs_full"]
    passed = speedup >= FLOOR_SPEEDUP
    write_bench_json(
        "replication",
        {
            "sizes": sizes,
            "failover": failover,
            "floor_speedup": FLOOR_SPEEDUP,
            "floor_at_size": FLOOR_AT_SIZE,
            "speedup_at_floor": speedup,
            "passed": passed,
        },
    )
    if not passed:
        raise SystemExit(
            f"log-shipping speedup {speedup:.2f}x at {FLOOR_AT_SIZE} "
            f"servants dropped below the {FLOOR_SPEEDUP}x floor"
        )


if __name__ == "__main__":
    main()
