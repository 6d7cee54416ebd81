"""The three closed-loop workloads: deployment, seeded inputs, driving, checks.

A workload owns one ``DeploymentSpec`` (fixed: the workload seed never
changes the deployment), turns the workload seed into a list of
operations, and knows how to set a federation up, run one operation
against it, and check the federation's state afterwards.  ``run_round``
drives one fresh federation through a fixed, seeded operation list and
returns everything measured in that round.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.deploy import DeploymentCompiler
from repro.deploy.compiler import register_application
from repro.deploy.spec import (
    ApplicationSpec,
    ConcernSpec,
    DeploymentSpec,
    NodeSpec,
    PartitionSpec,
    ReplicationSpec,
    ServantSpec,
)
from repro.errors import RemoteInvocationError
from repro.runtime.federation import FederationClient
from repro.runtime.harness import RunConfig
from repro.runtime.procfed import ProcessFederation
from repro.runtime.scenarios import get_scenario
from repro.uml import (
    add_attribute,
    add_class,
    add_operation,
    add_package,
    apply_stereotype,
    ensure_primitives,
    new_model,
)

from reference import sample_s, scale

#: outcome codes stored per operation
OK, REFUSED, FAILED = 0, 1, 2

#: operation kinds; READ is the read-only operation of both applications
TRANSFER, DEPOSIT, WITHDRAW, READ = 0, 1, 2, 3
KIND_NAMES = ("transfer", "deposit", "withdraw", "getBalance")

#: the application's own refusal (the PIM raises it; the wire carries it
#: back as a RemoteInvocationError naming the original error)
REFUSAL = "ValueError: insufficient funds"

#: a host-speed reference sample is taken after every this many ops
SAMPLE_EVERY = 100


@dataclass
class Window:
    """One pass of the op list over a live federation."""

    #: seconds the ops took (reference samples excluded)
    seconds: float
    #: the same at the nominal host speed (``reference``)
    nominal_s: float
    kinds: bytes
    outcomes: bytes
    #: per op: seconds timed around the client call
    latencies: array
    #: per op: factor that scales its latency to the nominal host speed
    scales: array
    values: array
    #: up to 5 descriptions of failed ops
    errors: List[str]
    #: failed ops by the name of the error that failed them
    failures: Counter

    def count(self, outcome: int) -> int:
        return self.outcomes.count(outcome)

    def writes(self) -> int:
        return sum(1 for kind in self.kinds if kind != READ)

    def reads(self) -> int:
        return self.kinds.count(READ)


@dataclass
class Round:
    """What one round measured: deploy, the op list run once per window,
    checks, teardown."""

    setup_s: float
    #: factor that scales ``setup_s`` to the nominal host speed
    setup_scale: float
    windows: List[Window]
    #: program-side counters: change over the windows
    counters: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ops(self) -> int:
        return sum(len(w.outcomes) for w in self.windows)

    def count(self, outcome: int) -> int:
        return sum(w.count(outcome) for w in self.windows)

    @property
    def errors(self) -> List[str]:
        return [e for w in self.windows for e in w.errors][:5]

    @property
    def failures(self) -> Counter:
        return sum((w.failures for w in self.windows), Counter())

    @property
    def outcomes(self) -> bytes:
        return b"".join(w.outcomes for w in self.windows)


@dataclass
class Session:
    """One closed-loop client: the program's client and what it caches."""

    client: Any
    refs: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base: subclasses fill in the spec, the op mix and the checks."""

    name = ""
    why = ""
    #: what ``check`` verifies, for the report
    check_name = ""
    #: operations per op window (fixed, seeded); every window's own p99
    #: then has at least 10 samples beyond it
    ops_per_window = 1000
    #: op windows per deployment in a measured round: a deployment costs
    #: about as much as a window, so three windows per round give the
    #: per-window metrics more windows in a run
    windows_per_round = 3
    #: operations of the excluded warm-up round
    warmup_ops = 200
    #: operations of the span-traced round (spans are kept in memory)
    traced_ops = 1000

    def spec(self) -> DeploymentSpec:
        raise NotImplementedError

    def generate(self, seed: int, count: int) -> List[tuple]:
        raise NotImplementedError

    def deploy(self):
        """A live federation plus the client factory: ``(fed, new_client)``."""
        raise NotImplementedError

    def first_call(self, fed, session) -> None:
        raise NotImplementedError

    def warm_sessions(self, fed, session) -> None:
        """Untimed: log the client in everywhere before the window opens."""

    def call(self, session, op) -> Any:
        raise NotImplementedError

    def check(self, fed, session, ops, rnd: Round) -> List[str]:
        raise NotImplementedError

    def final_state(self, fed, session) -> List[str]:
        raise NotImplementedError

    def counters(self, fed) -> Dict[str, float]:
        """Program-side counters read before and after the window."""
        return {}


def classify(exc: BaseException) -> int:
    """An op the application refused is not a failure of the system."""
    if isinstance(exc, RemoteInvocationError) and REFUSAL in str(exc):
        return REFUSED
    return FAILED


def error_name(exc: BaseException) -> str:
    """The name of the error that failed an op, seen through the wire's
    ``remote raised <name>: ...`` wrapping."""
    if isinstance(exc, RemoteInvocationError):
        text = str(exc)
        if text.startswith("remote raised "):
            return text[len("remote raised "):].split(":", 1)[0]
    return type(exc).__name__


def drive(workload: Workload, session: Session, ops: List[tuple], on_op=None, around=None):
    """Closed loop: the client sends its next op after the reply.

    Results land in arrays allocated before the window opens, so the loop
    allocates nothing per op inside it.  ``on_op(index)`` (tracing) runs
    before each op and ``on_op(-1)`` after each stretch of ops;
    ``around(window)`` wraps the window alone (profilers and memory
    tracing).

    Host-speed reference samples bracket every ``SAMPLE_EVERY`` ops.
    Each op gets the scale factor of the stretch it ran in; the window's
    time counts only the stretches of ops, not the samples.
    """
    n = len(ops)
    latencies = array("d", bytes(8 * n))
    scales = array("d", bytes(8 * n))
    values = array("d", bytes(8 * n))
    outcomes = bytearray(n)
    errors: List[str] = []
    failures: Counter = Counter()
    clock = time.perf_counter
    call = workload.call

    def stretch(first: int, end: int) -> float:
        """Run ops ``first..end``; seconds taken."""
        stretch_started = clock()
        for index in range(first, end):
            op = ops[index]
            if on_op is not None:
                on_op(index)
            started = clock()
            try:
                value = call(session, op)
            except Exception as exc:  # noqa: BLE001 - every op is classified
                latencies[index] = clock() - started
                outcomes[index] = classify(exc)
                values[index] = math.nan
                if outcomes[index] == FAILED:
                    failures[error_name(exc)] += 1
                    if len(errors) < 5:
                        errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies[index] = clock() - started
            values[index] = math.nan if value is None else float(value)
        seconds = clock() - stretch_started
        if on_op is not None:
            on_op(-1)
        return seconds

    def window() -> Tuple[float, float]:
        """Seconds the ops took: raw, and at the nominal host speed."""
        sample = sample_s(1)
        raw = nominal = 0.0
        for first in range(0, n, SAMPLE_EVERY):
            end = min(n, first + SAMPLE_EVERY)
            seconds = stretch(first, end)
            after = sample_s(1)
            factor = scale(sample, after)
            sample = after
            scales[first:end] = array("d", [factor]) * (end - first)
            raw += seconds
            nominal += seconds * factor
        return raw, nominal

    window_s, nominal_s = around(window) if around is not None else window()
    kinds = bytes(op[0] for op in ops)
    return Window(
        window_s, nominal_s, kinds, bytes(outcomes), latencies, scales, values,
        errors, failures,
    )


def outcome_digest(rnd: Round, state: List[str]) -> str:
    """sha256 over every op's (kind, outcome, value) and the final state."""
    h = hashlib.sha256()
    for w in rnd.windows:
        for kind, outcome, value in zip(w.kinds, w.outcomes, w.values):
            h.update(f"{kind}:{outcome}:{value!r};".encode())
    for line in state:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_round(
    workload: Workload,
    ops: List[tuple],
    windows: int = 1,
    on_op=None,
    around_window: Optional[Callable[[Callable[[], float]], float]] = None,
) -> Round:
    """Deploy fresh, answer a first call, run ``ops`` once per window,
    check, tear down.

    ``around_window(run)`` wraps only the op windows (profilers and
    memory tracing go there; set-up and checks stay outside).  The set-up
    is bracketed by host-speed reference samples, like the ops.
    """
    before_setup = sample_s()
    started = time.perf_counter()
    fed, new_client = workload.deploy()
    try:
        session = Session(new_client())
        workload.first_call(fed, session)
        setup_s = time.perf_counter() - started
        setup_scale = scale(before_setup, sample_s())
        workload.warm_sessions(fed, session)
        before = workload.counters(fed)
        runs = [
            drive(workload, session, ops, on_op, around_window)
            for _ in range(windows)
        ]
        after = workload.counters(fed)
        rnd = Round(
            setup_s=setup_s,
            setup_scale=setup_scale,
            windows=runs,
            counters={key: after[key] - before.get(key, 0) for key in after},
        )
        rnd.violations = workload.check(fed, session, ops * windows, rnd)
        rnd.digest = outcome_digest(rnd, workload.final_state(fed, session))
        return rnd
    finally:
        fed.shutdown()


# ---------------------------------------------------------------------------
# banking: the PIM refined through distribution + transactions + security
# ---------------------------------------------------------------------------


class Banking(Workload):
    """The banking scenario's application and mix, on 8 branch partitions.

    Accounts per branch, the opening balance and the op mix (40% transfer,
    25% deposit, 25% withdraw, 10% getBalance) are the scenario's own.
    """

    BRANCHES = 8
    USER = ("alice", "pw")
    check_name = "money conserved, no negative balance, no failed op"

    def __init__(self):
        self._spec: Optional[DeploymentSpec] = None
        scenario = get_scenario("banking")
        self.per_branch = scenario.ACCOUNTS_PER_BRANCH
        self.initial_balance = scenario.INITIAL_BALANCE
        self.mix = [(weight, KIND_NAMES.index(kind)) for weight, kind in scenario.MIX]

    def base_spec(self, nodes: int) -> DeploymentSpec:
        scenario = get_scenario("banking")
        config = RunConfig(
            scenario="banking",
            nodes=nodes,
            entities_per_node=self.BRANCHES // nodes,
            seed=1,
            workers=0,
            concurrent=False,
            sim_latency_ms=0.0,
        )
        spec = scenario.deployment_spec(config)
        assert len(spec.partitions) == self.BRANCHES
        return spec

    def generate(self, seed: int, count: int) -> List[tuple]:
        """Ops as ``(kind, binding, amount, source, target)``."""
        rng = random.Random(seed)
        weights = [w for w, _ in self.mix]
        kinds = [k for _, k in self.mix]
        ops = []
        for _ in range(count):
            branch = rng.randrange(self.BRANCHES)
            kind = rng.choices(kinds, weights)[0]
            if kind == TRANSFER:
                source, target = rng.sample(range(self.per_branch), 2)
                ops.append((
                    kind,
                    f"branch-{branch}/Bank/0",
                    float(rng.randrange(1, 20)),
                    self.account(branch, source),
                    self.account(branch, target),
                ))
            elif kind == READ:
                account = self.account(branch, rng.randrange(self.per_branch))
                ops.append((kind, account, 0.0, None, None))
            else:
                account = self.account(branch, rng.randrange(self.per_branch))
                ops.append((kind, account, float(rng.randrange(1, 50)), None, None))
        return ops

    @staticmethod
    def account(branch: int, index: int) -> str:
        return f"branch-{branch}/Account/{index}"

    def accounts(self) -> List[str]:
        return [
            self.account(b, i)
            for b in range(self.BRANCHES)
            for i in range(self.per_branch)
        ]

    def first_call(self, fed, session) -> None:
        session.client.call(self.account(0, 0), "getBalance")

    def warm_sessions(self, fed, session) -> None:
        # one read per branch logs the client in on every owner node, and
        # the account references a transfer passes are resolved once, as a
        # client caches them
        client = session.client
        session.refs.update(
            (name, client.ref(name)) for name in self.accounts()
        )
        for branch in range(self.BRANCHES):
            client.call(self.account(branch, 0), "getBalance")

    def call(self, session, op):
        kind, name, amount, source, target = op
        client = session.client
        if kind == TRANSFER:
            refs = session.refs
            return client.call(name, "transfer", refs[source], refs[target], amount)
        if kind == READ:
            return client.call(name, "getBalance")
        if kind == DEPOSIT:
            return client.call(name, "deposit", amount)
        return client.call(name, "withdraw", amount)

    def balances(self, fed, session) -> Dict[str, float]:
        raise NotImplementedError

    def check(self, fed, session, ops, rnd: Round) -> List[str]:
        """Money is conserved and no balance is negative."""
        delta = 0.0
        for op, outcome in zip(ops, rnd.outcomes):
            if outcome != OK:
                continue
            if op[0] == DEPOSIT:
                delta += op[2]
            elif op[0] == WITHDRAW:
                delta -= op[2]
        balances = self.balances(fed, session)
        violations = []
        expected = self.initial_balance * len(balances) + delta
        actual = sum(balances.values())
        if actual != expected:
            violations.append(
                f"money not conserved: expected {expected}, found {actual}"
            )
        negative = [name for name, value in balances.items() if value < 0]
        if negative:
            violations.append(f"negative balance on {negative}")
        if rnd.failures:
            violations.append(f"failed ops {dict(rnd.failures)}: {rnd.errors}")
        return violations

    def final_state(self, fed, session) -> List[str]:
        return [
            f"{name}={value!r}"
            for name, value in sorted(self.balances(fed, session).items())
        ]



class BankInproc(Banking):
    name = "bank_inproc"
    why = (
        "8 serial nodes, in-process transport, no replication: a call's "
        "whole cost is the invocation path plus the woven aspects"
    )

    def spec(self) -> DeploymentSpec:
        if self._spec is None:
            self._spec = self.base_spec(nodes=8)
        return self._spec

    def deploy(self):
        fed = DeploymentCompiler().deploy(self.spec())
        return fed, lambda: FederationClient(fed, *self.USER)

    def balances(self, fed, session) -> Dict[str, float]:
        return {name: fed.servant(name).balance for name in self.accounts()}

    def counters(self, fed) -> Dict[str, float]:
        return {
            "audit_records": float(
                sum(len(node.services.audit.records) for node in fed.nodes.values())
            )
        }


class BankProcfed(Banking):
    name = "bank_procfed"
    why = (
        "same banking spec on 2 worker processes over loopback TCP with "
        "front-end replication: codec, syscalls, pool and handoff dominate"
    )
    warmup_ops = 100

    def spec(self) -> DeploymentSpec:
        if self._spec is None:
            self._spec = replace(
                self.base_spec(nodes=2), replication=ReplicationSpec(count=1)
            )
        return self._spec

    def deploy(self):
        fed = ProcessFederation(self.spec())
        fed.start()
        return fed, lambda: fed.client(*self.USER)

    def balances(self, fed, session) -> Dict[str, float]:
        # the workers own the state: read it back over the wire
        return {
            name: session.client.call(name, "getBalance")
            for name in self.accounts()
        }

    def counters(self, fed) -> Dict[str, float]:
        stats = fed.transport.stats()
        return {
            "dials": float(stats["dials"]),
            "roundtrips": float(stats["roundtrips"]),
        }


# ---------------------------------------------------------------------------
# ledger: deposits and reads over log-shipping replication
# ---------------------------------------------------------------------------


def build_ledger():
    """A one-class PIM: ``Account.deposit`` and read-only ``getBalance``."""
    resource, model = new_model("ledger")
    prims = ensure_primitives(model)
    pkg = add_package(model, "books")
    account = add_class(pkg, "Account")
    add_attribute(account, "number", prims["String"])
    add_attribute(account, "balance", prims["Real"])
    deposit = add_operation(
        account, "deposit", [("amount", prims["Real"])], return_type=prims["Real"]
    )
    apply_stereotype(
        deposit, "PythonBody", body="self.balance += amount\nreturn self.balance"
    )
    balance = add_operation(account, "getBalance", return_type=prims["Real"])
    apply_stereotype(balance, "PythonBody", body="return self.balance")
    return resource


register_application("perfbench-ledger", build_ledger)


class LedgerReplicated(Workload):
    name = "ledger_replicated"
    why = (
        "3 nodes, 4x1024 accounts, 2 log-mode standbys per partition "
        "(snapshot every 32): log append, replay and fold set the tail"
    )
    NODES = 3
    PARTITIONS = 4
    ACCOUNTS = 1024
    DEPOSIT_SHARE = 0.70
    check_name = (
        "standbys equal the primary at the final watermark, "
        "sum of balances equals acknowledged deposits"
    )
    traced_ops = 2000

    def __init__(self):
        self._spec: Optional[DeploymentSpec] = None

    def spec(self) -> DeploymentSpec:
        if self._spec is None:
            self._spec = DeploymentSpec(
                name="perfbench-ledger",
                application=ApplicationSpec(
                    name="ledger",
                    builder="perfbench-ledger",
                    concerns=(
                        ConcernSpec(
                            concern="distribution",
                            params={
                                "server_classes": ["Account"],
                                "registry_prefix": "ledger",
                            },
                        ),
                    ),
                ),
                nodes=tuple(
                    NodeSpec(name=f"node-{i}", seed=31 + i)
                    for i in range(self.NODES)
                ),
                partitions=tuple(
                    PartitionSpec(
                        key=f"book-{p}",
                        servants=tuple(
                            ServantSpec(
                                name=self.account(p, i),
                                type_name="Account",
                                state={
                                    "number": self.account(p, i),
                                    "balance": 0.0,
                                },
                                read_only_ops=("getBalance",),
                            )
                            for i in range(self.ACCOUNTS)
                        ),
                    )
                    for p in range(self.PARTITIONS)
                ),
                replication=ReplicationSpec(
                    count=2, mode="log", snapshot_every=32
                ),
                sim_latency_ms=0.0,
                seed=1,
            )
        return self._spec

    @staticmethod
    def account(partition: int, index: int) -> str:
        return f"book-{partition}/Account/{index}"

    def generate(self, seed: int, count: int) -> List[tuple]:
        """Ops as ``(kind, binding, amount)``."""
        rng = random.Random(seed)
        ops = []
        for _ in range(count):
            name = self.account(
                rng.randrange(self.PARTITIONS), rng.randrange(self.ACCOUNTS)
            )
            if rng.random() < self.DEPOSIT_SHARE:
                ops.append((DEPOSIT, name, float(rng.randrange(1, 50))))
            else:
                ops.append((READ, name, 0.0))
        return ops

    def deploy(self):
        fed = DeploymentCompiler().deploy(self.spec())
        return fed, lambda: FederationClient(fed)

    def first_call(self, fed, session) -> None:
        session.client.call(self.account(0, 0), "getBalance")

    def warm_sessions(self, fed, session) -> None:
        # seeding replays whole partitions; the window's lag high-water
        # mark starts from zero
        fed.replicas.max_replica_lag = 0

    def call(self, session, op):
        kind, name, amount = op
        if kind == DEPOSIT:
            return session.client.call(name, "deposit", amount)
        return session.client.call(name, "getBalance")

    def check(self, fed, session, ops, rnd: Round) -> List[str]:
        """Standbys equal the primary at the final watermark; the sum of
        balances equals the acknowledged deposits."""
        violations = []
        if not fed.quiesce(timeout_s=30.0):
            violations.append("federation did not quiesce")
        replicas = fed.replicas
        lag = replicas.replica_lag()
        if lag:
            violations.append(f"standbys lag the log head by {lag} entries")
        standbys = replicas.count
        for p in range(self.PARTITIONS):
            key = f"book-{p}"
            owner, names = fed.naming.partition_view(key)
            successors = fed.naming.ring.preference(key, standbys + 1)[1:]
            primary = {name: dict(fed.servant(name).__dict__) for name in names}
            for standby in successors:
                copies = replicas.take(key, standby)
                state = {name: dict(copy.__dict__) for name, copy in copies.items()}
                if state != primary:
                    differ = sorted(
                        name for name in primary if state.get(name) != primary[name]
                    )
                    violations.append(
                        f"{key}: standby {standby} differs from primary "
                        f"{owner} on {len(differ)} account(s), e.g. {differ[:2]}"
                    )
        acknowledged = sum(
            op[2]
            for op, outcome in zip(ops, rnd.outcomes)
            if op[0] == DEPOSIT and outcome == OK
        )
        total = sum(self.balances(fed).values())
        if total != acknowledged:
            violations.append(
                f"ledger sum {total} != acknowledged deposits {acknowledged}"
            )
        failed = rnd.count(FAILED) + rnd.count(REFUSED)
        if failed:
            violations.append(f"{failed} op(s) did not succeed")
        return violations

    def balances(self, fed) -> Dict[str, float]:
        return {
            self.account(p, i): fed.servant(self.account(p, i)).balance
            for p in range(self.PARTITIONS)
            for i in range(self.ACCOUNTS)
        }

    def final_state(self, fed, session) -> List[str]:
        return [
            f"{name}={value!r}"
            for name, value in sorted(self.balances(fed).items())
            if value
        ]

    def counters(self, fed) -> Dict[str, float]:
        stats = fed.replicas.stats()
        return {
            key: float(stats[key])
            for key in (
                "syncs", "skipped_syncs", "log_appends", "snapshots",
                "max_replica_lag",
            )
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (BankInproc(), BankProcfed(), LedgerReplicated())
}

