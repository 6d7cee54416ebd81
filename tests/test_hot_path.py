"""The synchronous in-process call path: its cost ceiling and fast paths.

The woven call path is the whole runtime cost of the approach, so its
size is pinned: a seeded banking op list on 8 serial in-process nodes
must stay under a ceiling of Python function calls per op (a
deterministic count, unlike wall time).  The rest of the module checks
the fast paths that keep that count down — a reply future builds no
Event unless someone waits, and a clock, a migration gate and a node
drain notify only when someone waits — still wake every waiter.  Each
of those runs with and without the runtime lock witness.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.deploy.compiler import DeploymentCompiler
from repro.errors import AuthenticationError, InvocationTimeout, NamingError
from repro.middleware.bus import Request
from repro.middleware.clock import SimClock
from repro.middleware.envelope import Envelope, ReplyFuture
from repro.middleware.transport import QueuedTransport
from repro.runtime.dispatch import SerialDispatcher
from repro.runtime.federation import FederationClient, _MigrationGate
from repro.runtime.harness import RunConfig
from repro.runtime.scenarios import get_scenario

#: Python calls per op on the banking mix below.  Measured at 278.0 on
#: CPython 3.11; the ceiling sits just above it, so a change that puts
#: work back on the per-call path fails here first.
CALLS_PER_OP_CEILING = 290
BRANCHES = 8
OPS = 400


def _banking_federation():
    scenario = get_scenario("banking")
    config = RunConfig(
        scenario="banking",
        nodes=BRANCHES,
        entities_per_node=1,
        seed=1,
        workers=0,
        concurrent=False,
        sim_latency_ms=0.0,
    )
    federation = DeploymentCompiler().deploy(scenario.deployment_spec(config))
    return scenario, config, federation


def _run_ops(ops):
    for _label, thunk in ops:
        try:
            thunk()
        except Exception as exc:  # noqa: BLE001 - only refusals are expected
            assert "insufficient funds" in str(exc), exc


def test_calls_per_op_stay_under_the_ceiling(monkeypatch):
    # the ceiling is for bare locks: witnessed ones add calls per acquire
    monkeypatch.delenv("REPRO_LOCK_WITNESS", raising=False)
    scenario, config, federation = _banking_federation()
    try:
        assert len(federation.nodes) == BRANCHES
        assert all(
            isinstance(node.dispatcher, SerialDispatcher)
            for node in federation.nodes.values()
        )
        state = scenario.setup(federation, config)
        client = FederationClient(federation, "alice", "pw")
        rng = random.Random(1)
        # the scenario's own mix, drawn before anything is counted
        ops = [
            scenario.pick(rng, federation, state, client, 0) for _ in range(OPS)
        ]
        # a first pass logs the client in on every node and fills the
        # weaver's match memo; the second pass is the steady state
        _run_ops(ops)
        here = __file__
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename != here:
                calls += 1

        sys.setprofile(hook)
        try:
            _run_ops(ops)
        finally:
            sys.setprofile(None)
        assert not scenario.invariants(federation, state)
    finally:
        federation.shutdown()
    per_op = calls / OPS
    assert per_op <= CALLS_PER_OP_CEILING, (
        f"{per_op:.1f} Python calls per op on the in-process banking path "
        f"(ceiling {CALLS_PER_OP_CEILING})"
    )


# ---------------------------------------------------------------------------
# fast paths still wake their waiters
# ---------------------------------------------------------------------------


@pytest.fixture(params=["plain", "witnessed"])
def witness_mode(request, monkeypatch):
    """Run a test with bare locks and again with witnessed ones (the
    named-lock factories read the variable when a lock is created)."""
    if request.param == "witnessed":
        monkeypatch.setenv("REPRO_LOCK_WITNESS", "1")
    else:
        monkeypatch.delenv("REPRO_LOCK_WITNESS", raising=False)
    return request.param


def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class _Gated:
    """A queued-transport handler that blocks until released."""

    def __init__(self, value="done"):
        self.value = value
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, envelope):
        self.entered.set()
        assert self.release.wait(5.0)
        return self.value


@pytest.fixture
def queued(witness_mode):
    transport = QueuedTransport(workers=1, name="fast-path")
    yield transport
    transport.shutdown()


def test_inline_completion_builds_no_event(witness_mode):
    future = ReplyFuture(Envelope(request=None))
    future._complete(42)
    assert future.raw() == 42
    assert future._event is None


def test_future_waited_before_completion_wakes(queued):
    handler = _Gated()
    future = queued.submit(Envelope(request=None), handler)
    assert handler.entered.wait(5.0)
    got = []
    waiter = threading.Thread(target=lambda: got.append(future.raw()))
    waiter.start()
    _wait_for(lambda: future._event is not None)  # the waiter is parked
    assert not future.done()
    handler.release.set()
    waiter.join(5.0)
    assert not waiter.is_alive()
    assert got == ["done"]


def test_raw_timeout_still_raises(queued):
    handler = _Gated()
    future = queued.submit(Envelope(request=None), handler)
    with pytest.raises(InvocationTimeout):
        future.raw(timeout_ms=20)
    handler.release.set()
    assert future.raw(timeout_ms=5000) == "done"


def test_done_callback_fires_once_before_or_after_completion(queued):
    handler = _Gated()
    future = queued.submit(Envelope(request=None), handler)
    early, late = [], []
    future.add_done_callback(early.append)
    handler.release.set()
    assert future.raw(timeout_ms=5000) == "done"
    future._complete("again")  # a second completion is ignored
    future._fail(RuntimeError("late"))
    future.add_done_callback(late.append)
    assert early == [future]
    assert late == [future]
    assert future.raw() == "done"


@pytest.mark.parametrize("drive", ["advance", "advance_to"])
def test_clock_wait_until_woken_by_another_thread(witness_mode, drive):
    clock = SimClock()
    woke = []
    waiter = threading.Thread(
        target=lambda: woke.append(clock.wait_until(10.0, timeout_s=5.0))
    )
    waiter.start()
    _wait_for(lambda: clock._waiters == 1)
    if drive == "advance":
        clock.advance(4.0)
        clock.advance(6.0)
    else:
        clock.advance_to(10.0)
    waiter.join(5.0)
    assert woke == [True]
    assert clock._waiters == 0


def test_gate_freeze_drains_a_call_in_flight(witness_mode):
    gate = _MigrationGate()
    entered, release = threading.Event(), threading.Event()

    def in_flight_call():
        gate._enter("p")
        try:
            entered.set()
            assert release.wait(5.0)
        finally:
            gate._exit("p")

    caller = threading.Thread(target=in_flight_call)
    caller.start()
    assert entered.wait(5.0)
    frozen = threading.Event()

    def migrate():
        with gate.freeze(["p"], timeout_s=5.0):
            frozen.set()

    migration = threading.Thread(target=migrate)
    migration.start()
    _wait_for(lambda: gate._frozen)
    time.sleep(0.02)
    assert not frozen.is_set(), "the freeze must wait for the call in flight"
    release.set()
    migration.join(5.0)
    caller.join(5.0)
    assert frozen.is_set()
    assert gate._inflight == {}
    assert gate._frozen == set()


def test_node_kill_drains_a_call_in_flight(witness_mode):
    _, _, federation = _banking_federation()
    try:
        node = federation.node_for("branch-0")
        federation._admit(node)  # a call executing on the node
        killed = threading.Event()
        killer = threading.Thread(
            target=lambda: (federation.kill(node.name), killed.set())
        )
        killer.start()
        _wait_for(lambda: federation._flight_waiters == 1)
        assert not killed.is_set(), "kill must wait for the call in flight"
        federation._release(node)
        killer.join(5.0)
        assert killed.is_set()
        assert not node.alive
    finally:
        federation.shutdown()


def test_racing_waiters_and_completers_all_wake(witness_mode):
    """Waiters that race completion (and clock waiters that race
    advances) with a tiny switch interval: no wake-up may be lost."""
    futures = [ReplyFuture(Envelope(request=None)) for _ in range(200)]
    clock = SimClock()
    values, clock_woke = [], []

    def wait_all():
        values.append([future.raw(timeout_ms=5000) for future in futures])
        clock_woke.append(clock.wait_until(len(futures), timeout_s=5.0))

    waiters = [threading.Thread(target=wait_all) for _ in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for waiter in waiters:
            waiter.start()
        for value, future in enumerate(futures):
            future._complete(value)
            clock.advance(1.0)
        for waiter in waiters:
            waiter.join(10.0)
            assert not waiter.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert values == [list(range(len(futures)))] * 4
    assert clock_woke == [True] * 4


# ---------------------------------------------------------------------------
# routed calls by name
# ---------------------------------------------------------------------------


@pytest.fixture
def banking():
    _, _, federation = _banking_federation()
    yield federation
    federation.shutdown()


ROUTED_CALLS = [
    "client.call", "client.call_async", "client.oneway",
    "federation.call", "federation.call_async", "federation.call_oneway",
]


def _routed(banking, client, site):
    owner, method = site.split(".")
    return getattr(client if owner == "client" else banking, method)


@pytest.mark.parametrize("site", ROUTED_CALLS)
def test_unbound_name_raises_at_the_call_site(banking, site):
    client = FederationClient(banking, "alice", "pw")
    with pytest.raises(NamingError):
        _routed(banking, client, site)("branch-0/Account/missing", "deposit", 1.0)


@pytest.mark.parametrize("site", ["client.call", "client.call_async", "client.oneway"])
def test_failed_login_raises_at_the_call_site(banking, site):
    client = FederationClient(banking, "alice", "wrong")
    with pytest.raises(AuthenticationError):
        _routed(banking, client, site)("branch-0/Account/0", "deposit", 1.0)


def test_async_call_is_labelled_when_submitted(banking):
    future = FederationClient(banking, "alice", "pw").call_async(
        "branch-0/Account/0", "getBalance"
    )
    assert future.envelope.label == "Account.getBalance"
    assert future.envelope.target == banking.node_for("branch-0").name
    future.raw(timeout_ms=5000)


def test_timeout_before_a_routed_hop_resolves_names_the_operation():
    envelope = Envelope(
        request=Request("", "withdraw", [], {}), binding="branch-0/Account/1"
    )
    with pytest.raises(InvocationTimeout, match="withdraw on 'branch-0/Account/1'"):
        ReplyFuture(envelope).raw(timeout_ms=10)
