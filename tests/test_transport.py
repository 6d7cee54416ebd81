"""Envelope/transport layer: futures, oneway, QoS, chains, pipelining."""

import threading

import pytest

from repro.errors import (
    InvocationTimeout,
    MiddlewareError,
    PipelineError,
    RemoteInvocationError,
    TransportError,
)
from repro.middleware import (
    DEFAULT_QOS,
    Envelope,
    FaultInjector,
    InProcessTransport,
    InterceptorChain,
    MessageBus,
    Orb,
    QoS,
    QueuedTransport,
    ReplyFuture,
    Request,
    SimClock,
    SimulatedNetworkTransport,
)
from repro.middleware.envelope import is_retryable


def make_envelope(qos=DEFAULT_QOS, **context):
    request = Request(
        object_id="obj-1", operation="op", args=[], kwargs={}, context=dict(context)
    )
    return Envelope(request=request, qos=qos)


# ---------------------------------------------------------------------------
# QoS + retry policy
# ---------------------------------------------------------------------------


class TestQoS:
    def test_defaults_are_synchronous_exactly_once(self):
        assert DEFAULT_QOS.oneway is False
        assert DEFAULT_QOS.retries == 0
        assert DEFAULT_QOS.timeout_ms is None

    def test_with_builds_variants(self):
        qos = DEFAULT_QOS.with_(retries=3, timeout_ms=100.0)
        assert (qos.retries, qos.timeout_ms) == (3, 100.0)
        assert DEFAULT_QOS.retries == 0  # frozen original untouched

    def test_only_bare_transport_faults_are_retryable(self):
        assert is_retryable(MiddlewareError("injected fault"))
        assert not is_retryable(RemoteInvocationError("app-level"))
        assert not is_retryable(ValueError("not ours"))

    def test_wire_rebuilt_bare_faults_are_not_retryable(self):
        # a bare MiddlewareError that crossed the wire-error conversion
        # means a servant dispatch was underway: never re-deliver
        from repro.middleware.bus import Response, _rebuild_exception

        rebuilt = _rebuild_exception(
            Response(1, error_type="MiddlewareError", error_message="nested fault")
        )
        assert type(rebuilt) is MiddlewareError
        assert not is_retryable(rebuilt)

    def test_retry_never_duplicates_effects_of_nested_faults(self):
        # servant mutates state, then a nested remote call hits a
        # transport fault: the outer retry budget must NOT re-run it
        from repro.runtime import Federation

        federation = Federation(seed=0)
        node = federation.add_node("node-x")
        key = next(
            f"k{i}" for i in range(100)
            if federation.node_for(f"k{i}").name == "node-x"
        )
        orb = node.services.orb

        class Inner:
            def ping(self):
                return "pong"

        faults = node.services.faults

        class Outer:
            def __init__(self):
                self.effects = 0

            def act(self):
                self.effects += 1  # effect BEFORE the nested hop
                faults.fail_next("bus.deliver")  # kill only the nested hop
                return orb.proxy("inner").ping()

        outer = Outer()
        node.bind(f"{key}/Outer/0", outer)
        orb.register(Inner(), name="inner")
        try:
            future = federation.call_async(
                f"{key}/Outer/0", "act", qos=QoS(retries=3)
            )
            # the outer delivery reaches the servant (effect applied),
            # then the *nested* hop faults — the error comes back
            # wire-rebuilt and must NOT consume the retry budget
            with pytest.raises(MiddlewareError):
                future.result(timeout_ms=5000)
            assert outer.effects == 1
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# ReplyFuture
# ---------------------------------------------------------------------------


class TestReplyFuture:
    def test_result_waits_for_completion(self):
        future = ReplyFuture()
        threading.Timer(0.02, lambda: future._complete(41)).start()
        assert future.result(timeout_ms=5000) == 41
        assert future.done()

    def test_timeout_raises_invocation_timeout(self):
        future = ReplyFuture(make_envelope())
        with pytest.raises(InvocationTimeout):
            future.result(timeout_ms=10)

    def test_qos_timeout_is_the_default(self):
        future = ReplyFuture(make_envelope(qos=QoS(timeout_ms=10.0)))
        with pytest.raises(InvocationTimeout):
            future.result()

    def test_failure_re_raised(self):
        future = ReplyFuture()
        future._fail(MiddlewareError("boom"))
        with pytest.raises(MiddlewareError, match="boom"):
            future.result(timeout_ms=100)

    def test_decode_runs_on_result(self):
        future = ReplyFuture(decode=lambda v: v * 2)
        future._complete(21)
        assert future.result(timeout_ms=100) == 42

    def test_done_callback_fires_once_even_if_registered_late(self):
        future = ReplyFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append("early"))
        future._complete("x")
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == ["early", "late"]

    def test_double_completion_keeps_first_value(self):
        future = ReplyFuture()
        future._complete(1)
        future._complete(2)
        future._fail(MiddlewareError("ignored"))
        assert future.result(timeout_ms=100) == 1


# ---------------------------------------------------------------------------
# InterceptorChain
# ---------------------------------------------------------------------------


class TestInterceptorChain:
    def test_elements_run_in_order_around_terminal(self):
        chain = InterceptorChain()
        trace = []

        def element(tag):
            def run(envelope, proceed):
                trace.append(f"{tag}>")
                value = proceed()
                trace.append(f"<{tag}")
                return value

            return run

        chain.add("outer", element("a")).add("inner", element("b"))
        result = chain.execute(make_envelope(), lambda: trace.append("T") or "r")
        assert result == "r"
        assert trace == ["a>", "b>", "T", "<b", "<a"]

    def test_before_after_placement(self):
        chain = InterceptorChain()
        chain.add("b", lambda e, p: p())
        chain.add("a", lambda e, p: p(), before="b")
        chain.add("c", lambda e, p: p(), after="b")
        assert chain.names() == ["a", "b", "c"]

    def test_duplicate_and_unknown_names_rejected(self):
        chain = InterceptorChain()
        chain.add("x", lambda e, p: p())
        with pytest.raises(PipelineError, match="already"):
            chain.add("x", lambda e, p: p())
        with pytest.raises(PipelineError, match="no interceptor"):
            chain.remove("ghost")

    def test_remove_returns_element(self):
        chain = InterceptorChain()
        marker = lambda e, p: p()  # noqa: E731
        chain.add("x", marker)
        assert chain.remove("x") is marker
        assert not chain.has("x")

    def test_element_can_short_circuit(self):
        chain = InterceptorChain()
        chain.add("gate", lambda e, p: "cached")
        assert chain.execute(make_envelope(), lambda: "never") == "cached"


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestTransports:
    def test_in_process_runs_on_caller_thread(self):
        transport = InProcessTransport()
        caller = threading.current_thread().name
        future = transport.submit(
            make_envelope(), lambda env: threading.current_thread().name
        )
        assert future.result(timeout_ms=100) == caller

    def test_queued_runs_on_delivery_thread(self):
        transport = QueuedTransport(workers=1, name="t")
        try:
            future = transport.submit(
                make_envelope(), lambda env: threading.current_thread().name
            )
            name = future.result(timeout_ms=5000)
            assert name != threading.current_thread().name
            assert name.startswith("deliver-t")
        finally:
            transport.shutdown()

    def test_queued_preserves_fifo_order_with_one_worker(self):
        transport = QueuedTransport(workers=1)
        seen = []
        try:
            futures = [
                transport.submit(make_envelope(), lambda env, i=i: seen.append(i))
                for i in range(10)
            ]
            for future in futures:
                future.result(timeout_ms=5000)
            assert seen == list(range(10))
        finally:
            transport.shutdown()

    def test_drain_waits_for_in_flight_deliveries(self):
        transport = QueuedTransport(workers=2)
        gate = threading.Event()
        try:
            transport.submit(make_envelope(), lambda env: gate.wait(5))
            assert not transport.drain(timeout_s=0.05)
            gate.set()
            assert transport.drain(timeout_s=5)
            assert transport.stats()["delivered"] == 1
        finally:
            transport.shutdown()

    def test_shutdown_rejects_new_submissions(self):
        transport = QueuedTransport(workers=1)
        transport.shutdown()
        with pytest.raises(TransportError, match="shut down"):
            transport.submit(make_envelope(), lambda env: None)

    def test_retry_budget_retries_bare_transport_faults(self):
        transport = InProcessTransport()
        attempts = []

        def flaky(env):
            attempts.append(env.attempt)
            if len(attempts) < 3:
                raise MiddlewareError("injected fault")
            return "ok"

        future = transport.submit(make_envelope(qos=QoS(retries=2)), flaky)
        assert future.result(timeout_ms=100) == "ok"
        assert attempts == [0, 1, 2]

    def test_retry_budget_exhaustion_surfaces_fault(self):
        transport = InProcessTransport()

        def always_fails(env):
            raise MiddlewareError("injected fault")

        future = transport.submit(make_envelope(qos=QoS(retries=1)), always_fails)
        with pytest.raises(MiddlewareError):
            future.result(timeout_ms=100)

    def test_application_errors_never_retried(self):
        transport = InProcessTransport()
        attempts = []

        def app_error(env):
            attempts.append(1)
            raise RemoteInvocationError("no such operation")

        future = transport.submit(make_envelope(qos=QoS(retries=5)), app_error)
        with pytest.raises(RemoteInvocationError):
            future.result(timeout_ms=100)
        assert len(attempts) == 1

    def test_simulated_network_charges_clock_both_hops(self):
        clock = SimClock()
        transport = SimulatedNetworkTransport(
            InProcessTransport(), clock, sim_latency_ms=2.0
        )
        future = transport.submit(make_envelope(), lambda env: clock.now())
        at_delivery = future.result(timeout_ms=100)
        assert at_delivery == 2.0  # request hop charged before the handler
        assert clock.now() == 4.0  # reply hop charged after


# ---------------------------------------------------------------------------
# Bus + ORB on the envelope path
# ---------------------------------------------------------------------------


class TestBusEnvelopePath:
    def test_bus_chain_has_the_unified_elements(self):
        orb = Orb()
        assert orb.bus.chain.names() == ["faults", "latency", "stats"]

    def test_client_interceptors_run_once_per_logical_call_caller_thread(self):
        orb = Orb()

        class S:
            def op(self):
                return "ok"

        orb.register(S(), name="s")
        seen = []
        orb.client_interceptors.append(
            lambda req: seen.append(threading.current_thread().name)
        )
        orb.bus.faults.fail_next("bus.deliver", count=2)
        future = orb.proxy("s").op.async_(qos=QoS(retries=2))
        assert future.result(timeout_ms=5000) == "ok"
        # two faulted attempts + one success, but ONE interceptor run,
        # on the issuing thread
        assert seen == [threading.current_thread().name]
        orb.bus.shutdown()

    def test_client_interceptors_do_not_cross_orbs_on_a_shared_bus(self):
        bus = MessageBus()
        orb_a = Orb(bus)
        orb_b = Orb(bus)

        class S:
            def op(self):
                return "ok"

        servant = S()
        ref = orb_a.register(servant)
        orb_b._refs_by_identity[id(servant)] = ref  # share the servant
        tagged = []
        orb_a.client_interceptors.append(lambda req: tagged.append("a"))
        orb_b.invoke(ref, "op", (), {})
        assert tagged == []  # b's calls never run a's interceptors
        orb_a.invoke(ref, "op", (), {})
        assert tagged == ["a"]

    def test_latency_charged_per_delivery_two_hops(self):
        orb = Orb()

        class S:
            def op(self):
                return 1

        orb.register(S(), name="s")
        before = orb.bus.clock.now()
        orb.proxy("s").op()
        assert orb.bus.clock.now() == before + 2 * orb.bus.latency_ms

    def test_transport_fault_raises_while_servant_error_is_wire_error(self):
        orb = Orb()

        class S:
            def op(self):
                raise ValueError("app boom")

        orb.register(S(), name="s")
        proxy = orb.proxy("s")
        with pytest.raises(RemoteInvocationError, match="app boom"):
            proxy.op()
        orb.bus.faults.fail_next("bus.deliver")
        with pytest.raises(MiddlewareError):
            proxy.op()

    def test_async_invocation_with_retries_survives_scripted_fault(self):
        orb = Orb()

        class S:
            def op(self):
                return "fine"

        orb.register(S(), name="s")
        orb.bus.faults.fail_next("bus.deliver", count=2)
        future = orb.proxy("s").op.async_(qos=QoS(retries=2))
        assert future.result(timeout_ms=5000) == "fine"
        orb.bus.shutdown()

    def test_oneway_is_at_most_once_under_faults(self):
        orb = Orb()
        effects = []

        class S:
            def op(self):
                effects.append(1)

        orb.register(S(), name="s")
        proxy = orb.proxy("s")
        orb.bus.faults.fail_next("bus.deliver", count=1)
        proxy.op.oneway()  # killed by the fault: no effect, no error
        proxy.op.oneway()  # delivered
        assert orb.bus.drain(timeout_s=5)
        assert effects == [1]
        orb.bus.shutdown()

    def test_pluggable_transport_on_the_bus(self):
        clock = SimClock()
        faults = FaultInjector()
        bus = MessageBus(
            clock,
            faults,
            latency_ms=0.0,
            transport=SimulatedNetworkTransport(
                InProcessTransport(), clock, sim_latency_ms=5.0
            ),
        )
        orb = Orb(bus)

        class S:
            def op(self):
                return "ok"

        orb.register(S(), name="s")
        assert orb.proxy("s").op() == "ok"
        assert clock.now() == 10.0  # the network transport charged both hops


# ---------------------------------------------------------------------------
# Federation pipelining
# ---------------------------------------------------------------------------


class TestFederationPipeline:
    def _federation(self):
        from repro.runtime import Federation

        federation = Federation(seed=3)
        federation.add_node("node-0", workers=2)
        federation.add_node("node-1", workers=2)

        class Counter:
            def __init__(self):
                self.value = 0

            def add(self, n):
                self.value += n
                return self.value

        servants = {}
        for k in range(6):
            partition = f"c-{k}"
            node = federation.node_for(partition)
            name = f"{partition}/Counter/0"
            servant = Counter()
            node.bind(name, servant)
            servants[name] = servant
        return federation, servants

    def test_batch_pays_one_route_check_per_node_group(self):
        federation, servants = self._federation()
        try:
            # grouping is by *consecutive* target node: order by owner so
            # each node's calls collapse into a single batch
            ordered = sorted(
                servants, key=lambda n: (federation.node_for(n).name, n)
            )
            with federation.pipeline(max_batch=16) as pipe:
                futures = [pipe.call(name, "add", 1) for name in ordered]
            for future in futures:
                assert future.result(timeout_ms=5000) == 1
            # 6 calls collapsed into one batch per distinct node
            n_nodes_used = len(
                {federation.node_for(name).name for name in servants}
            )
            assert sum(federation.batches.values()) == n_nodes_used
            assert all(s.value == 1 for s in servants.values())
        finally:
            federation.shutdown()

    def test_auto_flush_at_max_batch(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            one_node = [n for n in names if federation.node_for(n) is federation.node_for(names[0])]
            pipe = federation.pipeline(max_batch=1)
            future = pipe.call(one_node[0], "add", 5)
            # max_batch=1 flushes inside call(): no explicit flush needed
            assert future.result(timeout_ms=5000) == 5
        finally:
            federation.shutdown()

    def test_batch_transport_fault_fails_every_member(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            target_node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is target_node]
            federation.faults.fail_next("federation.route")
            pipe = federation.pipeline(max_batch=len(group))
            futures = [pipe.call(name, "add", 1) for name in group]
            pipe.flush()
            for future in futures:
                with pytest.raises(MiddlewareError):
                    future.result(timeout_ms=5000)
            assert all(servants[name].value == 0 for name in group)
        finally:
            federation.shutdown()

    def test_batch_records_one_metric_sample_per_member(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            target_node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is target_node]
            with federation.pipeline(max_batch=len(group)) as pipe:
                futures = [pipe.call(name, "add", 1) for name in group]
            for future in futures:
                assert future.result(timeout_ms=5000) == 1
            assert sum(federation.batches.values()) == 1
            assert federation.metrics.total_requests() == len(group)
        finally:
            federation.shutdown()

    def test_same_servant_members_run_in_program_order(self):
        from repro.runtime import Federation

        federation = Federation(seed=3)
        node = federation.add_node("node-0", workers=4)
        seen = []

        class Log:
            def note(self, i):
                seen.append(i)
                return i

        names = ["a/Log/0", "b/Log/0"]
        for name in names:
            node.bind(name, Log())
        try:
            with federation.pipeline(max_batch=32) as pipe:
                futures = [pipe.call(names[i % 2], "note", i) for i in range(32)]
            assert [f.result(timeout_ms=5000) for f in futures] == list(range(32))
            assert seen == list(range(32))
        finally:
            federation.shutdown()

    def test_member_retries_a_pre_effect_fault_under_the_pipeline_qos(self):
        """A bus.deliver fault (raised before the servant runs) is
        re-delivered under the pipeline's retry budget, as an async call's
        would be: the member lands exactly once."""
        federation, servants = self._federation()
        try:
            name = sorted(servants)[0]
            federation.node_for(name).services.faults.fail_next("bus.deliver")
            with federation.pipeline(qos=QoS(retries=1)) as pipe:
                future = pipe.call(name, "add", 1)
            assert future.result(timeout_ms=5000) == 1
            assert servants[name].value == 1
            assert federation.node_for(name).faults_injected() == {"bus.deliver": 1}
        finally:
            federation.shutdown()

    def test_nested_async_from_servant_cannot_deadlock(self):
        # a servant blocking on a nested async future must not queue it
        # behind the single delivery thread it is running on: nested
        # submissions from serving threads deliver inline
        from repro.runtime import Federation

        federation = Federation(seed=0, delivery_workers=1)
        node = federation.add_node("node-x", workers=1)
        key = next(
            f"k{i}" for i in range(100)
            if federation.node_for(f"k{i}").name == "node-x"
        )

        class Probe:
            def who(self):
                return "inner"

        class Relay:
            def relay(self):
                return federation.call_async(f"{key}/Probe/0", "who").result(
                    timeout_ms=5000
                )

        node.bind(f"{key}/Relay/0", Relay())
        node.bind(f"{key}/Probe/0", Probe())
        outer = federation.call_async(f"{key}/Relay/0", "relay")
        try:
            assert outer.result(timeout_ms=10_000) == "inner"
        finally:
            federation.shutdown()

    def test_member_error_does_not_poison_the_batch(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            target_node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is target_node]
            assert len(group) >= 2
            pipe = federation.pipeline(max_batch=len(group) + 1)
            bad = pipe.call(group[0], "no_such_operation")
            good = pipe.call(group[1], "add", 3)
            pipe.flush()
            with pytest.raises(RemoteInvocationError):
                bad.result(timeout_ms=5000)
            assert good.result(timeout_ms=5000) == 3
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# banking_async scenario wiring
# ---------------------------------------------------------------------------


class TestAsyncScenario:
    def test_registered_and_described(self):
        from repro.runtime import SCENARIOS

        assert "banking_async" in SCENARIOS
        assert "oneway" in SCENARIOS["banking_async"].description

    def test_invariants_hold_with_and_without_faults(self):
        from repro.runtime import run_scenario

        quiet = run_scenario(
            "banking_async", nodes=2, clients=3, ops=60, seed=5, workers=2
        )
        assert quiet.passed, quiet.invariant_violations
        faulted = run_scenario(
            "banking_async", nodes=2, clients=3, ops=60, seed=5, workers=2, faults=True
        )
        assert faulted.passed, faulted.invariant_violations
        assert faulted.faults_injected, "campaign should have injected something"

    def test_sequential_mode_also_settles(self):
        from repro.runtime import run_scenario

        result = run_scenario(
            "banking_async",
            nodes=2,
            clients=2,
            ops=40,
            seed=9,
            concurrent=False,
            window=2,
        )
        assert result.passed, result.invariant_violations
