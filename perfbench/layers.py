"""Outside-in layer tracing: spans around each layer's public entry points.

Nothing in the program is changed on disk.  ``SpanRecorder.install``
replaces the entry points listed in ``TARGETS`` with wrappers that record
one span per call (name, start, end, parent span, op id, thread, and an
optional quantity such as frame bytes), and ``restore`` puts the
originals back.  Spans stay in memory; ``SpanSummary`` and
``span_metrics`` turn them into per-layer self times and counts, and
``SpanRecorder.write`` writes them out when the run ends.

Also here: deterministic call counts per package (``count_calls``, a
``sys.setprofile`` hook) and retained memory (``retained_bytes``,
tracemalloc after a full collection).
"""

from __future__ import annotations

import gc
import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def _chain_steps(args, result) -> int:
    """Elements one ``InterceptorChain.execute`` runs through."""
    return len(args[0].names())


def _frame_bytes(args, result) -> int:
    return 0 if result is None else len(result)


def _payload_bytes(args, result) -> int:
    return len(args[0])


#: (module, class or None for a module function, attribute, span name,
#: quantity) — the public entry points of each layer, outside in.  A
#: quantity is computed whether the call returned or raised (``result``
#: is then None)
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    # client and federation
    ("repro.runtime.federation", "FederationClient", "call", "client.call", None),
    ("repro.runtime.procfed", "ProcessClient", "call", "client.call", None),
    ("repro.runtime.federation", "Federation", "invoke", "federation.invoke", None),
    ("repro.runtime.federation", "ShardedNamingService", "resolve_with_owner",
     "federation.resolve", None),
    ("repro.middleware.envelope", "InterceptorChain", "execute", "envelope.chain",
     _chain_steps),
    ("repro.middleware.envelope", "ReplyFuture", "__init__", "envelope.reply_future",
     None),
    ("repro.middleware.clock", "SimClock", "advance", "clock.advance", None),
    # node and invocation
    ("repro.runtime.node", "Node", "invoke", "node.invoke", None),
    ("repro.runtime.dispatch", "SerialDispatcher", "dispatch", "dispatch", None),
    ("repro.runtime.dispatch", "ConcurrentDispatcher", "dispatch", "dispatch", None),
    ("repro.middleware.rpc", "Orb", "invoke", "rpc.invoke", None),
    ("repro.middleware.bus", "MessageBus", "deliver", "bus.deliver", None),
    ("repro.middleware.bus", None, "marshal", "bus.marshal", None),
    ("repro.middleware.bus", None, "wire_size", "bus.wire_size", None),
    # aspects
    ("repro.aop.weaver", "Weaver", "dispatch", "aop.dispatch", None),
    ("repro.middleware.txn", "TransactionManager", "begin", "txn.begin", None),
    ("repro.middleware.txn", "TransactionManager", "commit", "txn.commit", None),
    ("repro.middleware.txn", "TransactionManager", "rollback", "txn.rollback", None),
    ("repro.middleware.security", "AccessController", "check_access",
     "security.check", None),
    # replication
    ("repro.runtime.federation", "ReplicaManager", "sync_partition",
     "replication.sync", None),
    # wire
    ("repro.middleware.sockets", "SocketTransport", "roundtrip", "sockets.roundtrip",
     None),
    ("repro.middleware.sockets", "SocketTransport", "control", "sockets.control",
     None),
    ("repro.middleware.sockets", "ConnectionPool", "checkout", "sockets.checkout",
     None),
    ("repro.middleware.wire", None, "encode_frame", "wire.encode", _frame_bytes),
    ("repro.middleware.wire", None, "decode_value", "wire.decode", _payload_bytes),
    # set-up
    ("repro.deploy.compiler", "DeploymentCompiler", "compile", "deploy.compile", None),
    ("repro.deploy.compiler", "DeploymentCompiler", "deploy", "deploy.deploy", None),
    ("repro.runtime.procfed", "ProcessFederation", "start", "deploy.deploy", None),
    ("repro.core.lifecycle", "MdaLifecycle", "apply_plan", "pipeline.apply_plan",
     None),
    ("repro.core.shipping", None, "replay", "core.replay", None),
    ("repro.repository.repository", "ModelRepository", "commit", "repository.commit",
     None),
    ("repro.transform.conditions", "Condition", "evaluate", "transform.conditions",
     None),
    ("repro.codegen.python_backend", None, "compile_model", "codegen.compile", None),
    ("repro.aop.weaver", "Weaver", "weave_class", "aop.weave", None),
    ("repro.runtime.node", "Node", "bind", "node.bind", None),
    ("repro.runtime.federation", "Federation", "enable_replication",
     "replication.seed", None),
)

#: span record: (id, parent id, name, start, end, op, thread, quantity)
Span = Tuple[int, int, str, float, float, int, int, int]


class SpanRecorder:
    """Wraps entry points from outside and keeps every span in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def set_op(self, op: int) -> None:
        """Spans opened on this thread from now on belong to ``op``."""
        self._local.op = op

    def wrap(self, name: str, fn: Callable, quantity: Optional[Callable] = None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = clock()
                stack.pop()
                qty = quantity(args, result) if quantity else 0
                spans.append(
                    (span_id, parent, name, started, ended,
                     getattr(local, "op", -1), ident(), qty)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, class_name, attr, name, quantity in targets:
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = (
                    owner.__dict__[attr] if class_name else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            wrapped = self.wrap(name, original, quantity)
            if class_name:
                self._patch(owner, attr, wrapped)
                continue
            # a module function is also patched in every module that
            # imported it by name
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is original
                ):
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                span_id, parent, name, start, end, op, thread, qty = span
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "op": op,
                            "thread": thread,
                            "qty": qty,
                        }
                    )
                )
                out.write("\n")


class SpanSummary:
    """Per-name totals over the spans of the op window or of set-up."""

    def __init__(self, spans: List[Span]):
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _op, _thr, _qty in spans:
            if parent:
                child_time[parent] += end - start
        parent_and_name = {span[0]: (span[1], span[2]) for span in spans}
        self.self_time: Dict[Tuple[str, bool], float] = defaultdict(float)
        self.top_time: Dict[Tuple[str, bool], float] = defaultdict(float)
        self.count: Dict[Tuple[str, bool], int] = defaultdict(int)
        self.quantity: Dict[Tuple[str, bool], int] = defaultdict(int)
        self.self_total = 0.0
        for sid, parent, name, start, end, op, _thr, qty in spans:
            key = (name, op >= 0)
            own = end - start - child_time.get(sid, 0.0)
            self.self_time[key] += own
            self.self_total += own if op >= 0 else 0.0
            self.count[key] += 1
            self.quantity[key] += qty
            if op >= 0:
                continue
            # set-up time counts only the outermost span of a name
            ancestor = parent
            while ancestor and parent_and_name.get(ancestor, (0, ""))[1] != name:
                ancestor = parent_and_name.get(ancestor, (0, ""))[0]
            if not ancestor:
                self.top_time[key] += end - start

    def op_self(self, *names: str) -> float:
        return sum(self.self_time[(name, True)] for name in names)

    def op_count(self, name: str) -> int:
        return self.count[(name, True)]

    def op_names(self) -> set:
        """Span names recorded inside the op window."""
        return {name for (name, in_op), n in self.count.items() if in_op and n}

    def op_quantity(self, name: str) -> int:
        return self.quantity[(name, True)]

    def setup_time(self, name: str) -> float:
        return self.top_time[(name, False)]

    def setup_count(self, name: str) -> int:
        return self.count[(name, False)]


def _per(value: float, base: int) -> float:
    return value / base if base else 0.0


def span_metrics(
    summary: SpanSummary, ops: int, writes: int, op_scale: float, setup_scale: float
) -> Dict[str, float]:
    """Per-layer metrics from one traced round (µs values are self time).

    Times in the op window are multiplied by ``op_scale`` and set-up times
    by ``setup_scale``: both at the reference's nominal host speed.
    """
    us = 1e6 * op_scale
    s = summary
    return {
        "federation.invoke_self_us": _per(s.op_self("federation.invoke") * us, ops),
        "federation.resolves_per_op": _per(s.op_count("federation.resolve"), ops),
        "envelope.chain_steps_per_op": _per(s.op_quantity("envelope.chain"), ops),
        "envelope.reply_futures_per_op": _per(
            s.op_count("envelope.reply_future"), ops
        ),
        "clock.advances_per_op": _per(s.op_count("clock.advance"), ops),
        "node.invoke_self_us": _per(s.op_self("node.invoke") * us, ops),
        "dispatch.self_us": _per(s.op_self("dispatch") * us, ops),
        "rpc.invoke_self_us": _per(s.op_self("rpc.invoke") * us, ops),
        "rpc.invokes_per_op": _per(s.op_count("rpc.invoke"), ops),
        "bus.deliver_self_us": _per(s.op_self("bus.deliver") * us, ops),
        "bus.deliveries_per_op": _per(s.op_count("bus.deliver"), ops),
        "bus.marshal_us": _per(s.op_self("bus.marshal") * us, ops),
        "bus.wire_size_calls_per_op": _per(s.op_count("bus.wire_size"), ops),
        "aop.dispatch_self_us": _per(s.op_self("aop.dispatch") * us, ops),
        "aop.dispatches_per_op": _per(s.op_count("aop.dispatch"), ops),
        "txn.self_us": _per(
            s.op_self("txn.begin", "txn.commit", "txn.rollback") * us, ops
        ),
        "txn.rollbacks_per_op": _per(s.op_count("txn.rollback"), ops),
        "security.check_self_us": _per(s.op_self("security.check") * us, ops),
        "replication.sync_self_us_per_write": _per(
            s.op_self("replication.sync") * us, writes
        ),
        "sockets.roundtrip_us": _per(s.op_self("sockets.roundtrip") * us, ops),
        "sockets.roundtrips_per_op": _per(s.op_count("sockets.roundtrip"), ops),
        "sockets.control_us_per_write": _per(
            s.op_self("sockets.control") * us, writes
        ),
        "sockets.control_roundtrips_per_write": _per(
            s.op_count("sockets.control"), writes
        ),
        "wire.encode_us": _per(s.op_self("wire.encode") * us, ops),
        "wire.decode_us": _per(s.op_self("wire.decode") * us, ops),
        "wire.bytes_per_op": _per(
            s.op_quantity("wire.encode") + s.op_quantity("wire.decode"), ops
        ),
        "deploy.compile_s": s.setup_time("deploy.compile") * setup_scale,
        "pipeline.apply_plan_s": s.setup_time("pipeline.apply_plan") * setup_scale,
        "pipeline.apply_plan_calls": float(s.setup_count("pipeline.apply_plan")),
        "core.replay_s": s.setup_time("core.replay") * setup_scale,
        "repository.commit_s": s.setup_time("repository.commit") * setup_scale,
        "transform.conditions_s": s.setup_time("transform.conditions") * setup_scale,
        "codegen.compile_s": s.setup_time("codegen.compile") * setup_scale,
        "aop.weave_s": s.setup_time("aop.weave") * setup_scale,
        "node.bind_s": s.setup_time("node.bind") * setup_scale,
        "replication.seed_s": s.setup_time("replication.seed") * setup_scale,
    }


# ---------------------------------------------------------------------------
# call counts per package
# ---------------------------------------------------------------------------

#: packages reported as ``calls.<package>_per_op``; every other repro
#: package is ``other_repro``, generated application code is ``app``, and
#: everything else Python runs (the standard library) is ``stdlib``
CALL_PACKAGES = (
    "middleware", "runtime", "aop", "concerns", "analysis",
    "other_repro", "app", "stdlib",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep


def _package_of(filename: str) -> Optional[str]:
    if filename.startswith(_BENCH_DIR):
        return None  # the benchmark's own frames are not counted
    if filename.startswith("<"):
        return "app"
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return "stdlib"
    rest = filename[at + len(_REPRO_MARK):]
    package = rest.split(os.sep, 1)[0]
    if package.endswith(".py"):
        return "other_repro"
    return package if package in CALL_PACKAGES else "other_repro"


def count_calls(run: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``run`` under a profile hook; Python function calls per package.

    Covers the calling thread and threads started meanwhile.  Every
    workload has one client, so a seed gives the same counts on every run.
    """
    calls: Dict[Any, int] = defaultdict(int)

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    by_package: Dict[str, int] = {name: 0 for name in CALL_PACKAGES}
    for code, count in calls.items():
        package = _package_of(code.co_filename)
        if package is not None:
            by_package[package] += count
    return result, by_package


def retained_bytes(run: Callable[[], Any]) -> Tuple[Any, int]:
    """Bytes still allocated after ``run`` and a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current
