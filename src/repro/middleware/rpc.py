"""Object request broker: remote references, dynamic proxies, interceptors.

The :class:`Orb` is the hub the distribution concern's generated aspect
talks to: it registers application objects as servants, binds them in the
naming service, and hands out :class:`RemoteProxy` objects whose method
calls travel through the bus with full marshalling.

Interceptors mirror CORBA portable interceptors: *client* interceptors run
when the request is built — on the caller's thread, once per logical call
(never per retry attempt), only for requests issued through this orb —
and *server* interceptors run before dispatch (access-control checks).
Transport-level cross-cutting behaviour (faults, latency, statistics)
lives in the bus's ordered
:class:`~repro.middleware.envelope.InterceptorChain` instead.

Invocation styles (all sharing one request-build path, so context
capture, marshalling, and interceptors behave identically):

* ``proxy.method(...)`` — synchronous round trip (in-process transport);
* ``proxy.method.async_(...)`` — returns a
  :class:`~repro.middleware.envelope.ReplyFuture`; delivery happens on
  the bus's queued transport while the caller continues;
* ``proxy.method.oneway(...)`` — fire-and-forget for void operations:
  no reply, no error surfaces, at-most-once servant effect.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import RemoteInvocationError
from repro.middleware.bus import (
    MessageBus,
    ObjectRefData,
    Request,
    Response,
    marshal,
)
from repro.middleware.envelope import DEFAULT_QOS, ONEWAY_QOS, QoS, ReplyFuture
from repro.middleware.naming import NamingService

ObjectRef = ObjectRefData

_object_counter = itertools.count(1)


class Orb:
    """Registers servants, mints references, builds proxies, runs interceptors."""

    def __init__(self, bus: Optional[MessageBus] = None, naming: Optional[NamingService] = None):
        self.bus = bus or MessageBus()
        self.naming = naming or NamingService()
        self.client_interceptors: List[Callable[[Request], None]] = []
        self.server_interceptors: List[Callable[[Request, Any], None]] = []
        self._refs_by_identity: Dict[int, ObjectRef] = {}
        # the implicit call context is thread-local: concurrent requests
        # dispatched on worker threads must not see each other's
        # credentials or transaction ids
        self._ctx_local = threading.local()

    # -- registration --------------------------------------------------------

    def register(self, servant: Any, name: Optional[str] = None) -> ObjectRef:
        """Register ``servant`` and optionally bind it in the naming service."""
        existing = self._refs_by_identity.get(id(servant))
        if existing is None:
            object_id = f"obj-{next(_object_counter)}"
            ref = ObjectRef(object_id, type(servant).__name__)
            self.bus.register_servant(object_id, servant)
            self._refs_by_identity[id(servant)] = ref
        else:
            ref = existing
        if name is not None:
            self.naming.rebind(name, ref)
        return ref

    def unregister(self, servant: Any) -> None:
        ref = self._refs_by_identity.pop(id(servant), None)
        if ref is not None:
            self.bus.unregister_servant(ref.object_id)

    def ref_of(self, servant: Any) -> Optional[ObjectRef]:
        """The reference of a registered servant (used by marshalling)."""
        return self._refs_by_identity.get(id(servant))

    # -- call context -----------------------------------------------------------

    @property
    def context_frames(self) -> List[Dict[str, Any]]:
        """This thread's implicit-context frames, innermost last (a
        per-hop dispatch path pushes and pops one inline instead of
        entering :meth:`call_context`)."""
        stack = getattr(self._ctx_local, "frames", None)
        if stack is None:
            stack = self._ctx_local.frames = []
        return stack

    def call_context(self, **entries) -> "_ContextFrame":
        """Attach implicit per-call context (credentials, transaction id...)
        for the duration of a ``with`` block."""
        return _ContextFrame(self.context_frames, entries)

    def current_context(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for frame in self.context_frames:
            merged.update(frame)
        return merged

    # -- proxies ---------------------------------------------------------------

    def proxy(self, target: Union[str, ObjectRef]) -> "RemoteProxy":
        """Build a dynamic proxy for a name or a reference."""
        ref = self.naming.resolve(target) if isinstance(target, str) else target
        return RemoteProxy(self, ref)

    # -- invocation path ---------------------------------------------------------

    def _build_request(self, ref: ObjectRef, operation: str, args: tuple, kwargs: dict) -> Request:
        """Marshal arguments and capture context on the *caller's* thread.

        Everything thread-sensitive (implicit context, argument
        snapshots, client interceptors) happens here, so asynchronous
        delivery threads only ever see a finished, self-contained
        envelope payload.  Client interceptors run exactly once per
        logical call — never per retry attempt, never for requests
        issued through another orb sharing the same bus.
        """
        if operation.startswith("_"):
            raise RemoteInvocationError(
                f"operation {operation!r} is not remotely accessible"
            )
        request = Request(
            object_id=ref.object_id,
            operation=operation,
            args=marshal(list(args), self.ref_of, root="args"),
            kwargs=marshal(dict(kwargs), self.ref_of, root="kwargs"),
            context=dict(self.current_context()),
        )
        for interceptor in self.client_interceptors:
            interceptor(request)
        return request

    def _decode(self, response: Response):
        """Reply post-processing on the caller's thread: raise wire errors,
        hydrate references into proxies."""
        if response.is_error:
            self.bus.raise_remote(response)
        return self._from_wire(response.result)

    def invoke(self, ref: ObjectRef, operation: str, args: tuple, kwargs: dict):
        request = self._build_request(ref, operation, args, kwargs)
        response = self.bus.deliver(request, self._dispatch)
        return self._decode(response)

    def invoke_async(
        self,
        ref: ObjectRef,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        qos: QoS = DEFAULT_QOS,
    ) -> ReplyFuture:
        """Send the request and return immediately with a reply future."""
        request = self._build_request(ref, operation, args, kwargs or {})
        future = self.bus.submit(request, self._dispatch, qos=qos)
        future._decode = self._decode
        return future

    def invoke_oneway(
        self,
        ref: ObjectRef,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        qos: QoS = ONEWAY_QOS,
    ) -> None:
        """Fire-and-forget: no reply, no client-visible error."""
        request = self._build_request(ref, operation, args, kwargs or {})
        self.bus.submit(request, self._dispatch, qos=qos)

    def _dispatch(self, request: Request, servant: Any):
        for interceptor in self.server_interceptors:
            interceptor(request, servant)
        method = getattr(servant, request.operation, None)
        if method is None or not callable(method):
            raise RemoteInvocationError(
                f"{type(servant).__name__} has no operation {request.operation!r}"
            )
        args = [self._from_wire(a) for a in request.args]
        kwargs = {k: self._from_wire(v) for k, v in request.kwargs.items()}
        context = dict(request.context)
        context["__dispatching__"] = True  # lets aspects detect server side
        frames = self.context_frames
        frames.append(context)
        try:
            result = method(*args, **kwargs)
        finally:
            frames.pop()
        return marshal(result, self.ref_of, root="result")

    def _from_wire(self, value):
        """Hydrate wire values: references become proxies, containers recurse."""
        if isinstance(value, ObjectRefData):
            return RemoteProxy(self, value)
        if isinstance(value, list):
            return [self._from_wire(item) for item in value]
        if isinstance(value, tuple):
            return tuple(self._from_wire(item) for item in value)
        if isinstance(value, dict):
            return {key: self._from_wire(item) for key, item in value.items()}
        return value


class _ContextFrame:
    """One pushed frame of an orb's implicit call context (``with`` block)."""

    __slots__ = ("_frames", "_entries")

    def __init__(self, frames: List[Dict[str, Any]], entries: Dict[str, Any]):
        self._frames = frames
        self._entries = entries

    def __enter__(self) -> None:
        self._frames.append(self._entries)

    def __exit__(self, *exc_info) -> None:
        self._frames.pop()


class RemoteProxy:
    """Dynamic client stub: attribute access yields remote invocations.

    Each looked-up operation is a callable with two extra invocation
    styles attached: ``proxy.op.async_(...)`` (reply future) and
    ``proxy.op.oneway(...)`` (fire-and-forget).
    """

    __slots__ = ("_orb", "_ref")

    def __init__(self, orb: Orb, ref: ObjectRef):
        object.__setattr__(self, "_orb", orb)
        object.__setattr__(self, "_ref", ref)

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    def __getattr__(self, operation: str):
        if operation.startswith("_"):
            raise AttributeError(operation)
        orb, ref = self._orb, self._ref

        def remote_call(*args, **kwargs):
            return orb.invoke(ref, operation, args, kwargs)

        def remote_call_async(*args, qos: QoS = DEFAULT_QOS, **kwargs) -> ReplyFuture:
            return orb.invoke_async(ref, operation, args, kwargs, qos=qos)

        def remote_call_oneway(*args, qos: QoS = ONEWAY_QOS, **kwargs) -> None:
            orb.invoke_oneway(ref, operation, args, kwargs, qos=qos)

        remote_call.__name__ = operation
        remote_call.async_ = remote_call_async
        remote_call.oneway = remote_call_oneway
        return remote_call

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<RemoteProxy {self._ref.type_name}@{self._ref.object_id}>"
