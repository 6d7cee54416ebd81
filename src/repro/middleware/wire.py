"""Sans-IO wire protocol: the frame codec socket transports speak.

This module is the byte half of the invocation path's sans-IO split.
The envelope layer (:mod:`repro.middleware.envelope` /
:mod:`repro.middleware.bus`) turns calls into plain wire *dicts*
(``Envelope.to_wire`` / ``Request.to_wire`` / ``Response.to_wire``);
this module turns those dicts into length-prefixed binary **frames**
and back — and knows nothing about sockets, threads, or who is on the
other end.  IO owners (:mod:`repro.middleware.sockets`) feed received
bytes in and write returned bytes out; a future asyncio transport
drives the very same state machine.

Frame layout (everything big-endian)::

    +----+----+------+------+--------------+=============+
    | 'R'| 'W'| ver  | kind |  length u32  |   payload   |
    +----+----+------+------+--------------+=============+
      magic (2)  1      1         4          `length` bytes

The payload is one value in the codec below — a tagged, length-prefixed
binary encoding closed over exactly the bus's marshal contract
(``None``/``bool``/``int``/``float``/``str``/``bytes``, lists, tuples,
string-keyed dicts, :class:`~repro.middleware.bus.ObjectRefData`), so
"marshallable" and "frame-encodable" are the same predicate.  Garbage
magic, unknown versions or kinds, oversized frames, over-deep nesting
(:data:`MAX_DEPTH`), truncated or trailing payload bytes all raise
:class:`~repro.errors.ProtocolError`.

:class:`FrameDecoder` is an incremental state machine: bytes arrive in
arbitrary splits (half a header, three frames and a tail, ...) and
complete frames come out.  :class:`WireSession` layers the
handshake/conversation rules on top: HELLO/HELLO-OK version agreement
first, then request/response/ack/fault frames correlated by envelope
ids.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.errors as errors_module
from repro.errors import (
    MiddlewareError,
    NodeDownError,
    ProtocolError,
    RemoteInvocationError,
    ReproError,
)
from repro.middleware.bus import ObjectRefData, Response
from repro.middleware.envelope import Envelope, is_retryable

MAGIC = b"RW"
VERSION = 1

#: refuse frames larger than this (a garbage length prefix must not make
#: the decoder buffer gigabytes before noticing)
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: refuse values nested deeper than this — a hostile frame packing one
#: container per ~5 bytes could otherwise blow the interpreter's
#: recursion limit and surface a raw RecursionError instead of the
#: ProtocolError that poisons the decoder and drops the connection
MAX_DEPTH = 100

_HEADER = struct.Struct(">2sBBI")

# -- frame kinds -------------------------------------------------------------

HELLO = 1  #: client greeting: {"version", "node"}
HELLO_OK = 2  #: server accept: {"version", "node"}
REQUEST = 3  #: one routed call: Envelope.to_wire()
RESPONSE = 4  #: its reply: {"correlation_id", "response"}
ONEWAY_ACK = 5  #: receipt of a oneway envelope: {"correlation_id", "result"?}
FAULT = 6  #: delivery failed before a Response existed: {"correlation_id", "fault"}
CONTROL = 7  #: management conversation (deploy, state, shutdown): free-form dict
CONTROL_OK = 8  #: management reply

_KINDS = frozenset(
    (HELLO, HELLO_OK, REQUEST, RESPONSE, ONEWAY_ACK, FAULT, CONTROL, CONTROL_OK)
)

KIND_NAMES = {
    HELLO: "hello",
    HELLO_OK: "hello_ok",
    REQUEST: "request",
    RESPONSE: "response",
    ONEWAY_ACK: "oneway_ack",
    FAULT: "fault",
    CONTROL: "control",
    CONTROL_OK: "control_ok",
}


# ---------------------------------------------------------------------------
# value codec (the marshal contract, in binary)
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def encode_value(value: Any) -> bytes:
    """Encode one marshalled value into its binary payload form."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _encode_into(value: Any, out: List[bytes], depth: int = 0) -> None:
    if depth > MAX_DEPTH:
        raise ProtocolError(
            f"wire value nests deeper than {MAX_DEPTH} levels"
        )
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        # decimal text keeps arbitrary-precision ints exact
        text = b"%d" % value
        out.append(b"i")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif isinstance(value, list):
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, tuple):
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"wire dict keys must be strings, got {key!r}"
                )
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _encode_into(item, out, depth + 1)
    elif isinstance(value, ObjectRefData):
        out.append(b"r")
        for text in (value.object_id, value.type_name):
            data = text.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__} is outside the wire contract"
        )


def decode_value(payload: bytes) -> Any:
    """Decode one binary payload; trailing bytes are a protocol error."""
    value, offset = _decode_from(memoryview(payload), 0)
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing byte(s) after wire value"
        )
    return value


def _take(payload: memoryview, offset: int, count: int) -> Tuple[memoryview, int]:
    end = offset + count
    if end > len(payload):
        raise ProtocolError("truncated wire value")
    return payload[offset:end], end


def _decode_from(
    payload: memoryview, offset: int, depth: int = 0
) -> Tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise ProtocolError(
            f"wire value nests deeper than {MAX_DEPTH} levels"
        )
    tag_view, offset = _take(payload, offset, 1)
    tag = tag_view.tobytes()
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        raw, offset = _take(payload, offset, 4)
        (size,) = _U32.unpack(raw)
        text, offset = _take(payload, offset, size)
        try:
            return int(text.tobytes()), offset
        except ValueError as exc:
            raise ProtocolError(f"malformed integer payload: {exc}") from None
    if tag == b"f":
        raw, offset = _take(payload, offset, 8)
        return _F64.unpack(raw)[0], offset
    if tag in (b"s", b"b"):
        raw, offset = _take(payload, offset, 4)
        (size,) = _U32.unpack(raw)
        data, offset = _take(payload, offset, size)
        if tag == b"b":
            return data.tobytes(), offset
        try:
            return data.tobytes().decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed string payload: {exc}") from None
    if tag in (b"l", b"t"):
        raw, offset = _take(payload, offset, 4)
        (count,) = _U32.unpack(raw)
        items = []
        for _ in range(count):
            item, offset = _decode_from(payload, offset, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), offset
    if tag == b"d":
        raw, offset = _take(payload, offset, 4)
        (count,) = _U32.unpack(raw)
        mapping: Dict[str, Any] = {}
        for _ in range(count):
            raw, offset = _take(payload, offset, 4)
            (size,) = _U32.unpack(raw)
            key_data, offset = _take(payload, offset, size)
            try:
                key = key_data.tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"malformed dict key: {exc}") from None
            mapping[key], offset = _decode_from(payload, offset, depth + 1)
        return mapping, offset
    if tag == b"r":
        parts = []
        for _ in range(2):
            raw, offset = _take(payload, offset, 4)
            (size,) = _U32.unpack(raw)
            data, offset = _take(payload, offset, size)
            try:
                parts.append(data.tobytes().decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"malformed reference: {exc}") from None
        return ObjectRefData(parts[0], parts[1]), offset
    raise ProtocolError(f"unknown wire value tag {tag!r}")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(kind: int, payload_value: Any) -> bytes:
    """One complete frame: header + encoded payload."""
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    payload = encode_value(payload_value)
    return _HEADER.pack(MAGIC, VERSION, kind, len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser: feed bytes in, complete frames out.

    Pure state machine — it owns a buffer and nothing else.  Bytes may
    arrive in any split (mid-header, several frames at once, a frame
    spread over many reads); :meth:`frames` yields every frame that has
    fully arrived and keeps the remainder buffered.  A protocol
    violation (bad magic, unknown version/kind, oversized length,
    undecodable payload) raises :class:`~repro.errors.ProtocolError`
    and poisons the decoder — the connection that fed it is beyond
    resynchronization and must be dropped by its owner.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> None:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned by an earlier violation")
        self._buffer.extend(data)

    def pending(self) -> int:
        """Buffered bytes not yet consumed by a complete frame."""
        return len(self._buffer)

    def frames(self) -> Iterator[Tuple[int, Any]]:
        """Yield every ``(kind, payload)`` fully buffered so far."""
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _next_frame(self) -> Optional[Tuple[int, Any]]:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned by an earlier violation")
        if len(self._buffer) < _HEADER.size:
            return None
        magic, version, kind, length = _HEADER.unpack_from(self._buffer)
        try:
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
                )
            if version != VERSION:
                raise ProtocolError(
                    f"unsupported wire version {version} (speaking {VERSION})"
                )
            if kind not in _KINDS:
                raise ProtocolError(f"unknown frame kind {kind}")
            if length > self.max_frame:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame}-byte limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return None
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            return kind, decode_value(payload)
        except ProtocolError:
            self._poisoned = True
            raise


# ---------------------------------------------------------------------------
# faults on the wire
# ---------------------------------------------------------------------------


def encode_fault(exc: BaseException) -> Dict[str, Any]:
    """A delivery failure as a wire dict, retry semantics preserved.

    The *sender* computes :func:`~repro.middleware.envelope.is_retryable`
    — the side that actually knows whether the fault fired before any
    servant effect — so the retry decision crosses the wire instead of
    being degraded to "unknown, never retry" on arrival.
    """
    fault: Dict[str, Any] = {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "retryable": is_retryable(exc),
    }
    if isinstance(exc, NodeDownError):
        fault["node"] = exc.node
        fault["pre_effect"] = exc.pre_effect
    return fault


def decode_fault(fault: Dict[str, Any]) -> Exception:
    """Rebuild a wire fault, honouring the sender's retry classification.

    A retryable fault comes back exactly as raised (a pre-effect
    :class:`NodeDownError` keeps its node and pre-effect flag, a bare
    :class:`MiddlewareError` stays bare) so the QoS retry budget and the
    failover element behave as if the hop had been in-process.  A
    non-retryable fault is rebuilt by type name and marked
    ``_remote_rebuilt`` — effects may exist on the peer, so re-delivery
    is off the table.
    """
    error_type = fault.get("error_type", "")
    message = fault.get("message", "")
    if error_type == "NodeDownError":
        return NodeDownError(
            message,
            node=fault.get("node", ""),
            pre_effect=bool(fault.get("pre_effect", False)),
        )
    if fault.get("retryable") and error_type == "MiddlewareError":
        return MiddlewareError(message)
    exc_type = getattr(errors_module, error_type, None)
    rebuilt: Exception
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        try:
            rebuilt = exc_type(message)
        except TypeError:
            rebuilt = RemoteInvocationError(
                f"remote raised {error_type}: {message}"
            )
    else:
        rebuilt = RemoteInvocationError(f"remote raised {error_type}: {message}")
    rebuilt._remote_rebuilt = True
    return rebuilt


# ---------------------------------------------------------------------------
# the per-connection conversation
# ---------------------------------------------------------------------------


class WireSession:
    """Sans-IO conversation state for one connection end.

    Owns a :class:`FrameDecoder` plus the handshake rule: a client opens
    with HELLO (:meth:`greeting`), a server answers HELLO-OK, and any
    conversation frame before the handshake completes is a protocol
    error.  Version agreement happens here — a peer speaking another
    protocol version is refused before any envelope is interpreted.

    The IO owner's loop is::

        session.feed(sock.recv(...))          # bytes in
        for kind, payload in session.events() # decoded conversation
        sock.sendall(session.take_outbound()) # bytes out (handshake replies)
    """

    def __init__(
        self,
        role: str,
        node: str = "",
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        if role not in ("client", "server"):
            raise ProtocolError(f"unknown session role {role!r}")
        self.role = role
        self.node = node
        self.peer: Optional[str] = None
        self.handshaken = False
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._outbound = bytearray()
        self._events: List[Tuple[int, Any]] = []

    # -- byte side -----------------------------------------------------------

    def greeting(self) -> bytes:
        """The client's opening HELLO (server sessions never greet)."""
        if self.role != "client":
            raise ProtocolError("only client sessions greet")
        return encode_frame(HELLO, {"version": VERSION, "node": self.node})

    def feed(self, data: bytes) -> None:
        """Buffer received bytes and run the handshake state machine."""
        self._decoder.feed(data)
        for kind, payload in self._decoder.frames():
            self._handle(kind, payload)

    def take_outbound(self) -> bytes:
        """Bytes the session decided to send (handshake replies); may be empty."""
        data = bytes(self._outbound)
        self._outbound.clear()
        return data

    def events(self) -> List[Tuple[int, Any]]:
        """Conversation frames decoded since the last call."""
        events, self._events = self._events, []
        return events

    # -- handshake rules -----------------------------------------------------

    def _handle(self, kind: int, payload: Any) -> None:
        if kind == HELLO:
            if self.role != "server" or self.handshaken:
                raise ProtocolError("unexpected HELLO")
            if not isinstance(payload, dict) or payload.get("version") != VERSION:
                raise ProtocolError(
                    f"peer speaks wire version "
                    f"{payload.get('version') if isinstance(payload, dict) else payload!r}, "
                    f"not {VERSION}"
                )
            self.peer = str(payload.get("node", ""))
            self.handshaken = True
            self._outbound.extend(
                encode_frame(HELLO_OK, {"version": VERSION, "node": self.node})
            )
            return
        if kind == HELLO_OK:
            if self.role != "client" or self.handshaken:
                raise ProtocolError("unexpected HELLO-OK")
            if not isinstance(payload, dict) or payload.get("version") != VERSION:
                raise ProtocolError("handshake reply speaks another version")
            self.peer = str(payload.get("node", ""))
            self.handshaken = True
            return
        if not self.handshaken:
            raise ProtocolError(
                f"{KIND_NAMES.get(kind, kind)} frame before handshake"
            )
        self._events.append((kind, payload))

    # -- conversation frames -------------------------------------------------

    def send_request(self, envelope: Envelope) -> bytes:
        return encode_frame(REQUEST, envelope.to_wire())

    def send_response(self, correlation_id: int, response: Response) -> bytes:
        return encode_frame(
            RESPONSE,
            {"correlation_id": correlation_id, "response": response.to_wire()},
        )

    def send_oneway_ack(self, correlation_id: int, result: Any = None) -> bytes:
        payload = {"correlation_id": correlation_id}
        if result is not None:
            payload["result"] = result
        return encode_frame(ONEWAY_ACK, payload)

    def send_fault(self, correlation_id: int, exc: BaseException) -> bytes:
        return encode_frame(
            FAULT,
            {"correlation_id": correlation_id, "fault": encode_fault(exc)},
        )

    def send_control(self, payload: Dict[str, Any]) -> bytes:
        return encode_frame(CONTROL, payload)

    def send_control_ok(self, payload: Dict[str, Any]) -> bytes:
        return encode_frame(CONTROL_OK, payload)
