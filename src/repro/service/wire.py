"""Length-prefixed binary wire protocol for the verification sidecar.

The framing is deliberately minimal: every message is one journal-style
record — a flat JSON object with a ``"kind"`` field — encoded UTF-8 and
prefixed with a 4-byte big-endian length.  The record vocabulary is
*derived from* the PR 4 trace-journal format (:mod:`repro.tools.journal`):
the state-bearing kinds (``init``/``fork``/``join``/``verdict``/
``quarantine``) carry the same field names (``parent``/``child``,
``waiter``/``joinee``, ``ok``), so a server journal written from this
stream is readable by the exact same torn-tail-tolerant
:func:`~repro.tools.journal.read_journal`, and the session-rebuild
replay is the journal replay of PR 4 with a ``session`` column added.

Vertices travel as client-assigned dense integer ids (``rid``), exactly
like the flat TJ-SP core's int handles — neither endpoint ever
serialises policy node objects.

Client → server kinds
---------------------
``hello``  open or resume a session (``session``, ``policy``,
           ``fail_mode``, ``resume``, ``wire``);
``init``   root vertex (``task`` rid, ``cseq``);
``fork``   child vertex (``parent`` rid or null, ``child`` rid, ``cseq``);
``join``   a completed join — the KJ-learn event (``waiter``, ``joinee``,
           ``cseq``);
``check``  synchronous join-permit query (``waiter``, ``joinee``, ``req``);
``check_batch``  one waiter against many joinees (``waiter``,
           ``joinees``, ``req``);
``recheck``  re-derivation of a verdict the client answered locally
           (``waiter``, ``joinee``, optional ``ok``: the verdict acted
           on, journalled, a disagreement counted); no ``cseq``, no reply;
``sync``   barrier (``req``), answered after every earlier record;
``stats``  introspection query (``req``) — the server answers with its
           full stats snapshot;
``ping``   heartbeat;
``bye``    graceful close.

``check``/``check_batch``/``recheck`` may additionally carry an
optional trace context (``trace`` id string + ``span`` id int) captured
at the client's join site; the server parents its ``join_check`` span
under it so cross-process traces stitch.  The fields are optional and
unknown fields are ignored, so they are compatible in both directions;
a peer too old to know the ``stats`` or ``sync`` kind answers with an
``error`` record (the vocabulary check below), and the ``hello``
wire-version gate rejects genuinely incompatible peers before any of
this.

Server → client kinds
---------------------
``welcome``       session granted (``session``, ``last_seq``,
                  ``quarantined``);
``verdict``       reply to ``check`` (``req``, ``ok``);
``verdicts``      reply to ``check_batch`` (``req``, ``ok`` list);
``synced``        reply to ``sync`` (``req``, ``applied`` rechecks,
                  ``mismatches`` among them);
``stats_reply``   reply to ``stats`` (``req``, ``stats`` object);
``pong``          heartbeat reply;
``ack``           journal-durable watermark (``seq``): the client may
                  drop replay-buffer entries at or below it;
``quarantine``    the session's policy was quarantined (``policy``,
                  ``site``, ``error``);
``backpressure``  the session inbox is full (``limit``);
``error``         protocol-level failure (``message``).

Malformed traffic raises :class:`~repro.errors.ServiceProtocolError`;
plain socket failures raise :class:`~repro.errors.ServiceUnavailableError`
so callers can tell "the peer spoke garbage" from "the peer is gone".

Every client dials through :func:`dial`, and both servers pass accepted
sockets through :func:`set_nodelay`: the traffic is small request/reply
frames, so Nagle's algorithm would hold a ``check`` sent right behind a
burst of buffered events until the peer's delayed ACK (~40 ms on Linux).
"""

from __future__ import annotations

import json
import socket
import struct

from ..errors import ServiceProtocolError, ServiceUnavailableError

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME",
    "CLIENT_KINDS",
    "SERVER_KINDS",
    "encode_frame",
    "FrameDecoder",
    "RecordStream",
    "dial",
    "send_record",
    "set_nodelay",
    "validate_record",
    "REQUIRED_FIELDS",
]

#: protocol revision; ``hello`` carries it so mismatched peers fail fast
WIRE_VERSION = 1

#: hard bound on one frame's payload — a real record is a few hundred
#: bytes (a large ``check_batch`` some tens of KB); anything bigger is a
#: corrupt length prefix or a hostile peer, not a workload
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")

CLIENT_KINDS = frozenset(
    {
        "hello",
        "init",
        "fork",
        "join",
        "check",
        "check_batch",
        "recheck",
        "sync",
        "stats",
        "ping",
        "bye",
    }
)
SERVER_KINDS = frozenset(
    {
        "welcome",
        "verdict",
        "verdicts",
        "synced",
        "stats_reply",
        "pong",
        "ack",
        "quarantine",
        "backpressure",
        "error",
    }
)

#: required fields per record kind (beyond ``kind`` itself); validation
#: is shared by both endpoints so a field rename cannot drift apart
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "hello": ("session", "policy", "fail_mode", "wire"),
    "init": ("task", "cseq"),
    "fork": ("parent", "child", "cseq"),
    "join": ("waiter", "joinee", "cseq"),
    "check": ("waiter", "joinee", "req"),
    "check_batch": ("waiter", "joinees", "req"),
    "recheck": ("waiter", "joinee"),
    "sync": ("req",),
    "stats": ("req",),
    "ping": (),
    "bye": (),
    "welcome": ("session", "last_seq"),
    "verdict": ("req", "ok"),
    "verdicts": ("req", "ok"),
    "synced": ("req", "applied", "mismatches"),
    "stats_reply": ("req", "stats"),
    "pong": (),
    "ack": ("seq",),
    "quarantine": ("policy", "site", "error"),
    "backpressure": ("limit",),
    "error": ("message",),
}


def validate_record(record: dict, allowed: frozenset) -> str:
    """Check *record* against the vocabulary; returns its kind.

    Raises :class:`ServiceProtocolError` for an unknown kind or a
    missing required field — the caller decides whether that tears down
    the connection (server) or degrades (client).
    """
    kind = record.get("kind")
    if kind not in allowed:
        raise ServiceProtocolError(f"unexpected record kind {kind!r}")
    missing = [f for f in REQUIRED_FIELDS[kind] if f not in record]
    if missing:
        raise ServiceProtocolError(f"{kind!r} record missing fields {missing}")
    return kind


def encode_frame(record: dict) -> bytes:
    """One record → length prefix + UTF-8 JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ServiceProtocolError(
            f"record of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, harvest records.

    TCP delivers arbitrary chunk boundaries; the decoder buffers across
    them and yields each record exactly once, in stream order.  A
    length prefix beyond :data:`MAX_FRAME` or a non-JSON payload raises
    :class:`ServiceProtocolError` — the stream is unrecoverable after
    either (framing is lost), so callers must drop the connection.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Append *data*; return every record completed by it."""
        self._buf += data
        records: list[dict] = []
        buf = self._buf
        while True:
            if len(buf) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(buf)
            if length > MAX_FRAME:
                raise ServiceProtocolError(
                    f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
                )
            end = _LEN.size + length
            if len(buf) < end:
                break
            payload = bytes(buf[_LEN.size : end])
            del buf[:end]
            try:
                record = json.loads(payload)
            except ValueError as exc:
                raise ServiceProtocolError(
                    f"unparsable frame payload: {payload[:80]!r}"
                ) from exc
            if not isinstance(record, dict):
                raise ServiceProtocolError(
                    f"frame payload is not a record object: {payload[:80]!r}"
                )
            records.append(record)
        return records

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame (bounded by MAX_FRAME)."""
        return len(self._buf)


def send_record(sock: socket.socket, *records: dict) -> None:
    """Send framed records in one ``sendall``; socket failures become
    ServiceUnavailableError."""
    try:
        sock.sendall(b"".join(map(encode_frame, records)))
    except OSError as exc:
        raise ServiceUnavailableError(f"send failed: {exc}") from exc


class RecordStream:
    """A socket plus its decoder: blocking per-record reads, framed writes.

    One stream per connection per direction of ownership; reads are not
    thread-safe (one reader thread per connection, the design both
    endpoints follow), writes take no lock here either — callers
    serialise their own send path.
    """

    __slots__ = ("sock", "_decoder", "_ready")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._decoder = FrameDecoder()
        self._ready: list[dict] = []

    def send(self, *records: dict) -> None:
        send_record(self.sock, *records)

    def recv(self) -> "dict | None":
        """Block for the next record; None on orderly EOF.

        Records completed beyond the first by one TCP chunk are queued
        and returned by subsequent calls in stream order.
        """
        while not self._ready:
            try:
                chunk = self.sock.recv(65536)
            except OSError as exc:
                raise ServiceUnavailableError(f"recv failed: {exc}") from exc
            if not chunk:
                return None
            self._ready.extend(self._decoder.feed(chunk))
        return self._ready.pop(0)


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm on a wire socket (both endpoints)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def dial(
    host: str,
    port: int,
    hello: dict,
    *,
    timeout: float,
    handshake_timeout: "float | None" = None,
) -> "tuple[RecordStream, dict]":
    """Connect, disable Nagle, send *hello*, and read a validated welcome.

    *timeout* bounds the TCP connect and, unless *handshake_timeout* is
    given, the handshake; the socket keeps that timeout afterwards.
    Returns the stream and the ``welcome`` record.  Raises
    :class:`ServiceUnavailableError` when the peer is unreachable or
    drops the connection, :class:`ServiceProtocolError` when it refuses
    the hello (an ``error`` record) or answers out of vocabulary.  The
    socket is closed on every failure.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServiceUnavailableError(f"cannot reach {host}:{port}: {exc}") from exc
    try:
        set_nodelay(sock)
        if handshake_timeout is not None:
            sock.settimeout(handshake_timeout)
        stream = RecordStream(sock)
        stream.send(hello)
        welcome = stream.recv()
        if welcome is None:
            raise ServiceUnavailableError(f"{host}:{port} closed during handshake")
        kind = validate_record(welcome, SERVER_KINDS)
        if kind == "error":
            raise ServiceProtocolError(welcome["message"])
        if kind != "welcome":
            raise ServiceProtocolError(f"expected welcome, got {kind!r}")
    except OSError as exc:  # setsockopt/settimeout on a dying socket
        sock.close()
        raise ServiceUnavailableError(f"handshake failed: {exc}") from exc
    except BaseException:
        sock.close()
        raise
    return stream, welcome
