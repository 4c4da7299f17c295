"""``SessionClient``: the one client of the verification sidecar.

:class:`~repro.runtime.procs.ProcessRuntime` decides every join from its
shared-memory forest (a TJ verdict depends only on the fork tree,
Thm 3.17), and each of its processes streams what the sidecar needs to
audit those verdicts through one :class:`SessionClient`.  The sidecar's
journal is a post-mortem record, never a source of truth: a client that
loses it degrades for good and the run stays sound.
"""

from __future__ import annotations

import itertools
import threading
from time import monotonic
from typing import Optional

from ..errors import ServiceError, ServiceProtocolError, ServiceUnavailableError
from ..obs.tracing import current_trace_context
from .wire import WIRE_VERSION, RecordStream, dial

__all__ = ["SessionClient", "parse_remote_url"]


def _stamp_trace(record: dict) -> None:
    """Attach the ambient ``(trace, span)`` context to a check or audit
    record.

    The fields are optional on the wire (old servers ignore them); with
    them the sidecar parents its ``join_check`` span under the span that
    made the join, stitching its track into the caller's distributed
    trace.  Disabled telemetry is one contextvar read.
    """
    tctx = current_trace_context()
    if tctx is not None:
        record["trace"], record["span"] = tctx


def parse_remote_url(url: str) -> tuple[str, int]:
    """``"remote://host:port"`` → ``(host, port)``."""
    prefix = "remote://"
    if not url.startswith(prefix):
        raise ValueError(f"sidecar URL must start with {prefix!r}: {url!r}")
    rest = url[len(prefix):]
    host, sep, port = rest.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"sidecar URL must be remote://host:port: {url!r}")
    return host, int(port)


class SessionClient:
    """A thin rid-level sidecar session for the multi-process runtime.

    The procs runtime holds the whole spawn-path forest in shared
    memory and decides every join from it, so the sidecar is an
    *auditor of cross-process verdicts*, not the source of truth.  The
    client ships plain integer rids (the shared-tree vertex ids) and
    buffers fire-and-forget records — state events and :meth:`audit`
    records alike — flushed every :attr:`FLUSH_EVERY` records, on the
    first record :attr:`FLUSH_AFTER` seconds past the last flush, and
    before any round trip.  A :meth:`sync` round trip learns how many
    audits the sidecar re-derived (:attr:`audits_applied`) and how many
    disagreed (:attr:`audit_mismatches`); the runtime makes one at exit,
    and a flush makes one first whenever more than :attr:`SYNC_EVERY`
    records would be in flight.  ``check`` and ``check_batch`` stay for
    callers that want the sidecar's own verdict.

    Degradation is **permanent and local**: on any connect, send,
    receive, timeout, backpressure or fail-closed quarantine failure
    the client goes silent, keeps the reason in :attr:`degrade_reason`,
    and every later call is a no-op — ``check``/``check_batch`` return
    ``None``, ``sync`` leaves the counts as they were, and audits are
    counted but never sent.  That stays sound because TJ verdicts derive
    entirely from the fork tree every process can already see; an audit
    no ``synced`` reply covers counts as degraded.  There is no replay
    buffer and no reconcile: the sidecar's copy is for observability
    and post-mortems.  One lock serialises the socket and the counters.
    """

    #: buffered records forcing a flush
    FLUSH_EVERY = 64
    #: seconds after a flush at which the next record flushes at once:
    #: a sparse stream still reaches the sidecar well inside its 5 s
    #: liveness window, as a round trip per record would
    FLUSH_AFTER = 1.0
    #: records a session may hold unapplied: half the sidecar's default
    #: inbox bound, so a producer faster than the sidecar waits on a
    #: ``sync`` instead of having records refused
    SYNC_EVERY = 512

    def __init__(
        self,
        url: str,
        session_id: str,
        *,
        policy: str = "TJ-SP",
        tenant: "str | None" = None,
        fail_mode: str = "open",
        timeout: float = 5.0,
    ) -> None:
        self.url = url
        self.session_id = session_id
        self.policy_name = policy
        self.tenant = tenant
        self.fail_mode = fail_mode
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stream: Optional[RecordStream] = None
        self._buffer: list[dict] = []
        self._flush_by = 0.0
        self._unsynced = 0  # records sent since the last synced reply
        self._cseq = itertools.count()
        self._req = itertools.count(1)
        #: audits made; of those, what the last ``synced`` reply covered
        self.audits = 0
        self.audits_applied = 0
        self.audit_mismatches = 0
        self.degraded = False
        self.degrade_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def connect(self) -> bool:
        """Dial and handshake; False (and degraded) if the sidecar is gone."""
        host, port = parse_remote_url(self.url)
        hello = {
            "kind": "hello",
            "wire": WIRE_VERSION,
            "session": self.session_id,
            "policy": self.policy_name,
            "fail_mode": self.fail_mode,
        }
        if self.tenant is not None:
            hello["tenant"] = self.tenant
        try:
            stream, _ = dial(host, port, hello, timeout=self.timeout)
        except ServiceError as exc:
            self._degrade(f"connect: {exc}")
            return False
        with self._lock:
            self._stream = stream
        return True

    # ------------------------------------------------------------------
    # fire-and-forget state events (buffered)
    # ------------------------------------------------------------------
    def init(self, rid: int) -> None:
        self._buffer_event({"kind": "init", "task": rid})

    def fork(self, parent_rid: int, child_rid: int, edge: int, depth: int) -> None:
        # edge/depth are the authoritative placement (sibling index and
        # tree depth from the caller's own spawn tree).  Tenant sessions
        # from different workers race their announcements, so the server
        # must never re-derive sibling order from arrival order.
        self._buffer_event(
            {
                "kind": "fork",
                "parent": parent_rid,
                "child": child_rid,
                "edge": edge,
                "depth": depth,
            }
        )

    def audit(self, waiter_rid: int, joinee_rid: int, ok: bool) -> None:
        """Buffer a ``recheck`` of a verdict decided locally (*ok*, the
        one acted on).  No ``cseq``: a hole in the state-event sequence
        would make the session drop the next fork."""
        record = {"kind": "recheck", "waiter": waiter_rid, "joinee": joinee_rid, "ok": ok}
        _stamp_trace(record)
        with self._lock:
            self.audits += 1
            self._buffer_locked(record)

    def _buffer_event(self, record: dict) -> None:
        with self._lock:
            record["cseq"] = next(self._cseq)
            self._buffer_locked(record)

    def _buffer_locked(self, record: dict) -> None:
        if self.degraded:
            return
        self._buffer.append(record)
        if len(self._buffer) >= self.FLUSH_EVERY or monotonic() >= self._flush_by:
            self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._unsynced + len(self._buffer) > self.SYNC_EVERY:
            self._sync_locked()  # flow control: let the session drain
        if self._stream is None:  # degraded, or never connected
            self._buffer.clear()
            return
        try:
            if self._buffer:
                self._stream.send(*self._buffer)
                self._unsynced += len(self._buffer)
            self._buffer.clear()
            self._flush_by = monotonic() + self.FLUSH_AFTER
        except (OSError, ServiceError) as exc:
            self._degrade_locked(f"flush: {exc}")

    # ------------------------------------------------------------------
    # synchronous checks
    # ------------------------------------------------------------------
    def check(self, waiter_rid: int, joinee_rid: int) -> "bool | None":
        """One join-permit query; None = degraded, resolve locally."""
        record = {"kind": "check", "waiter": waiter_rid, "joinee": joinee_rid}
        _stamp_trace(record)
        reply = self._roundtrip(record, "verdict")
        return None if reply is None else bool(reply["ok"])

    def check_batch(self, waiter_rid: int, joinee_rids: "list[int]") -> "list[bool] | None":
        """Batch join-permit query (the PR 7 wire vocabulary, reused)."""
        record = {"kind": "check_batch", "waiter": waiter_rid, "joinees": list(joinee_rids)}
        _stamp_trace(record)
        reply = self._roundtrip(record, "verdicts")
        return None if reply is None else [bool(ok) for ok in reply["ok"]]

    def sync(self) -> None:
        """Wait until the sidecar has re-derived every audit made so far
        and keep its counts in :attr:`audits_applied` and
        :attr:`audit_mismatches` (unchanged when degraded)."""
        with self._lock:
            self._flush_locked()
            self._sync_locked()

    def _sync_locked(self) -> None:
        reply = self._exchange_locked({"kind": "sync"}, "synced")
        if reply is not None:
            self._unsynced = 0
            self.audits_applied = reply["applied"]
            self.audit_mismatches = reply["mismatches"]

    def stats(self) -> "dict | None":
        """The server's full stats snapshot; None = degraded.

        Rides the same request-id round-trip as checks — the server
        answers from the connection reader, ahead of any queued
        verification stream.
        """
        reply = self._roundtrip({"kind": "stats"}, "stats_reply")
        return None if reply is None else reply["stats"]

    def ping(self) -> None:
        """Fire-and-forget keepalive (the pong is drained later).

        The parent's client can sit idle for an entire run (it makes
        no audits); without an occasional ping the server's liveness
        sweeper reaps the connection as dead and the final stats pull
        finds a closed stream.
        """
        if self.degraded:
            return
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            try:
                stream.send({"kind": "ping"})
            except (OSError, ServiceError) as exc:
                self._degrade_locked(f"ping: {exc}")

    def _roundtrip(self, record: dict, want: str) -> "dict | None":
        with self._lock:
            self._flush_locked()
            return self._exchange_locked(record, want)

    def _exchange_locked(self, record: dict, want: str) -> "dict | None":
        stream = self._stream
        if stream is None:  # degraded, or never connected
            return None
        req = next(self._req)
        record["req"] = req
        try:
            stream.send(record)
            while True:
                reply = stream.recv()
                if reply is None:
                    raise ServiceUnavailableError("sidecar closed the stream")
                kind = reply.get("kind")
                if kind == want and reply.get("req") == req:
                    return reply
                if kind == "quarantine" and reply.get("req") == req:
                    # Tenant policy quarantined server-side; the
                    # shared-memory shard remains the (sound) local
                    # authority, so treat it like degradation for
                    # this and future checks.
                    self._degrade_locked("server policy quarantined")
                    return None
                elif kind == "backpressure":
                    self._degrade_locked("server backpressure")
                    return None
                elif kind == "error":
                    raise ServiceProtocolError(str(reply.get("message")))
                # pongs, quarantine announcements, stale replies: keep reading
        except (OSError, ServiceError) as exc:
            self._degrade_locked(f"{record['kind']}: {exc}")
            return None

    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        with self._lock:
            self._degrade_locked(reason)

    def _degrade_locked(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degrade_reason = reason
        self._buffer.clear()
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Flush what we can, say goodbye, drop the socket."""
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            self._flush_locked()
            try:
                if not self.degraded:
                    stream.send({"kind": "bye"})
            except (OSError, ServiceError):
                pass
            self._stream = None
            try:
                stream.sock.close()
            except OSError:
                pass
