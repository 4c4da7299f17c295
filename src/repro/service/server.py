"""The verification sidecar: a multi-tenant TJ verifier behind a socket.

One :class:`VerificationServer` owns a listening socket, a set of
:class:`~repro.service.session.Session` objects (one per tenant, each
with its own policy instance and worker thread), and an optional
:class:`ServiceJournal`.  Connections are thin: a reader thread per
socket validates frames and routes them to the session named in the
``hello`` handshake.

The journal
-----------
The server journal is written by the trace journal's own writer (see
:mod:`repro.tools.journal`) — dense global ``seq``, readable by
:func:`repro.tools.journal.read_journal` with its torn-tail tolerance —
with a ``session`` column added to every record.  It is a post-mortem
record for ``repro journal-replay``, never read back by a server: a
server refuses to start on a non-empty journal, because a second run
appended to it would restart ``seq`` at 0 and every reader would reject
the file.

Liveness
--------
A sweeper thread closes connections that have been silent longer than
``liveness_timeout`` (clients ``ping`` well inside it).  Closing a
connection leaves its session in place.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
from time import monotonic
from typing import Optional

from ..errors import JournalError, ServiceProtocolError
from ..obs import active as _active_telemetry
from ..tools.journal import ServiceJournal
from .session import Session, Tenant
from .wire import (
    CLIENT_KINDS,
    MAX_FRAME,
    WIRE_VERSION,
    RecordStream,
    set_nodelay,
    validate_record,
)

__all__ = ["ServiceJournal", "VerificationServer", "main"]


def _fit_stats_reply(reply: dict) -> dict:
    """Trim a stats reply's trace tail until it fits one wire frame.

    A busy sidecar's trace ring can outgrow :data:`MAX_FRAME` once
    serialized.  The newest events matter most (the asking runtime is
    merging the run that just finished), so drop from the *oldest* end
    in halves — recording the count under ``trace["trimmed"]`` — rather
    than fail the whole reply; a truncated remote ring is exactly the
    dangling-flow-start case the trace validator already tolerates.
    """
    headroom = MAX_FRAME - 4096
    while True:
        size = len(json.dumps(reply, separators=(",", ":")).encode("utf-8"))
        if size <= headroom:
            return reply
        trace = reply["stats"].get("trace")
        events = (trace or {}).get("events")
        if not events:
            return reply  # nothing trimmable left; let the frame encoder judge
        drop = max(1, len(events) // 2)
        trace["events"] = events[drop:]
        trace["trimmed"] = int(trace.get("trimmed", 0)) + drop


class _Connection:
    """One accepted socket: its stream, its locked send path, liveness."""

    __slots__ = ("sock", "stream", "send_lock", "last_heard", "session_id", "peer")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        set_nodelay(sock)
        self.sock = sock
        self.stream = RecordStream(sock)
        self.send_lock = threading.Lock()
        self.last_heard = monotonic()
        self.session_id: Optional[str] = None
        self.peer = peer

    def reply(self, record: dict) -> None:
        with self.send_lock:
            self.stream.send(record)


class VerificationServer:
    """The sidecar process's server object.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` — the test harnesses and the CLI do).
    journal_path:
        When set, every session's stream is journalled through one
        :class:`ServiceJournal`.  The file must be missing or empty:
        :meth:`start` raises :class:`~repro.errors.JournalError` and
        leaves it untouched otherwise.
    inbox_limit:
        Forwarded to every :class:`Session` (its backpressure bound).
    liveness_timeout:
        Seconds of silence after which a connection is presumed dead and
        closed.  Sessions survive; only the socket dies.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        journal_path: "str | None" = None,
        inbox_limit: int = 1024,
        liveness_timeout: float = 5.0,
        flush_every: int = 64,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.journal_path = journal_path
        self.inbox_limit = inbox_limit
        self.liveness_timeout = liveness_timeout
        self.flush_every = flush_every
        self.journal: Optional[ServiceJournal] = None
        self.sessions: dict[str, Session] = {}
        self.tenants: dict[str, Tenant] = {}
        self._sessions_lock = threading.Lock()
        self._conns: dict[int, _Connection] = {}
        self._conns_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self.accepted = 0
        self.liveness_closes = 0
        self.protocol_errors = 0
        self._telemetry = _active_telemetry()
        if self._telemetry is not None:
            self._telemetry.registry.add_source("service", self.metrics_snapshot)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server not started")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def start(self) -> "VerificationServer":
        if self._started:
            raise RuntimeError("server already started")
        path = self.journal_path
        if path is not None:
            if os.path.exists(path) and os.path.getsize(path) > 0:
                raise JournalError(
                    f"service journal {path} is not empty; a sidecar writes "
                    "a fresh journal (move the old one aside to keep it)"
                )
            self.journal = ServiceJournal(path, flush_every=self.flush_every)
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        # Accept on a short timeout: closing a listening socket does not
        # wake a thread blocked in accept(), so a plain blocking accept
        # would make every stop() wait out the full thread-join timeout.
        listener.settimeout(0.25)
        self._listener = listener
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        acceptor.start()
        sweeper = threading.Thread(
            target=self._sweep_loop, name="repro-service-sweep", daemon=True
        )
        sweeper.start()
        self._threads += [acceptor, sweeper]
        return self

    def stop(self) -> None:
        """Close the listener, every connection, every session, the journal."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns.values())
        for conn in conns:
            self._drop_connection(conn)
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            session.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "VerificationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # accepting and serving connections
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while not self._stop.is_set():
            try:
                sock, addr = listener.accept()
            except TimeoutError:
                continue  # periodic stop-flag check
            except OSError:
                return  # listener closed by stop()
            self.accepted += 1
            conn = _Connection(sock, f"{addr[0]}:{addr[1]}")
            with self._conns_lock:
                self._conns[id(conn)] = conn
            reader = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-service-conn-{self.accepted}",
                daemon=True,
            )
            reader.start()

    def _drop_connection(self, conn: _Connection) -> None:
        with self._conns_lock:
            self._conns.pop(id(conn), None)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _serve_connection(self, conn: _Connection) -> None:
        try:
            session = self._handshake(conn)
            if session is None:
                return
            while not self._stop.is_set():
                record = conn.stream.recv()
                if record is None:
                    return  # orderly EOF
                conn.last_heard = monotonic()
                kind = validate_record(record, CLIENT_KINDS)
                if kind == "ping":
                    conn.reply({"kind": "pong"})
                elif kind == "stats":
                    # Introspection rides the connection, not the session
                    # inbox: `repro top --live` must see a snapshot even
                    # when the session's verification stream is backed up.
                    payload = self.snapshot()
                    tel = self._telemetry
                    if tel is not None and tel.tracer is not None:
                        # Ship the trace ring too, so the asking runtime
                        # can fold the sidecar's join_check track into
                        # its merged distributed trace.
                        payload["trace"] = tel.tracer.export_state(label="sidecar")
                        payload["metrics"] = tel.snapshot()
                    conn.reply(
                        _fit_stats_reply(
                            {
                                "kind": "stats_reply",
                                "req": record["req"],
                                "stats": payload,
                            }
                        )
                    )
                elif kind == "bye":
                    return
                elif kind == "hello":
                    raise ServiceProtocolError("duplicate hello on an open session")
                else:
                    session.submit(record, conn.reply)
        except ServiceProtocolError as exc:
            self.protocol_errors += 1
            try:
                conn.reply({"kind": "error", "message": str(exc)})
            except Exception:  # noqa: BLE001 - peer already gone
                pass
        except Exception:  # noqa: BLE001 - socket death in any form
            pass
        finally:
            self._drop_connection(conn)

    def _handshake(self, conn: _Connection) -> Optional[Session]:
        record = conn.stream.recv()
        if record is None:
            return None
        conn.last_heard = monotonic()
        kind = validate_record(record, CLIENT_KINDS)
        if kind != "hello":
            raise ServiceProtocolError(f"expected hello, got {kind!r}")
        if record["wire"] != WIRE_VERSION:
            raise ServiceProtocolError(
                f"wire version mismatch: client {record['wire']}, server {WIRE_VERSION}"
            )
        sid = record["session"]
        with self._sessions_lock:
            session = self._get_or_make_session(
                sid, record["policy"], record["fail_mode"], record.get("tenant")
            )
        conn.session_id = sid
        conn.reply(
            {
                "kind": "welcome",
                "session": sid,
                "fail_mode": session.fail_mode,
                "journal": self.journal is not None,
            }
        )
        return session

    def _get_or_make_session(
        self,
        sid: str,
        policy: str,
        fail_mode: str,
        tenant_name: "str | None",
    ) -> Session:
        """Find or create *sid*, attaching it to its tenant if named.

        Caller holds ``_sessions_lock``.  Sessions under one tenant
        share a verifier, so every member must agree on the policy — a
        hello that disagrees with its session or tenant is refused.
        """
        session = self.sessions.get(sid)
        if session is not None:
            if session.policy_name != policy:
                raise ServiceProtocolError(
                    f"session {sid!r} exists with policy "
                    f"{session.policy_name!r}, not {policy!r}"
                )
            current = session.tenant.name if session.tenant is not None else None
            if current != tenant_name:
                raise ServiceProtocolError(
                    f"session {sid!r} exists under tenant {current!r}, not {tenant_name!r}"
                )
            return session
        tenant = None
        if tenant_name is not None:
            tenant = self.tenants.get(tenant_name)
            if tenant is None:
                tenant = Tenant(tenant_name, policy, fail_mode)
                self.tenants[tenant_name] = tenant
            elif tenant.policy_name != policy:
                raise ServiceProtocolError(
                    f"tenant {tenant_name!r} verifies policy "
                    f"{tenant.policy_name!r}, not {policy!r}"
                )
        session = Session(
            sid,
            policy,
            fail_mode,
            journal=self.journal,
            inbox_limit=self.inbox_limit,
            telemetry=self._telemetry,
            tenant=tenant,
        )
        self.sessions[sid] = session
        if self.journal is not None:
            self.journal.log_session(
                sid, session.policy_name, session.fail_mode, tenant=tenant_name
            )
        return session

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _sweep_loop(self) -> None:
        interval = max(0.05, self.liveness_timeout / 4)
        while not self._stop.wait(interval):
            deadline = monotonic() - self.liveness_timeout
            with self._conns_lock:
                stale = [c for c in self._conns.values() if c.last_heard < deadline]
            for conn in stale:
                self.liveness_closes += 1
                self._drop_connection(conn)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> Session:
        with self._sessions_lock:
            return self.sessions[session_id]

    def metrics_snapshot(self) -> dict:
        with self._sessions_lock:
            n_sessions = len(self.sessions)
        with self._conns_lock:
            n_conns = len(self._conns)
        return {
            "sessions": n_sessions,
            "connections": n_conns,
            "accepted": self.accepted,
            "liveness_closes": self.liveness_closes,
            "protocol_errors": self.protocol_errors,
        }

    def snapshot(self) -> dict:
        """Server counters plus every session's snapshot (tests, `serve -v`)."""
        with self._sessions_lock:
            sessions = {sid: s.snapshot() for sid, s in self.sessions.items()}
        state = self.metrics_snapshot()
        state["per_session"] = sessions
        return state


# ----------------------------------------------------------------------
# process entry point: `python -m repro.service.server` / `repro serve`
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.server", description="run the verification sidecar"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--journal", default=None, help="server journal path (missing or empty)"
    )
    parser.add_argument("--inbox-limit", type=int, default=1024)
    parser.add_argument("--liveness-timeout", type=float, default=5.0)
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable telemetry in the server (metrics + join_check tracing)",
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        help="join an existing distributed trace instead of minting one",
    )
    args = parser.parse_args(argv)
    if args.obs:
        from .. import obs as _obs

        # Enabled before construction so the server and its sessions
        # capture the session; the trace id ties join_check spans into
        # the launching runtime's distributed trace.
        _obs.enable(tracing=True, trace_id=args.trace_id)
    server = VerificationServer(
        args.host,
        args.port,
        journal_path=args.journal,
        inbox_limit=args.inbox_limit,
        liveness_timeout=args.liveness_timeout,
    )
    try:
        server.start()
    except JournalError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    host, port = server.address

    # SIGTERM must run the clean stop (drain sessions, flush + close the
    # journal) — harness teardown relies on it; only SIGKILL loses state.
    def _on_sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)
    # The harness contract: one parseable line, flushed, then serve forever.
    print(f"LISTENING {host} {port}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
