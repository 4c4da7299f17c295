"""The verification sidecar: a multi-tenant TJ verifier behind a socket.

One :class:`VerificationServer` owns a listening socket, a set of
:class:`~repro.service.session.Session` objects (one per tenant, each
with its own policy instance and worker thread), and an optional
:class:`ServiceJournal`.  Connections are thin: a reader thread per
socket validates frames and routes them to the session named in the
``hello`` handshake.  Because sessions outlive connections, a client
whose TCP link died (or that outlived a server restart, when a journal
is configured) resumes by re-sending ``hello`` for the same session id
and replaying everything past the ``last_seq`` the ``welcome`` quotes.

Crash consistency
-----------------
The server journal is written by the trace journal's own writer (see
:mod:`repro.tools.journal`) — dense global ``seq``, readable by
:func:`repro.tools.journal.read_journal` with its torn-tail tolerance —
with a ``session`` column added to every record.  On restart the server
*compacts*: it reads the old journal, rebuilds each session by replaying
records through :meth:`Session.apply` (the exact code path live traffic
takes, so recovery cannot drift from normal operation) while writing a
fresh journal at ``path + ".compact"``, then atomically ``os.replace``\\ s
it over the old file and keeps appending.  Compaction is what preserves
the reader's seq-density invariant across restarts — naive re-appending
would restart ``seq`` at the torn tail and corrupt the file for every
later reader.

Liveness
--------
A sweeper thread closes connections that have been silent longer than
``liveness_timeout`` (clients heartbeat with ``ping`` well inside it).
Closing a connection never destroys its session — the tenant's verifier
state waits for the resume.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import threading
import warnings
from time import monotonic
from typing import Optional

from ..errors import JournalCorruptError, ServiceProtocolError
from ..obs import active as _active_telemetry
from ..tools.journal import ServiceJournal, read_journal
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
        :class:`ServiceJournal`, and :meth:`start` first *recovers*:
        live sessions are rebuilt from the journal (compacting it in the
        process) so a ``kill -9`` of the sidecar loses nothing that was
        flushed.
    inbox_limit, ack_every:
        Forwarded to every :class:`Session` (backpressure bound and
        durability-ack cadence).
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
        ack_every: int = 256,
        liveness_timeout: float = 5.0,
        flush_every: int = 64,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.journal_path = journal_path
        self.inbox_limit = inbox_limit
        self.ack_every = ack_every
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
        #: recovery summary of the last start(): sessions rebuilt, records replayed
        self.recovered_sessions = 0
        self.recovered_records = 0
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
        self._started = True
        if self.journal_path is not None:
            self._recover()
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
    # crash recovery: rebuild sessions, compact the journal
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild sessions from the previous incarnation's journal.

        Replays through :meth:`Session.apply` — the live code path —
        into a fresh compacted journal, then atomically replaces the old
        file.  Verdict records are replayed as policy re-derivations so
        the rebuilt sessions' ``joins_checked``/``joins_rejected`` match
        what the dead server had counted (TJ verdicts are stable, so the
        re-derived answers match too).  A journal corrupted beyond the
        torn-tail tolerance is set aside (``path + ".corrupt"``) and the
        server starts empty rather than guessing at tenant state.
        """
        path = self.journal_path
        assert path is not None
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            self.journal = ServiceJournal(path, flush_every=self.flush_every)
            return
        try:
            result = read_journal(path)
        except JournalCorruptError as exc:
            corrupt = path + ".corrupt"
            os.replace(path, corrupt)
            warnings.warn(
                f"service journal {path} unreadable ({exc}); moved to {corrupt}, "
                "starting with no sessions",
                RuntimeWarning,
                stacklevel=2,
            )
            self.journal = ServiceJournal(path, flush_every=self.flush_every)
            return
        compact_path = path + ".compact"
        journal = ServiceJournal(compact_path, flush_every=self.flush_every)
        self.journal = journal
        for record in result.records:
            sid = record.get("session")
            kind = record.get("kind")
            if sid is None or kind is None:
                continue  # foreign record; compaction drops it
            if kind == "start":
                try:
                    # Routes through the tenant map, so a recovered
                    # worker-group shares one verifier again.
                    self._get_or_make_session(
                        sid,
                        record["policy"],
                        record.get("fail_mode", "open"),
                        record.get("tenant"),
                    )
                except ServiceProtocolError:
                    continue  # conflicting start records; keep the first
                continue
            session = self.sessions.get(sid)
            if session is None:
                continue  # events before any start record: nothing to attach to
            if kind in ("init", "fork", "join"):
                try:
                    session.apply(record, reply=None)
                except Exception:  # noqa: BLE001 - one bad record must not kill recovery
                    continue
            elif kind == "verdict":
                # Re-derive instead of trusting the stored bit: same
                # stats, and the compact journal gets a fresh verdict
                # record written by the session itself.
                try:
                    session.apply(
                        {
                            "kind": "recheck",
                            "waiter": record["waiter"],
                            "joinee": record["joinee"],
                        },
                        reply=None,
                    )
                except Exception:  # noqa: BLE001 - e.g. rids whose fork never flushed
                    continue
            elif kind == "quarantine":
                # The bug may not re-trip on replay (the policy state
                # that broke is gone); carry the diagnosis forward so
                # the post-mortem record survives compaction.
                journal.log_quarantine(
                    sid, record.get("policy", "?"), record.get("site", "?"),
                    record.get("error", ""),
                )
                session._quarantine_announced = True
            self.recovered_records += 1
        self.recovered_sessions = len(self.sessions)
        journal.flush()
        os.replace(compact_path, path)
        journal.path = path

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
                "last_seq": session.applied_seq,
                "quarantined": session.verifier.quarantined,
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
        share a verifier, so every member must agree on the policy —
        a mismatched hello is refused just like a mismatched resume.
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
            ack_every=self.ack_every,
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
            "recovered_sessions": self.recovered_sessions,
            "recovered_records": self.recovered_records,
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
    parser.add_argument("--journal", default=None, help="server journal path (enables recovery)")
    parser.add_argument("--inbox-limit", type=int, default=1024)
    parser.add_argument("--ack-every", type=int, default=256)
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
        ack_every=args.ack_every,
        liveness_timeout=args.liveness_timeout,
    )
    server.start()
    host, port = server.address

    # SIGTERM must run the clean stop (drain sessions, flush + close the
    # journal) — harness teardown relies on it; only SIGKILL loses state.
    def _on_sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)
    # The harness contract: one parseable line, flushed, then serve forever.
    print(f"LISTENING {host} {port}", flush=True)
    if server.recovered_sessions:
        print(
            f"RECOVERED {server.recovered_sessions} sessions "
            f"({server.recovered_records} records)",
            flush=True,
        )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
