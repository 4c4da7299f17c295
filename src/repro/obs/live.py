"""The live introspection plane: attach `repro top --live` to a run.

A running :class:`~repro.runtime.procs.ProcessRuntime` (``introspect=``)
or ``repro serve`` instance answers the wire protocol's ``stats``
record with a point-in-time snapshot; this module holds both halves of
that conversation for processes that are not otherwise wire endpoints:

* :class:`IntrospectionServer` — a deliberately tiny server speaking
  just the introspection subset of the PR 7 wire vocabulary (``hello``/
  ``stats``/``ping``/``bye``).  The runtime hands it a zero-argument
  *supplier* returning the current snapshot dict; every ``stats``
  request calls it fresh, so an attached ``top --live`` sees the fleet
  move.  The ``hello`` wire-version gate is enforced exactly like the
  full sidecar's, so a mismatched peer is refused with an ``error``
  record instead of garbage.
* :func:`fetch_stats` — the client half: one connect / hello / stats /
  bye exchange returning the snapshot.  It speaks raw records rather
  than a :class:`~repro.service.client.SessionClient` so attaching for
  introspection never creates verification state on a real sidecar
  beyond the session stub the handshake names.

Nothing here is on any hot path: the server thread blocks in
``accept``, and a snapshot is computed only when a client asks.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Optional

from ..errors import ServiceProtocolError, ServiceUnavailableError
from ..service.client import parse_remote_url
from ..service.wire import (
    WIRE_VERSION,
    RecordStream,
    dial,
    set_nodelay,
    validate_record,
)

__all__ = ["IntrospectionServer", "fetch_stats"]

#: the only client kinds the introspection plane understands
_INTROSPECT_KINDS = frozenset({"hello", "stats", "ping", "bye"})


class IntrospectionServer:
    """Serve live snapshots over the wire protocol's ``stats`` record.

    Parameters
    ----------
    supplier:
        Zero-argument callable returning the snapshot dict to serve.
        Called once per ``stats`` request, on the connection's reader
        thread — it must be safe to call concurrently with the run.
    port, host:
        Bind address; port 0 (default) picks a free port.  The bound
        endpoint is :attr:`url` after :meth:`start`.
    """

    def __init__(
        self,
        supplier: Callable[[], dict],
        *,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self._supplier = supplier
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        self._bound: Optional[tuple] = None
        #: lifetime counts (tests, snapshot debugging)
        self.connections = 0
        self.stats_served = 0

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The ``remote://host:port`` endpoint; valid after :meth:`start`
        (and still reported after :meth:`stop`, for post-run summaries)."""
        if self._bound is None:
            raise RuntimeError("introspection server not started")
        host, port = self._bound
        return f"remote://{host}:{port}"

    def start(self) -> "IntrospectionServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(8)
        self._listener = listener
        self._bound = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_main, daemon=True, name="repro-introspect"
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _accept_main(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            set_nodelay(sock)
            self.connections += 1
            with self._conns_lock:
                self._conns.add(sock)
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                daemon=True,
                name="repro-introspect-conn",
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        stream = RecordStream(sock)
        try:
            record = stream.recv()
            if record is None:
                return
            kind = validate_record(record, _INTROSPECT_KINDS)
            if kind != "hello":
                raise ServiceProtocolError(f"expected hello, got {kind!r}")
            if record["wire"] != WIRE_VERSION:
                raise ServiceProtocolError(
                    f"wire version mismatch: client {record['wire']}, "
                    f"server {WIRE_VERSION}"
                )
            stream.send(
                {
                    "kind": "welcome",
                    "session": record["session"],
                    "last_seq": -1,
                    "introspection": True,
                }
            )
            while not self._stop.is_set():
                record = stream.recv()
                if record is None:
                    return
                kind = validate_record(record, _INTROSPECT_KINDS)
                if kind == "stats":
                    self.stats_served += 1
                    stream.send(
                        {
                            "kind": "stats_reply",
                            "req": record["req"],
                            "stats": self._supplier(),
                        }
                    )
                elif kind == "ping":
                    stream.send({"kind": "pong"})
                elif kind == "bye":
                    return
                else:  # a second hello
                    raise ServiceProtocolError("duplicate hello")
        except ServiceProtocolError as exc:
            try:
                stream.send({"kind": "error", "message": str(exc)})
            except Exception:  # noqa: BLE001 - peer already gone
                pass
        except Exception:  # noqa: BLE001 - socket death in any form
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(sock)
            try:
                sock.close()
            except OSError:
                pass


def fetch_stats(url: str, *, timeout: float = 5.0, session: str = "top-live") -> dict:
    """One stats round-trip against *url* (``remote://host:port``).

    Works against either endpoint shape: an :class:`IntrospectionServer`
    or a full ``repro serve`` sidecar (both answer ``stats`` from the
    connection reader).  Raises
    :class:`~repro.errors.ServiceUnavailableError` when the peer is
    unreachable and :class:`~repro.errors.ServiceProtocolError` when it
    refuses the exchange (e.g. a wire-version mismatch).
    """
    host, port = parse_remote_url(url)
    hello = {
        "kind": "hello",
        "session": session,
        "policy": "TJ-SP",
        "fail_mode": "open",
        "wire": WIRE_VERSION,
    }
    stream, _ = dial(host, port, hello, timeout=timeout)
    try:
        stream.send({"kind": "stats", "req": 0})
        while True:
            reply = stream.recv()
            if reply is None:
                raise ServiceUnavailableError(f"{url} closed before stats_reply")
            kind = reply.get("kind")
            if kind == "stats_reply":
                stats = reply["stats"]
                try:
                    stream.send({"kind": "bye"})
                except ServiceUnavailableError:
                    pass
                return stats
            if kind == "error":
                raise ServiceProtocolError(str(reply.get("message")))
            # acks/pongs/quarantine announcements: keep reading
    finally:
        stream.sock.close()
