"""Crash-consistent write-ahead trace journal (append-only JSONL).

:class:`TraceJournal` extends the in-memory recorder idea of
:mod:`repro.tools.recorder` into a durable write-ahead log: every
verifier-visible event — init, fork, permission verdict, completed join,
blocked/unblocked edge, quarantine, retry, avoided deadlock — is
appended as one JSON object per line *as it happens*, so a run killed by
``kill -9`` leaves a replayable record of everything the verifier saw up
to the moment of death.  The verification sidecar's
:class:`ServiceJournal` writes the same format through the same
:class:`JournalWriter`, adding a ``session`` field and naming vertices
by client rid.

Durability model
----------------
Records are buffered and flushed in batches (``flush_every``), with
**critical points** flushed immediately: a *block* record is written out
before the thread goes to sleep ("flush before you sleep" — nearly free,
since the thread is about to block anyway), and quarantine / retry /
denied-verdict / avoided-deadlock records are flushed on the spot.  A
flush is a ``write(2)`` to the file descriptor, which survives process
death (``kill -9``) — the OS owns the page cache.  With ``fsync=True``
every critical flush is additionally fsynced, extending the guarantee to
machine crashes and power loss at the price of one ``fsync(2)`` per
critical record.

The practical upshot: for a process killed while stalled, the set of
edges whose ``block`` is durable and whose ``unblock`` is not is exactly
the set of joins blocked at death — which is what
:func:`repro.tools.replay.replay_journal` reports.

Reader
------
:func:`read_journal` tolerates exactly the damage a crash can cause — a
truncated *final* record (no trailing newline, or an unparsable last
line) — and treats anything else (mid-file garbage, a sequence-number
gap) as corruption, raising
:class:`~repro.errors.JournalCorruptError`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Optional, TypeVar

from ..errors import JournalCorruptError, JournalError
from ..obs import active as _active_telemetry

__all__ = ["TraceJournal", "ServiceJournal", "JournalReadResult", "read_journal",
           "read_trace_journal"]

#: record kinds a journal may contain, in the order they typically appear
KINDS = (
    "start",
    "init",
    "fork",
    "verdict",
    "join",
    "block",
    "unblock",
    "complete",
    "avoided",
    "quarantine",
    "retry",
)


_Writer = TypeVar("_Writer", bound="JournalWriter")


class JournalWriter:
    """The one writer of the journal format: the file, the lock every
    append takes (threads race, and seq numbers must be dense), ``seq``,
    the buffer and its flush policy, ``fsync`` and ``ts``.  Subclasses
    only format records, handing them to :meth:`_append` (or to
    :meth:`_emit` while holding the lock, to intern names under it).

    Parameters
    ----------
    path:
        File to append to (created if missing).  One journal per run;
        appending two runs to one file breaks the seq-density invariant
        the reader checks.
    flush_every:
        Buffered records are flushed every this-many appends (and at
        every critical record, and on close).
    fsync:
        When True, critical flushes are also fsynced for power-loss
        durability.  The default (False) is crash-consistent against
        process death, which is the post-mortem case that matters here.
    timestamps:
        When True, every record carries a ``ts`` field — nanoseconds
        since the journal was opened (``perf_counter_ns`` delta).  The
        reader tolerates the extra field either way; the trace exporter
        (:mod:`repro.tools.trace_export`) uses it to lay journal records
        out on a Perfetto timeline.
    """

    __slots__ = (
        "path",
        "_fh",
        "_lock",
        "_seq",
        "_buf",
        "_flush_every",
        "_fsync",
        "_closed",
        "records_written",
        "flushes",
        "_ts_base",
        "_obs",
        "__weakref__",
    )

    def __init__(
        self,
        path: str,
        *,
        flush_every: int = 64,
        fsync: bool = False,
        timestamps: bool = False,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be at least 1")
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0
        #: lines formatted but not yet handed to the file.  A Python-list
        #: buffer costs one append on the hot path where ``fh.write``
        #: costs a buffered-IO call; durability is identical — either
        #: way a record is only kill-9-safe after a flush.
        self._buf: list[str] = []
        self._flush_every = flush_every
        self._fsync = fsync
        self._closed = False
        #: total records written (read by tests and the CLI)
        self.records_written = 0
        #: flushes issued (batch-full, critical, and close)
        self.flushes = 0
        self._ts_base = perf_counter_ns() if timestamps else None
        self._obs = _active_telemetry()
        if self._obs is not None:
            self._obs.registry.add_source("journal", self.metrics_snapshot)

    def metrics_snapshot(self) -> dict:
        """Uniform stats-source protocol for the journal's counters."""
        return {
            "records_written": self.records_written,
            "flushes": self.flushes,
        }

    def _emit(self, body: str, critical: bool) -> None:
        """Append one record; the caller holds the lock.

        *body* is the record's JSON fields sans ``seq`` (built with
        f-strings, not :func:`json.dumps` — record-dense programs put
        this call on the hot path, and the ``runtime.journal`` bound of
        ``repro bench-record`` prices every
        microsecond here).  Task names (``tN``) and int rids never need
        escaping; loggers quote arbitrary strings (policy names, session
        ids, error reprs) with :func:`json.dumps`.
        """
        if self._closed:
            raise JournalError("journal already closed")
        if self._ts_base is not None:
            body = f'{body},"ts":{perf_counter_ns() - self._ts_base}'
        self._buf.append(f'{{{body},"seq":{self._seq}}}\n')
        self._seq += 1
        self.records_written += 1
        if critical or len(self._buf) >= self._flush_every:
            self._flush_locked(fsync=critical and self._fsync)

    def _append(self, body: str, critical: bool) -> None:
        """:meth:`_emit` under the lock, for a record formatted outside it."""
        with self._lock:
            self._emit(body, critical)

    def _flush_locked(self, *, fsync: bool) -> None:
        """Push buffered lines to the OS; the caller holds the lock."""
        obs = self._obs
        t0 = perf_counter_ns() if obs is not None else 0
        if self._buf:
            self._fh.write("".join(self._buf))
            self._buf.clear()
        self._fh.flush()
        if fsync:
            os.fsync(self._fh.fileno())
        self.flushes += 1
        if obs is not None:
            obs.journal_flush_ns.observe(perf_counter_ns() - t0)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush_locked(fsync=False)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked(fsync=self._fsync)
            self._closed = True
            self._fh.close()

    def __enter__(self: _Writer) -> _Writer:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class TraceJournal(JournalWriter):
    """Append-only JSONL journal of one runtime execution.

    Vertices are interned to stable names (``t0``, ``t1``, ... in fork
    order) exactly like the in-memory recorder; the journal keeps a
    strong reference to each named vertex so ``id()`` reuse can never
    misattribute an event to a dead task's name.  The parameters are
    the writer's (:class:`JournalWriter`).
    """

    __slots__ = ("_names", "_pinned", "_count")

    def __init__(
        self,
        path: str,
        *,
        flush_every: int = 64,
        fsync: bool = False,
        timestamps: bool = False,
    ) -> None:
        super().__init__(
            path, flush_every=flush_every, fsync=fsync, timestamps=timestamps
        )
        self._names: dict[int, str] = {}
        self._pinned: list[object] = []  # strong refs: id() reuse guard
        self._count = 0

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def _intern(self, vertex: object) -> str:
        """Name *vertex* (caller holds the lock)."""
        name = self._names.get(id(vertex))
        if name is None:
            name = f"t{self._count}"
            self._count += 1
            self._names[id(vertex)] = name
            self._pinned.append(vertex)
        return name

    def name_of(self, vertex: object) -> str:
        """The stable journal name of *vertex* (interning it if new)."""
        with self._lock:
            return self._intern(vertex)

    # ------------------------------------------------------------------
    # event loggers (called by the verifier / runtimes)
    # ------------------------------------------------------------------
    def log_start(self, *, policy: str, runtime: str, fail_mode: str) -> None:
        """The header record: what configuration produced this journal."""
        with self._lock:
            self._emit(
                f'"kind":"start","policy":{json.dumps(policy)},'
                f'"runtime":{json.dumps(runtime)},'
                f'"fail_mode":{json.dumps(fail_mode)}',
                True,
            )

    def log_init(self, vertex: object) -> None:
        with self._lock:
            name = self._intern(vertex)
            self._emit(f'"kind":"init","task":"{name}"', False)

    def log_fork(self, parent: object, child: object) -> None:
        with self._lock:
            pname = self._intern(parent)
            cname = self._intern(child)
            self._emit(f'"kind":"fork","parent":"{pname}","child":"{cname}"', False)

    def log_verdict(self, joiner: object, joinee: object, ok: bool) -> None:
        """The permission check, at check time (write-ahead of the join)."""
        with self._lock:
            a = self._intern(joiner)
            b = self._intern(joinee)
            # A denial is about to fault or refer to Armus: make it durable.
            self._emit(
                f'"kind":"verdict","waiter":"{a}","joinee":"{b}",'
                f'"ok":{"true" if ok else "false"}',
                not ok,
            )

    def log_join(self, joiner: object, joinee: object) -> None:
        """A join that ran to completion (post-wait)."""
        with self._lock:
            a = self._intern(joiner)
            b = self._intern(joinee)
            self._emit(f'"kind":"join","waiter":"{a}","joinee":"{b}"', False)

    def log_block(
        self, joiner: object, joinee: object, timeout: Optional[float] = None
    ) -> None:
        """A join is about to block; flushed before the thread sleeps.

        *timeout* — when the wait carries a deadline — is recorded so
        the predictor knows a later ``unblock`` without a ``join`` may
        be a timeout rescue rather than a completion.
        """
        with self._lock:
            a = self._intern(joiner)
            b = self._intern(joinee)
            body = f'"kind":"block","waiter":"{a}","joinee":"{b}"'
            if timeout is not None:
                body += f',"timeout":{float(timeout)!r}'
            self._emit(body, True)

    def log_unblock(self, joiner: object, joinee: object) -> None:
        with self._lock:
            a = self._intern(joiner)
            b = self._intern(joinee)
            self._emit(f'"kind":"unblock","waiter":"{a}","joinee":"{b}"', False)

    def log_complete(self, vertex: object, ok: bool = True) -> None:
        """A task terminated (``ok=False``: with an unretried failure).

        Optional — older journals lack it; the predictor's partial
        order uses it to pin completion points between joins.
        """
        with self._lock:
            name = self._intern(vertex)
            self._emit(
                f'"kind":"complete","task":"{name}",'
                f'"ok":{"true" if ok else "false"}',
                False,
            )

    def log_avoided(self, joiner: object, joinee: object) -> None:
        """A blocking join was refused: it would have closed a true cycle."""
        with self._lock:
            a = self._intern(joiner)
            b = self._intern(joinee)
            self._emit(f'"kind":"avoided","waiter":"{a}","joinee":"{b}"', True)

    def log_quarantine(self, policy: str, site: str, error: str) -> None:
        with self._lock:
            self._emit(
                f'"kind":"quarantine","policy":{json.dumps(policy)},'
                f'"site":{json.dumps(site)},"error":{json.dumps(error)}',
                True,
            )

    def log_retry(self, task: object, new_task: object, attempt: int, error: str) -> None:
        """A failed task was re-forked; *new_task* is the fresh vertex."""
        with self._lock:
            old = self._intern(task)
            new = self._intern(new_task)
            self._emit(
                f'"kind":"retry","task":"{old}","reborn":"{new}",'
                f'"attempt":{int(attempt)},"error":{json.dumps(error)}',
                True,
            )


def _rid(value: object) -> str:
    """A wire rid as JSON: ints inline, anything else a peer sent encoded."""
    return str(value) if type(value) is int else json.dumps(value)


#: optional state-event fields; edge/depth are the authoritative placement
#: on tenant forks — a replay must not re-derive sibling order from arrival
_EVENT_FIELDS = ("task", "parent", "child", "waiter", "joinee", "edge", "depth")


class ServiceJournal(JournalWriter):
    """Append-only JSONL journal of every sidecar session's stream.

    The record vocabulary is the trace journal's (``start``/``init``/
    ``fork``/``join``/``verdict``/``quarantine``) with a ``session``
    field on every record and client-assigned integer rids instead of
    interned ``tN`` names.  ``seq`` is global and dense across all
    sessions — the interleaving *is* the information a post-mortem
    needs, and density is what :func:`read_journal` verifies.
    """

    __slots__ = ()

    def __init__(self, path: str, *, flush_every: int = 64) -> None:
        super().__init__(path, flush_every=flush_every)

    def log_session(
        self,
        session_id: str,
        policy: str,
        fail_mode: str,
        tenant: "str | None" = None,
    ) -> None:
        """A session came into existence; critical — a post-mortem replay
        reads every later record of the session against it."""
        body = (
            f'"kind":"start","session":{json.dumps(session_id)},'
            f'"policy":{json.dumps(policy)},"fail_mode":{json.dumps(fail_mode)},'
            f'"runtime":"service"'
        )
        if tenant is not None:
            body += f',"tenant":{json.dumps(tenant)}'
        self._append(body, True)

    def log_event(self, session_id: str, record: dict) -> None:
        """One validated state event (``init``/``fork``/``join``) as it arrived."""
        body = (
            f'"kind":"{record["kind"]}","session":{json.dumps(session_id)},'
            f'"cseq":{_rid(record["cseq"])}'
        )
        for name in _EVENT_FIELDS:
            if name in record:
                body += f',"{name}":{_rid(record[name])}'
        self._append(body, False)

    def log_verdict(self, session_id: str, waiter: int, joinee: int, ok: bool) -> None:
        # Always critical: the verdict reply must not outrun durability.
        # A kill -9 between an answered check and its flush would leave
        # the post-mortem replay (`repro journal-replay`) short of a
        # verdict a client acted on.  (A flush is a buffered write to the
        # page cache, not an fsync; the cost is noise next to the network
        # round trip the check already paid.)
        body = (
            f'"kind":"verdict","session":{json.dumps(session_id)},'
            f'"waiter":{_rid(waiter)},"joinee":{_rid(joinee)},'
            f'"ok":{"true" if ok else "false"}'
        )
        self._append(body, True)

    def log_quarantine(self, session_id: str, policy: str, site: str, error: str) -> None:
        body = (
            f'"kind":"quarantine","session":{json.dumps(session_id)},'
            f'"policy":{json.dumps(policy)},"site":{json.dumps(site)},'
            f'"error":{json.dumps(error)}'
        )
        self._append(body, True)


# ----------------------------------------------------------------------
# the torn-tail-tolerant reader
# ----------------------------------------------------------------------
@dataclass
class JournalReadResult:
    """What :func:`read_journal` recovered from a journal file."""

    records: list[dict] = field(default_factory=list)
    #: True when the final record was truncated mid-write (crash tail)
    torn_tail: bool = False
    #: the dropped tail fragment, for diagnostics (empty when not torn)
    tail: str = ""


def read_journal(path: str) -> JournalReadResult:
    """Read a journal, tolerating exactly one torn record at the tail.

    A record is *complete* when its line ends with a newline and parses
    as JSON with a dense ``seq``.  The final line may be incomplete (no
    trailing newline — the classic ``kill -9`` torn write) or, if the
    crash landed inside the OS write, unparsable; either way it is
    dropped and flagged.  Any earlier unparsable line or any sequence
    gap raises :class:`~repro.errors.JournalCorruptError` — that is not
    crash damage, and silently skipping records would make the
    post-mortem lie.
    """
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        text = fh.read()
    result = JournalReadResult()
    if not text:
        return result
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # clean trailing newline
    else:
        result.torn_tail = True
        result.tail = lines.pop()
    last = len(lines) - 1
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "seq" not in record:
                raise ValueError("not a journal record")
        except ValueError as exc:
            if i == last and not result.torn_tail:
                # A final *complete-looking* line that does not parse can
                # only be a write cut inside the payload; fold it into
                # the torn tail rather than calling the file corrupt.
                result.torn_tail = True
                result.tail = line
                break
            raise JournalCorruptError(
                f"unparsable record at line {i + 1} of {path}: {line[:120]!r}"
            ) from exc
        expected = len(result.records)
        if record["seq"] != expected:
            raise JournalCorruptError(
                f"sequence gap at line {i + 1} of {path}: "
                f"expected seq {expected}, found {record['seq']}"
            )
        result.records.append(record)
    return result


def read_trace_journal(path: str, reader: str) -> JournalReadResult:
    """:func:`read_journal` for a *reader* that parses trace-journal task
    names (``tN``): a sidecar journal raises :class:`JournalError`."""
    result = read_journal(path)
    if result.records and "session" in result.records[0]:
        raise JournalError(f"{path} is a sidecar journal; {reader} reads trace journals only")
    return result
