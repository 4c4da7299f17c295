"""Per-tenant session state for the verification sidecar.

One :class:`Session` owns one :class:`~repro.core.verifier.Verifier`
(and therefore one policy instance): the fault isolation the server
promises — one tenant's policy bug never poisons another — falls out of
that ownership, because quarantine is a per-verifier property.

Events arrive through a **bounded inbox** drained by a dedicated worker
thread.  The bound is the backpressure mechanism: a client producing
events faster than its session can verify them has its records refused
with an explicit ``backpressure`` reply (the client raises
:class:`~repro.errors.ServiceBackpressureError`) instead of growing
server memory without bound.  Synchronous ``check`` queries ride the
same inbox as the fire-and-forget state events, which is what makes
them *synchronous with respect to the stream*: a check is answered only
after every earlier fork from the same client has been applied.  So is
a ``sync``: its ``synced`` reply counts every earlier ``recheck``.

Client vertex ids (``rid``) are dense ints assigned client-side; the
session maps them to policy vertices.  ``applied_seq`` tracks the
highest state-event sequence number applied, so a resuming client can
replay exactly the gap (records with ``cseq > applied_seq``) and
duplicates from an over-eager replay are dropped idempotently.  The
watermark only ever advances contiguously: an event that arrives past a
backpressure-refused predecessor is dropped rather than applied, so the
``welcome``'s ``last_seq`` never overstates what the session holds.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from ..core.policy import make_policy
from ..core.verifier import Verifier
from ..errors import PolicyQuarantinedError, ServiceProtocolError
from ..obs.metrics import Counter
from .mirror import MirroredSpawnPaths

__all__ = ["Session", "Tenant"]

#: sentinel shutting a session worker down
_CLOSE = object()


class Tenant:
    """Verification state shared by a *group* of sessions.

    The multi-process runtime opens one session per worker process but
    all workers fork into one spawn-path forest, so their sessions must
    share one policy instance and one rid namespace — that sharing is a
    tenant.  Every member session applies records under the tenant's
    lock (the sessions' worker threads interleave), against the tenant's
    verifier and ``vertices`` map.

    Cross-session ordering is the one new problem, twice over.  First,
    worker B may check a join against a vertex whose announcing ``fork``
    is still queued in worker A's session: records that reference a
    not-yet-known rid are **parked** keyed by the missing rid and
    replayed the moment any member session inserts it; state events are
    journalled at arrival (recovery replays them in arrival order and
    parks identically), and synchronous checks simply answer late —
    which is exactly the stream-synchronous semantics a single session
    already has, lifted to the tenant.  A rid that never arrives (a
    client bug) parks its records forever; clients bound the wait with
    their own timeouts.  Second, *sibling order*: two workers' fork
    announcements race, so the tenant must not re-derive edge indices
    from arrival order — tenant fork records carry the authoritative
    ``edge``/``depth`` from the client's shared tree and the tenant
    verifies over a :class:`~repro.service.mirror.MirroredSpawnPaths`
    that applies them verbatim.  That mirror is TJ-SP-shaped, so only
    TJ-SP-family policies may open a tenant.
    """

    def __init__(self, name: str, policy_name: str, fail_mode: str = "open") -> None:
        if not policy_name.startswith("TJ-SP"):
            raise ServiceProtocolError(
                f"tenants verify via an authoritative spawn-path mirror; "
                f"policy {policy_name!r} is not TJ-SP-family"
            )
        self.name = name
        self.policy_name = policy_name
        self.fail_mode = "open" if fail_mode == "raise" else fail_mode
        self.policy = MirroredSpawnPaths(policy_name)
        self.verifier = Verifier(self.policy, fail_mode=self.fail_mode)
        self.vertices: dict[int, object] = {}
        self.lock = threading.RLock()
        #: missing rid -> [(session, stripped record, reply), ...]
        self.parked: dict[int, list] = {}
        #: rids inserted while a drain is running (processed by the outer drain)
        self.pending_rids: list[int] = []
        self.draining = False
        #: lifetime count of parked records (observability)
        self.parked_total = 0

    def parked_count(self) -> int:
        return sum(len(v) for v in self.parked.values())


class Session:
    """One tenant's verification stream inside the sidecar.

    Parameters
    ----------
    session_id:
        The tenant's chosen identifier (any string; clients pick
        something unique per runtime instance).
    policy_name:
        Registered policy name; the session owns a private instance.
    fail_mode:
        The client's requested fault boundary.  ``"raise"`` cannot be
        honoured across a process boundary (the original exception
        object cannot propagate into the client's stack), so it is
        coerced to ``"open"`` — the degraded-but-sound posture — and
        the coercion is reported in the session's ``welcome``.
    journal:
        The server's shared :class:`~repro.tools.journal.ServiceJournal`
        (or None); state events and verdicts are written through so a
        restarted server rebuilds this session exactly.
    inbox_limit:
        Bound on queued-but-unapplied records for this session.
    ack_every:
        Send a durability ``ack`` (and flush the journal) every this
        many state events, letting the client prune its replay buffer.
        Acks are only sent when a journal is present — without one, a
        restarted server has nothing to resume from and the client must
        keep its full replay log.
    """

    def __init__(
        self,
        session_id: str,
        policy_name: str,
        fail_mode: str,
        *,
        journal: "object | None" = None,
        inbox_limit: int = 1024,
        ack_every: int = 256,
        telemetry: "object | None" = None,
        tenant: "Tenant | None" = None,
    ) -> None:
        self.session_id = session_id
        self.policy_name = policy_name
        self.requested_fail_mode = fail_mode
        self.fail_mode = "open" if fail_mode == "raise" else fail_mode
        self.tenant = tenant
        if tenant is not None:
            # Member sessions verify against the tenant's shared state;
            # stats and quarantine are therefore tenant-wide.
            self.verifier = tenant.verifier
            self.vertices = tenant.vertices
        else:
            self.verifier = Verifier(make_policy(policy_name), fail_mode=self.fail_mode)
            self.vertices: dict[int, object] = {}
        self.journal = journal
        self.applied_seq = -1
        self.inbox_limit = inbox_limit
        self.ack_every = max(1, ack_every)
        self.inbox: "queue.Queue" = queue.Queue(maxsize=inbox_limit)
        #: records refused because the inbox was full
        self.backpressure_refusals = 0
        #: events dropped because an earlier record was refused (gap)
        self.gap_drops = 0
        #: rechecks re-derived, and those whose client verdict disagreed
        self.rechecks = 0
        self.recheck_mismatches = 0
        #: rechecks parked on a missing rid, and the syncs waiting on them
        self._rechecks_parked = 0
        self._held_syncs: list = []
        #: test seam: clearing this gate parks the worker between records,
        #: letting tests fill the inbox deterministically
        self.drain_gate = threading.Event()
        self.drain_gate.set()
        self._quarantine_announced = False
        self._closed = False
        self._lock = threading.Lock()
        # Applied state events and answered checks: the labelled counter
        # is the one store, shared with the registry under telemetry.
        counter = telemetry.registry.counter if telemetry is not None else Counter
        labels = {"session": session_id}
        self._events = counter("repro_service_events_total", labels=labels)
        self._checks = counter("repro_service_checks_total", labels=labels)
        self._telemetry = telemetry
        self._worker = threading.Thread(
            target=self._worker_main,
            name=f"repro-session-{session_id}",
            daemon=True,
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # intake (called from connection reader threads)
    # ------------------------------------------------------------------
    def submit(self, record: dict, reply: Callable[[dict], None]) -> bool:
        """Queue *record*; returns False (after a backpressure reply) when full.

        *reply* is the connection's locked send function; the worker
        uses it for verdicts/acks, the refusal path uses it directly.
        """
        try:
            self.inbox.put_nowait((record, reply))
            return True
        except queue.Full:
            with self._lock:
                self.backpressure_refusals += 1
            refusal = {"kind": "backpressure", "limit": self.inbox_limit}
            if "req" in record:
                refusal["req"] = record["req"]
            if "cseq" in record:
                refusal["cseq"] = record["cseq"]
            reply(refusal)
            return False

    def close(self) -> None:
        """Stop the worker; queued records are drained first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.inbox.put((_CLOSE, None))
        self._worker.join(timeout=5.0)

    # ------------------------------------------------------------------
    # the worker
    # ------------------------------------------------------------------
    def _worker_main(self) -> None:
        while True:
            record, reply = self.inbox.get()
            if record is _CLOSE:
                return
            self.drain_gate.wait()
            try:
                self.apply(record, reply)
            except ServiceProtocolError as exc:
                self._safe_reply(
                    reply, {"kind": "error", "message": str(exc), "req": record.get("req")}
                )
            except Exception as exc:  # noqa: BLE001 - a session must not die silently
                self._safe_reply(
                    reply,
                    {"kind": "error", "message": f"internal: {exc!r}", "req": record.get("req")},
                )

    @staticmethod
    def _safe_reply(reply: Optional[Callable[[dict], None]], record: dict) -> None:
        """Replies race connection death; a dead peer is not a session error."""
        if reply is None:
            return
        try:
            reply(record)
        except Exception:  # noqa: BLE001 - connection gone; the record is moot
            pass

    # ------------------------------------------------------------------
    # record application (worker thread, or recovery replay)
    # ------------------------------------------------------------------
    def _vertex(self, rid: object) -> object:
        try:
            return self.vertices[rid]
        except (KeyError, TypeError):
            raise ServiceProtocolError(
                f"session {self.session_id!r}: unknown vertex rid {rid!r}"
            ) from None

    def apply(self, record: dict, reply: Optional[Callable[[dict], None]] = None) -> None:
        """Apply one validated record; sends any reply through *reply*.

        Also the recovery entry point: the server replays journal
        records through this method (with ``reply=None``) to rebuild the
        session, so live application and crash recovery cannot drift.
        Tenanted sessions serialize through the tenant lock — their
        worker threads interleave over shared verifier state.
        """
        if self.tenant is not None:
            with self.tenant.lock:
                self._apply(record, reply)
        else:
            self._apply(record, reply)

    def _apply(self, record: dict, reply: Optional[Callable[[dict], None]]) -> None:
        kind = record["kind"]
        journal = self.journal
        if kind in ("init", "fork", "join"):
            cseq = record["cseq"]
            if cseq <= self.applied_seq:
                return  # duplicate from a replay; idempotent drop
            if cseq != self.applied_seq + 1:
                # A gap: an earlier record was refused under backpressure
                # and this one slipped in behind it.  Applying it would
                # advance the resume watermark past the hole, and the
                # refused record — which the client only replays for
                # ``cseq > last_seq`` — would be lost forever.  Drop it;
                # the client's replay buffer still holds both, and the
                # next reconcile replays from the honest watermark.
                with self._lock:
                    self.gap_drops += 1
                return
            self._events.inc()
            self._apply_state(kind, record)
            self.applied_seq = cseq
            if journal is not None:
                journal.log_event(self.session_id, record)
                if cseq % self.ack_every == 0:
                    journal.flush()
                    self._safe_reply(reply, {"kind": "ack", "seq": cseq})
            self._announce_quarantine(reply)
        elif kind == "check":
            self._checks.inc()
            self._do_check(record, reply)
        elif kind == "check_batch":
            self._checks.inc(len(record["joinees"]))
            self._do_check_batch(record, reply)
        elif kind == "recheck":
            self._checks.inc()
            self._do_recheck(record, reply)
        elif kind == "sync":
            self._do_sync(record, reply)
        else:
            raise ServiceProtocolError(f"session cannot apply record kind {kind!r}")

    # -- semantic application (parkable; shared by live apply and unpark) --
    def _apply_state(self, kind: str, record: dict) -> None:
        """The state transition of one init/fork/join event.

        Sequencing (cseq) and journaling stay with the caller: a parked
        event was already sequenced and journalled on arrival, so its
        replay comes straight here.
        """
        verifier = self.verifier
        tenant = self.tenant
        if kind == "init":
            rid = record["task"]
            if tenant is not None:
                tenant.policy.stage(rid, -1, 0, 0)
            self.vertices[rid] = verifier.on_init()
            self._unpark(rid)
        elif kind == "fork":
            parent = record["parent"]
            if self._park_if_missing((parent,), record, None):
                return
            if tenant is not None:
                # Authoritative placement: arrival order across worker
                # sessions must not invent sibling edge indices.
                try:
                    edge, depth = record["edge"], record["depth"]
                except KeyError:
                    raise ServiceProtocolError(
                        "tenant fork records must carry edge/depth"
                    ) from None
                tenant.policy.stage(record["child"], parent, edge, depth)
            self.vertices[record["child"]] = verifier.on_fork(self.vertices[parent])
            self._unpark(record["child"])
        else:  # join (the KJ-learn event)
            waiter, joinee = record["waiter"], record["joinee"]
            if self._park_if_missing((waiter, joinee), record, None):
                return
            try:
                verifier.on_join_completed(self.vertices[waiter], self.vertices[joinee])
            except PolicyQuarantinedError:
                pass  # fail-closed session: reported via the check path

    def _begin_check_span(self, record: dict) -> "tuple | None":
        """Open the ``join_check`` span for a check, parented under the
        client's dispatched trace context when the record carries one
        (optional ``trace``/``span`` fields) — that adoption is what
        stitches the sidecar's track into the runtime's distributed
        trace."""
        tel = self._telemetry
        if tel is None or tel.tracer is None:
            return None
        trace, span = record.get("trace"), record.get("span")
        parent = (trace, span) if trace is not None and span is not None else None
        return tel.tracer.begin_span("join_check", parent=parent)

    def _end_check_span(self, handle, args: dict) -> None:
        if handle is not None:
            args["session"] = self.session_id
            self._telemetry.tracer.end_span(handle, cat="verify", args=args)

    def _do_check(self, record: dict, reply) -> None:
        waiter, joinee = record["waiter"], record["joinee"]
        if self._park_if_missing((waiter, joinee), record, reply):
            return
        handle = self._begin_check_span(record)
        try:
            ok = self.verifier.check_join(self._vertex(waiter), self._vertex(joinee))
        except PolicyQuarantinedError as exc:
            # Fail-closed session: the client's pending check must
            # still complete — the quarantine record carries the
            # request id and the client raises the stored error.
            self._announce_quarantine(reply, exc, req=record["req"])
            return
        finally:
            self._end_check_span(handle, {"waiter": waiter, "joinee": joinee})
        if self.journal is not None:
            self.journal.log_verdict(self.session_id, waiter, joinee, ok)
        self._announce_quarantine(reply)
        self._safe_reply(reply, {"kind": "verdict", "req": record["req"], "ok": ok})

    def _do_check_batch(self, record: dict, reply) -> None:
        joinees = record["joinees"]
        waiter = record["waiter"]
        if self._park_if_missing((waiter, *joinees), record, reply):
            return
        handle = self._begin_check_span(record)
        try:
            oks = self.verifier.check_joins(
                self._vertex(waiter), [self._vertex(j) for j in joinees]
            )
        except PolicyQuarantinedError as exc:
            self._announce_quarantine(reply, exc, req=record["req"])
            return
        finally:
            self._end_check_span(
                handle, {"waiter": waiter, "batch": len(joinees)}
            )
        if self.journal is not None:
            for joinee, ok in zip(joinees, oks):
                self.journal.log_verdict(self.session_id, waiter, joinee, ok)
        self._announce_quarantine(reply)
        self._safe_reply(reply, {"kind": "verdicts", "req": record["req"], "ok": oks})

    def _do_recheck(self, record: dict, reply) -> None:
        # A verdict the client answered locally: a procs audit, carrying
        # the ``ok`` the runtime acted on, or a reconcile replay.  Re-derive
        # it and journal the verdict acted on, so `repro journal-replay`
        # re-derives it too; a disagreement is counted.  No reply.
        waiter, joinee = record["waiter"], record["joinee"]
        if self._park_if_missing((waiter, joinee), record, reply):
            self._rechecks_parked += 1
            return
        handle = self._begin_check_span(record)
        try:
            ok = self.verifier.check_join(self._vertex(waiter), self._vertex(joinee))
        except PolicyQuarantinedError:
            return
        finally:
            self._end_check_span(handle, {"waiter": waiter, "joinee": joinee})
        acted = record.get("ok", ok)
        self.rechecks += 1
        self.recheck_mismatches += acted != ok
        if self.journal is not None:
            self.journal.log_verdict(self.session_id, waiter, joinee, acted)
        self._announce_quarantine(reply)

    def _do_sync(self, record: dict, reply) -> None:
        # The inbox is FIFO, so every earlier record has been applied; a
        # recheck parked on a missing rid holds the answer until it replays.
        if self._rechecks_parked:
            self._held_syncs.append((record, reply))
            return
        self._safe_reply(reply, {"kind": "synced", "req": record["req"], "applied": self.rechecks,
                                 "mismatches": self.recheck_mismatches})

    # -- tenant parking --------------------------------------------------
    def _park_if_missing(self, rids, record: dict, reply) -> bool:
        """Park *record* on its first unknown rid (tenanted sessions only).

        Non-tenant sessions return False and let :meth:`_vertex` raise
        the strict unknown-rid protocol error, exactly as before.
        """
        tenant = self.tenant
        if tenant is None:
            return False
        vertices = self.vertices
        for rid in rids:
            if rid not in vertices:
                tenant.parked.setdefault(rid, []).append((self, record, reply))
                tenant.parked_total += 1
                return True
        return False

    def _unpark(self, rid: int) -> None:
        """Replay records parked on *rid*, iteratively (no recursion).

        Called with the tenant lock held.  Inserting a vertex inside a
        running drain only queues its rid; the outer drain loop picks it
        up, so arbitrarily long parked fork chains replay in bounded
        stack depth.
        """
        tenant = self.tenant
        if tenant is None:
            return
        tenant.pending_rids.append(rid)
        if tenant.draining:
            return
        tenant.draining = True
        try:
            while tenant.pending_rids:
                ready = tenant.pending_rids.pop()
                for sess, record, reply in tenant.parked.pop(ready, ()):
                    sess._replay_parked(record, reply)
        finally:
            tenant.draining = False

    def _replay_parked(self, record: dict, reply) -> None:
        kind = record["kind"]
        if kind in ("init", "fork", "join"):
            self._apply_state(kind, record)  # re-parks if another rid is missing
        elif kind == "check":
            self._do_check(record, reply)
        elif kind == "check_batch":
            self._do_check_batch(record, reply)
        elif kind == "recheck":
            self._rechecks_parked -= 1
            self._do_recheck(record, reply)  # re-parks if another rid is missing
            if not self._rechecks_parked:
                held, self._held_syncs = self._held_syncs, []
                for sync in held:
                    self._do_sync(*sync)

    def _announce_quarantine(
        self,
        reply: Optional[Callable[[dict], None]],
        exc: "PolicyQuarantinedError | None" = None,
        *,
        req: "int | None" = None,
    ) -> None:
        """Tell the client that this session's policy is quarantined.

        Journalled and announced once per session; a fail-closed check
        (*exc* set) is additionally answered every time, with the
        pending request id attached so the caller unblocks.
        """
        q = exc or self.verifier.quarantine_error
        if q is None:
            return
        if self.journal is not None and not self._quarantine_announced:
            self.journal.log_quarantine(self.session_id, q.policy, q.site, str(q))
        announce_now = not self._quarantine_announced or exc is not None
        self._quarantine_announced = True
        if announce_now:
            record = {
                "kind": "quarantine",
                "policy": q.policy,
                "site": str(q.site),
                "error": str(q.original) if q.original else str(q),
                "fail_mode": self.fail_mode,
            }
            if req is not None:
                record["req"] = req
            self._safe_reply(reply, record)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Introspection for the server's metrics source and tests."""
        stats = self.verifier.stats
        snap = {
            "session": self.session_id,
            "policy": self.policy_name,
            "fail_mode": self.fail_mode,
            "applied_seq": self.applied_seq,
            "vertices": len(self.vertices),
            "events": self._events.value,
            "checks": self._checks.value,
            "backpressure_refusals": self.backpressure_refusals,
            "gap_drops": self.gap_drops,
            "rechecks": self.rechecks,
            "recheck_mismatches": self.recheck_mismatches,
            "quarantined": self.verifier.quarantined,
            "forks": stats.forks,
            "joins_checked": stats.joins_checked,
            "joins_rejected": stats.joins_rejected,
        }
        if self.tenant is not None:
            # vertices/forks/joins are tenant-wide under a shared verifier
            snap["tenant"] = self.tenant.name
            snap["tenant_parked"] = self.tenant.parked_count()
            snap["tenant_parked_total"] = self.tenant.parked_total
        return snap
