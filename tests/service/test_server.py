"""The verification sidecar server: sessions, parity, isolation, recovery.

Everything here runs an in-process :class:`VerificationServer` over real
loopback TCP — the same sockets and threads as production, minus the
subprocess boundary (covered by ``test_client_degradation`` and the
chaos suite).  In-process matters for the fault tests: they reach into a
live session and swap its policy for one that explodes, which no public
surface allows (the registry contains no broken policies, by design).
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import warnings

import pytest

from repro import obs
from repro.core.policy import make_policy
from repro.core.verifier import Verifier
from repro.errors import (
    JournalError,
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
    ServiceBackpressureError,
    ServiceDegradedWarning,
)
from repro.service.client import RemoteVerifier, SessionClient, parse_remote_url
from repro.service.server import ServiceJournal, VerificationServer
from repro.service.wire import WIRE_VERSION, RecordStream
from repro.tools.journal import read_journal


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def remote_url(server: VerificationServer) -> str:
    host, port = server.address
    return f"remote://{host}:{port}"


def raw_session(
    server: VerificationServer,
    session: str = "raw",
    *,
    policy: str = "TJ-SP",
    fail_mode: str = "open",
    wire: int = WIRE_VERSION,
):
    """Hand-rolled client: returns (stream, first server reply)."""
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    stream = RecordStream(sock)
    stream.send(
        {
            "kind": "hello",
            "session": session,
            "policy": policy,
            "fail_mode": fail_mode,
            "wire": wire,
            "resume": False,
        }
    )
    return stream, stream.recv()


class _ExplodingPolicy:
    """Stand-in for a policy with an internal bug: every call raises."""

    name = "TJ-SP"
    stable_permits = True

    def permits(self, joiner, joinee):
        raise RuntimeError("injected policy bug")

    def permits_many(self, joiner, joinees):
        raise RuntimeError("injected policy bug")


@pytest.fixture()
def server(tmp_path):
    srv = VerificationServer(
        journal_path=str(tmp_path / "service.jsonl"), ack_every=4, flush_every=1
    )
    with srv:
        yield srv


class TestHandshake:
    def test_welcome_quotes_the_session_state(self, server):
        stream, welcome = raw_session(server, "hs")
        try:
            assert welcome["kind"] == "welcome"
            assert welcome["session"] == "hs"
            assert welcome["last_seq"] == -1  # nothing applied yet
            assert welcome["quarantined"] is False
            assert welcome["fail_mode"] == "open"
            assert welcome["journal"] is True
        finally:
            stream.sock.close()

    def test_fail_raise_is_coerced_to_open(self, server):
        # "raise" cannot cross a process boundary; the welcome reports
        # the coercion so the client knows the posture it actually got.
        stream, welcome = raw_session(server, "coerce", fail_mode="raise")
        try:
            assert welcome["fail_mode"] == "open"
        finally:
            stream.sock.close()

    def test_wire_version_mismatch_is_refused(self, server):
        stream, reply = raw_session(server, "skew", wire=WIRE_VERSION + 1)
        try:
            assert reply["kind"] == "error"
            assert "wire version" in reply["message"]
        finally:
            stream.sock.close()

    def test_resume_with_a_different_policy_is_refused(self, server):
        first, _ = raw_session(server, "tenant", policy="TJ-SP")
        second, reply = raw_session(server, "tenant", policy="KJ-SS")
        try:
            assert reply["kind"] == "error"
            assert "TJ-SP" in reply["message"]
        finally:
            first.sock.close()
            second.sock.close()

    def test_duplicate_hello_on_an_open_session_is_an_error(self, server):
        stream, welcome = raw_session(server, "dup")
        try:
            assert welcome["kind"] == "welcome"
            stream.send(
                {
                    "kind": "hello",
                    "session": "dup",
                    "policy": "TJ-SP",
                    "fail_mode": "open",
                    "wire": WIRE_VERSION,
                    "resume": True,
                }
            )
            reply = stream.recv()
            assert reply["kind"] == "error"
            assert "duplicate hello" in reply["message"]
        finally:
            stream.sock.close()

    def test_resume_welcome_quotes_the_applied_watermark(self, server):
        stream, _ = raw_session(server, "resume")
        stream.send({"kind": "init", "task": 0, "cseq": 0})
        stream.send({"kind": "fork", "parent": 0, "child": 1, "cseq": 1})
        # a check is answered only after every earlier event applied
        stream.send({"kind": "check", "waiter": 0, "joinee": 1, "req": 0})
        while True:
            reply = stream.recv()
            if reply["kind"] == "verdict":
                break
        stream.sock.close()
        again, welcome = raw_session(server, "resume")
        try:
            assert welcome["last_seq"] == 1
        finally:
            again.sock.close()


class TestVerdictParity:
    """The sidecar must answer exactly as a local Verifier would."""

    def _program(self, v):
        """root forks a, b; a forks c.  Returns the four vertices."""
        root = v.on_init()
        a = v.on_fork(root)
        b = v.on_fork(root)
        c = v.on_fork(a)
        return root, a, b, c

    def test_single_checks_match_local(self, server):
        local = Verifier(make_policy("TJ-SP"))
        lroot, la, lb, lc = self._program(local)
        with RemoteVerifier(remote_url(server), "TJ-SP", session="parity-1") as rv:
            rroot, ra, rb, rc = self._program(rv)
            pairs = [
                ((lroot, la), (rroot, ra)),
                ((lroot, lb), (rroot, rb)),
                ((la, lc), (ra, rc)),
                ((la, lb), (ra, rb)),  # sibling join: the interesting verdict
                ((lb, lc), (rb, rc)),
                ((lroot, lc), (rroot, rc)),
            ]
            verdicts = []
            for (lw, lj), (rw, rj) in pairs:
                want = local.check_join(lw, lj)
                got = rv.check_join(rw, rj)
                assert got == want
                verdicts.append(want)
            # the program must exercise both verdicts or parity is vacuous
            assert True in verdicts and False in verdicts
            assert rv.stats.joins_checked == local.stats.joins_checked
            assert rv.stats.joins_rejected == local.stats.joins_rejected

    def test_batch_checks_match_local(self, server):
        local = Verifier(make_policy("TJ-SP"))
        lroot, la, lb, lc = self._program(local)
        with RemoteVerifier(remote_url(server), "TJ-SP", session="parity-2") as rv:
            rroot, ra, rb, rc = self._program(rv)
            want = local.check_joins(la, [lc, lb])
            got = rv.check_joins(ra, [rc, rb])
            assert got == want
            assert rv.check_joins(rroot, []) == []

    def test_server_session_counts_every_check(self, server):
        with RemoteVerifier(remote_url(server), "TJ-SP", session="counts") as rv:
            root, a, b, _ = self._program(rv)
            rv.check_join(root, a)
            rv.check_joins(root, [a, b])
            snap = server.session("counts").snapshot()
            assert snap["joins_checked"] == 3
            assert snap["forks"] == rv.stats.forks == 4
            assert snap["vertices"] == 4


class TestProtocolFaults:
    def test_check_against_an_unknown_rid_gets_an_error_reply(self, server):
        stream, _ = raw_session(server, "norid")
        try:
            stream.send({"kind": "check", "waiter": 7, "joinee": 8, "req": 99})
            reply = stream.recv()
            assert reply["kind"] == "error"
            assert reply["req"] == 99
            assert "unknown vertex" in reply["message"]
        finally:
            stream.sock.close()

    def test_duplicate_events_are_dropped_idempotently(self, server):
        # an over-eager resume replay must not double-apply state
        stream, _ = raw_session(server, "dups")
        try:
            stream.send({"kind": "init", "task": 0, "cseq": 0})
            for _ in range(3):  # the same fork three times
                stream.send({"kind": "fork", "parent": 0, "child": 1, "cseq": 1})
            stream.send({"kind": "check", "waiter": 0, "joinee": 1, "req": 0})
            while stream.recv()["kind"] != "verdict":
                pass
            snap = server.session("dups").snapshot()
            assert snap["forks"] == 2  # init + one fork, not three
            assert snap["applied_seq"] == 1
        finally:
            stream.sock.close()


class TestAudits:
    """Fire-and-forget ``recheck`` audits, and the ``sync`` barrier that
    settles them, on a tenant shared by a parent and a worker session."""

    @staticmethod
    def _pair(server):
        url = remote_url(server)
        worker = SessionClient(url, "w", tenant="t")
        parent = SessionClient(url, "p", tenant="t")
        assert worker.connect() and parent.connect()
        return worker, parent

    def test_concurrent_audits_are_all_counted_and_applied(self, server):
        worker, parent = self._pair(server)
        # 968 records in all, so flushes also sync for flow control, and
        # enough for the threads to interleave
        threads, per_thread, children = 8, 120, list(range(2, 10))
        try:
            parent.init(0)
            parent.fork(0, 1, 0, 1)
            parent.flush()
            for edge, child in enumerate(children):
                worker.fork(1, child, edge, 2)
            start = threading.Barrier(threads)

            def audit_many():
                start.wait(timeout=10.0)  # overlap the threads' audits
                for i in range(per_thread):
                    worker.audit(1, children[i % len(children)], True)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                pool = [threading.Thread(target=audit_many) for _ in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=10.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in pool)
            assert worker.audits == threads * per_thread
            worker.sync()
            assert not worker.degraded
            assert worker.audits_applied == threads * per_thread
            assert worker.audit_mismatches == 0
        finally:
            worker.close()
            parent.close()

    def test_sync_waits_for_audits_parked_on_late_lineage(self, server):
        worker, parent = self._pair(server)
        children = list(range(2, 10))
        try:
            # Children of vertex 1, whose own fork the parent has not
            # announced yet: every audit of them parks on rid 1.
            for edge, child in enumerate(children):
                worker.fork(1, child, edge, 2)
                worker.audit(1, child, True)
            sync = threading.Thread(target=worker.sync)
            sync.start()
            sync.join(timeout=0.3)
            assert sync.is_alive()  # held until the parked audits replay
            parent.init(0)
            parent.fork(0, 1, 0, 1)
            parent.flush()
            sync.join(timeout=10.0)
            assert not sync.is_alive()
            assert not worker.degraded
            assert worker.audits_applied == len(children)
        finally:
            worker.close()
            parent.close()

    def test_a_fast_producer_waits_on_sync_instead_of_overrunning_the_inbox(self, server):
        client = SessionClient(remote_url(server), "fast", tenant="t")
        assert client.connect()
        client.init(0)
        client.flush()
        session = server.session("fast")
        session.drain_gate.clear()  # the session stops applying records
        opener = threading.Timer(0.3, session.drain_gate.set)
        opener.start()
        try:
            for child in range(1, 2 * session.inbox_limit):
                client.fork(0, child, child - 1, 1)
            client.sync()
            assert not client.degraded
            assert session.backpressure_refusals == 0
            assert session.applied_seq == 2 * session.inbox_limit - 1
        finally:
            opener.cancel()
            session.drain_gate.set()
            client.close()

    def test_a_sparse_stream_flushes_once_flush_after_has_passed(self, server):
        client = SessionClient(remote_url(server), "sparse", tenant="t")
        assert client.connect()
        client.FLUSH_AFTER = 0.2
        try:
            client.init(0)  # the first record goes out at once
            session = server.session("sparse")
            assert wait_until(lambda: session.applied_seq == 0)
            client.fork(0, 1, 0, 1)
            time.sleep(0.1)
            assert session.applied_seq == 0  # buffered: inside the window
            time.sleep(0.2)
            client.fork(0, 2, 1, 1)  # past it: both go out
            assert wait_until(lambda: session.applied_seq == 2)
        finally:
            client.close()


class TestQuarantineIsolation:
    """One tenant's policy bug never poisons another tenant."""

    def _poison(self, server, session_id: str) -> None:
        server.session(session_id).verifier.policy = _ExplodingPolicy()

    def test_fail_open_client_adopts_the_quarantine_and_keeps_going(self, server):
        with RemoteVerifier(remote_url(server), "TJ-SP", session="sick") as sick, \
                RemoteVerifier(remote_url(server), "TJ-SP", session="healthy") as healthy:
            s_root = sick.on_init()
            s_kid = sick.on_fork(s_root)
            h_root = healthy.on_init()
            h_a = healthy.on_fork(h_root)
            h_b = healthy.on_fork(h_root)
            assert sick.check_join(s_root, s_kid) is True  # healthy so far

            self._poison(server, "sick")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                # fail-open: the faulting check still answers True
                assert sick.check_join(s_root, s_kid) is True
                assert wait_until(lambda: sick.quarantined)
            assert sick.unsound  # HybridVerifier force-checks from here on
            assert server.session("sick").snapshot()["quarantined"] is True

            # the other tenant's session is a different policy instance:
            # verdicts stay real, nothing is quarantined
            assert healthy.check_join(h_root, h_a) is True
            assert healthy.check_join(h_a, h_b) is False
            assert not healthy.quarantined
            assert server.session("healthy").snapshot()["quarantined"] is False

    def test_fail_closed_client_gets_the_quarantine_raised(self, server):
        with RemoteVerifier(
            remote_url(server), "TJ-SP", fail_mode="closed", session="closed"
        ) as rv:
            root = rv.on_init()
            kid = rv.on_fork(root)
            assert rv.check_join(root, kid) is True
            self._poison(server, "closed")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                with pytest.raises(PolicyQuarantinedError):
                    rv.check_join(root, kid)
                # and every later check short-circuits client-side
                with pytest.raises(PolicyQuarantinedError):
                    rv.check_join(root, kid)

    def test_an_adopted_quarantine_is_counted_only_as_policy_faults(self, server):
        with obs.enabled(tracing=False) as tel, RemoteVerifier(
            remote_url(server), session="once"
        ) as rv, warnings.catch_warnings():
            warnings.simplefilter("ignore", PolicyQuarantineWarning)
            root = rv.on_init()
            kid = rv.on_fork(root)
            assert rv.check_join(root, kid) is True
            self._poison(server, "once")
            rv.check_join(root, kid)
            assert wait_until(lambda: rv.quarantined)
            snap = tel.snapshot()
        # one fault in the sidecar session, one adoption in the client
        assert rv.stats.policy_faults == server.session("once").verifier.stats.policy_faults == 1
        assert snap["sources"]["verifier"]["policy_faults"] == 2
        assert "quarantine" not in str(snap["counters"])

    def test_quarantine_survives_in_the_journal(self, server):
        with RemoteVerifier(remote_url(server), "TJ-SP", session="post") as rv:
            root = rv.on_init()
            kid = rv.on_fork(root)
            rv.check_join(root, kid)
            self._poison(server, "post")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                rv.check_join(root, kid)
                assert wait_until(lambda: rv.quarantined)
        assert server.journal is not None
        server.journal.flush()
        from repro.tools.journal import read_journal

        kinds = [
            r["kind"]
            for r in read_journal(server.journal.path).records
            if r.get("session") == "post"
        ]
        assert "quarantine" in kinds


class TestBackpressure:
    def test_full_inbox_refuses_and_the_client_raises(self, tmp_path):
        with VerificationServer(
            journal_path=str(tmp_path / "bp.jsonl"), inbox_limit=4, flush_every=1
        ) as srv:
            rv = RemoteVerifier(remote_url(srv), "TJ-SP", session="bp")
            try:
                root = rv.on_init()
                kid = rv.on_fork(root)
                assert rv.check_join(root, kid) is True  # session is live
                sess = srv.session("bp")
                sess.drain_gate.clear()  # park the worker between records
                try:
                    forks = 20
                    for _ in range(forks):
                        rv.on_fork(root)  # fire-and-forget floods the inbox
                    assert wait_until(lambda: sess.backpressure_refusals >= 1)
                    assert wait_until(lambda: rv._backpressure is not None)
                    # the refusal surfaces at the next synchronous call...
                    with pytest.raises(ServiceBackpressureError):
                        rv.check_join(root, kid)
                finally:
                    sess.drain_gate.set()
                # ...but nothing is lost: the refused events sat in the
                # replay buffer, and reconcile rounds re-deliver them.  A
                # replay can itself overrun the tiny inbox, so recovery
                # converges over several rounds — each one advances the
                # server's applied watermark by at least the inbox bound.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ServiceDegradedWarning)
                    for _ in range(50):
                        if sess.snapshot()["forks"] == 2 + forks:
                            break
                        if not rv.degraded:
                            rv._test_drop_connection()
                        rv.try_reconnect()
                        time.sleep(0.02)
                assert wait_until(lambda: sess.snapshot()["forks"] == 2 + forks)

                # the sticky refusal flag may have been re-set by late
                # replies; once drained, checks flow again
                def check_flows() -> bool:
                    try:
                        return rv.check_join(root, kid) is True
                    except ServiceBackpressureError:
                        return False

                assert wait_until(check_flows)
                assert sess.backpressure_refusals >= 1
            finally:
                rv.close()


class TestRestartRecovery:
    def test_sessions_are_rebuilt_from_the_journal_with_exact_stats(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        with VerificationServer(journal_path=path, ack_every=2, flush_every=1) as srv:
            with RemoteVerifier(remote_url(srv), "TJ-SP", session="re") as rv:
                root = rv.on_init()
                kids = [rv.on_fork(root) for _ in range(3)]
                assert rv.check_joins(root, kids) == [True, True, True]
                assert rv.check_join(kids[0], kids[1]) is False
                before = srv.session("re").snapshot()
        # a clean stop flushed everything; a new server on the same
        # journal must rebuild the session by replay, not guesswork
        with VerificationServer(journal_path=path) as reborn:
            assert reborn.recovered_sessions == 1
            after = reborn.session("re").snapshot()
            for key in ("forks", "joins_checked", "joins_rejected", "vertices",
                        "applied_seq", "policy", "fail_mode"):
                assert after[key] == before[key], key
            # and the rebuilt session still answers — same verdicts
            with RemoteVerifier(remote_url(reborn), "TJ-SP", session="re") as rv2:
                pass  # resuming the session is itself the handshake check
            assert reborn.session("re").snapshot()["quarantined"] is False

    def test_restart_compacts_rather_than_corrupting_seq_density(self, tmp_path):
        from repro.tools.journal import read_journal

        path = str(tmp_path / "svc.jsonl")
        with VerificationServer(journal_path=path, flush_every=1) as srv:
            with RemoteVerifier(remote_url(srv), "TJ-SP", session="cmp") as rv:
                root = rv.on_init()
                kid = rv.on_fork(root)
                rv.check_join(root, kid)
        with VerificationServer(journal_path=path, flush_every=1) as srv2:
            with RemoteVerifier(remote_url(srv2), "TJ-SP", session="cmp") as rv:
                pass
        # read_journal itself asserts dense seq; a naive re-append after
        # replay would have broken it
        result = read_journal(path)
        assert not result.torn_tail
        assert [r["seq"] for r in result.records] == list(range(len(result.records)))

    def test_journal_records_keep_their_fields(self, tmp_path):
        path = str(tmp_path / "fields.jsonl")
        journal = ServiceJournal(path, flush_every=2)
        journal.log_session("s", "TJ-SP", "open", tenant="t")
        journal.log_event("s", {"kind": "init", "task": 0, "cseq": 0})
        fork = {"kind": "fork", "parent": 0, "child": 1, "cseq": 1, "edge": 0, "depth": 1}
        journal.log_event("s", fork)
        journal.log_verdict("s", 0, 1, True)
        journal.log_quarantine("s", "TJ-SP", "permits", "RuntimeError('bug')")
        journal.close()
        with pytest.raises(JournalError):
            journal.log_verdict("s", 0, 1, False)
        s = {"session": "s"}
        assert read_journal(path).records == [
            {"kind": "start", **s, "policy": "TJ-SP", "fail_mode": "open", "runtime": "service",
             "tenant": "t", "seq": 0},
            {"kind": "init", **s, "cseq": 0, "task": 0, "seq": 1},
            {**fork, **s, "seq": 2},
            {"kind": "verdict", **s, "waiter": 0, "joinee": 1, "ok": True, "seq": 3},
            {"kind": "quarantine", **s, "policy": "TJ-SP", "site": "permits",
             "error": "RuntimeError('bug')", "seq": 4},
        ]

    def test_unreadable_journal_is_set_aside_not_trusted(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "start", "seq": 0}\n')
            fh.write("garbage that is not json\n")
            fh.write('{"kind": "verdict", "seq": 9000}\n')  # seq gap: corrupt
        with pytest.warns(RuntimeWarning, match="unreadable"):
            srv = VerificationServer(journal_path=path)
            srv.start()
        try:
            assert srv.recovered_sessions == 0
            assert srv.journal is not None  # fresh journal, same path
            import os

            assert os.path.exists(path + ".corrupt")
        finally:
            srv.stop()


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_remote_url("remote://127.0.0.1:9009") == ("127.0.0.1", 9009)

    def test_rejects_other_schemes_and_missing_ports(self):
        for bad in ("tcp://x:1", "remote://", "remote://host", "remote://host:port"):
            with pytest.raises(ValueError):
                parse_remote_url(bad)
