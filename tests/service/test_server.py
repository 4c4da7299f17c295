"""The verification sidecar server: sessions, parity, isolation, journal.

Everything here runs an in-process :class:`VerificationServer` over real
loopback TCP — the same sockets and threads as production, minus the
subprocess boundary (covered by the ``SidecarProcess`` pipe test below
and ``tests/chaos/test_procs_faults.py``).  In-process matters for the
fault tests: they reach into a live session and swap its policy for one
that explodes, which no public surface allows (the registry contains no
broken policies, by design).
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
import warnings

import pytest

from repro import obs
from repro.core.policy import make_policy
from repro.core.verifier import Verifier
from repro.errors import JournalError, PolicyQuarantineWarning
from repro.service.client import SessionClient, parse_remote_url
from repro.service.proc import SidecarProcess
from repro.service.server import ServiceJournal, VerificationServer, main
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
        }
    )
    return stream, stream.recv()


def session_client(server: VerificationServer, session: str, **kwargs) -> SessionClient:
    """A connected :class:`SessionClient` on *server*."""
    client = SessionClient(remote_url(server), session, **kwargs)
    assert client.connect(), client.degrade_reason
    return client


def program_client(server: VerificationServer, session: str) -> SessionClient:
    """A non-tenant session holding the program root forks a, b; a forks
    c — rids 0 (root), 1 (a), 2 (b), 3 (c)."""
    client = session_client(server, session)
    client.init(0)
    client.fork(0, 1, 0, 1)
    client.fork(0, 2, 1, 1)
    client.fork(1, 3, 0, 2)
    return client


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
    srv = VerificationServer(journal_path=str(tmp_path / "service.jsonl"), flush_every=1)
    with srv:
        yield srv


class TestHandshake:
    def test_welcome_quotes_the_session_state(self, server):
        stream, welcome = raw_session(server, "hs")
        try:
            assert welcome["kind"] == "welcome"
            assert welcome["session"] == "hs"
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
                }
            )
            reply = stream.recv()
            assert reply["kind"] == "error"
            assert "duplicate hello" in reply["message"]
        finally:
            stream.sock.close()


class TestVerdictParity:
    """The sidecar must answer exactly as a local Verifier would."""

    @staticmethod
    def _local():
        """:func:`program_client`'s program on a local verifier; returns
        the verifier and the four vertices."""
        local = Verifier(make_policy("TJ-SP"))
        root = local.on_init()
        a = local.on_fork(root)
        b = local.on_fork(root)
        return local, (root, a, b, local.on_fork(a))

    def test_single_checks_match_local(self, server):
        local, v = self._local()
        client = program_client(server, "parity-1")
        try:
            pairs = [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3), (0, 3)]  # (1, 2): a sibling join
            verdicts = []
            for w, j in pairs:
                want = local.check_join(v[w], v[j])
                assert client.check(w, j) == want
                verdicts.append(want)
            # the program must produce both verdicts or parity is vacuous
            assert True in verdicts and False in verdicts
            snap = server.session("parity-1").snapshot()
            assert snap["joins_checked"] == local.stats.joins_checked == len(pairs)
            assert snap["joins_rejected"] == local.stats.joins_rejected
        finally:
            client.close()

    def test_batch_checks_match_local(self, server):
        local, v = self._local()
        client = program_client(server, "parity-2")
        try:
            want = local.check_joins(v[1], [v[3], v[2]])
            assert True in want and False in want
            assert client.check_batch(1, [3, 2]) == want
            assert client.check_batch(0, []) == []
        finally:
            client.close()

    def test_server_session_counts_every_check(self, server):
        client = program_client(server, "counts")
        try:
            client.check(0, 1)
            client.check_batch(0, [1, 2])
            snap = server.session("counts").snapshot()
            assert snap["checks"] == snap["joins_checked"] == 3
            assert snap["forks"] == snap["vertices"] == 4
        finally:
            client.close()


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

    def test_out_of_sequence_events_are_dropped_and_counted(self, server):
        stream, _ = raw_session(server, "gaps")
        try:
            stream.send({"kind": "init", "task": 0, "cseq": 0})
            for _ in range(3):  # the same fork three times
                stream.send({"kind": "fork", "parent": 0, "child": 1, "cseq": 1})
            stream.send({"kind": "fork", "parent": 0, "child": 2, "cseq": 5})  # a gap
            stream.send({"kind": "check", "waiter": 0, "joinee": 1, "req": 0})
            while stream.recv()["kind"] != "verdict":
                pass
            snap = server.session("gaps").snapshot()
            assert snap["forks"] == 2  # init + one fork
            assert snap["applied_seq"] == 1
            assert snap["gap_drops"] == 3  # two duplicates and the gap
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

    def test_fail_open_client_keeps_getting_answers(self, server):
        sick = program_client(server, "sick")
        healthy = program_client(server, "healthy")
        try:
            assert sick.check(0, 1) is True  # healthy so far
            self._poison(server, "sick")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                # fail-open: the faulting check still answers True
                assert sick.check(0, 1) is True
                assert sick.check_batch(0, [1, 2]) == [True, True]
            assert not sick.degraded
            assert server.session("sick").snapshot()["quarantined"] is True

            # the other tenant's session is a different policy instance:
            # verdicts stay real, nothing is quarantined
            assert healthy.check(0, 1) is True
            assert healthy.check(1, 2) is False
            assert not healthy.degraded
            assert server.session("healthy").snapshot()["quarantined"] is False
        finally:
            sick.close()
            healthy.close()

    def test_fail_closed_client_degrades_naming_the_quarantine(self, server):
        client = session_client(server, "closed", fail_mode="closed")
        try:
            client.init(0)
            client.fork(0, 1, 0, 1)
            assert client.check(0, 1) is True
            self._poison(server, "closed")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                assert client.check(0, 1) is None
            assert client.degraded
            assert "quarantine" in client.degrade_reason
            assert client.check(0, 1) is None  # degradation is permanent
        finally:
            client.close()

    def test_quarantine_survives_in_the_journal(self, server):
        client = program_client(server, "post")
        try:
            client.check(0, 1)
            self._poison(server, "post")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PolicyQuarantineWarning)
                client.check(0, 1)
        finally:
            client.close()
        server.journal.flush()
        kinds = [
            r["kind"]
            for r in read_journal(server.journal.path).records
            if r.get("session") == "post"
        ]
        assert "quarantine" in kinds


class TestBackpressure:
    def test_full_inbox_refuses_and_the_client_degrades(self, tmp_path):
        with VerificationServer(
            journal_path=str(tmp_path / "bp.jsonl"), inbox_limit=4, flush_every=1
        ) as srv:
            client = session_client(srv, "bp")
            sess = None
            try:
                client.init(0)
                client.fork(0, 1, 0, 1)
                assert client.check(0, 1) is True  # session is live
                sess = srv.session("bp")
                sess.drain_gate.clear()  # park the worker between records
                for child in range(2, 22):
                    client.fork(0, child, child - 1, 1)
                client.flush()  # fire-and-forget floods the inbox
                assert wait_until(lambda: sess.snapshot()["backpressure_refusals"] >= 1)
                # the refusal surfaces at the next round trip, for good
                assert client.check(0, 1) is None
                assert client.degraded
                assert "backpressure" in client.degrade_reason
            finally:
                if sess is not None:
                    sess.drain_gate.set()
                client.close()


class TestJournal:
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

    def test_a_server_refuses_a_non_empty_journal(self, tmp_path, capsys):
        path = str(tmp_path / "old.jsonl")
        with VerificationServer(journal_path=path, flush_every=1) as srv:
            client = program_client(srv, "old")
            client.check(0, 1)
            client.close()
        with open(path, "rb") as fh:
            before = fh.read()
        assert before
        srv = VerificationServer(journal_path=path)
        with pytest.raises(JournalError, match="old.jsonl"):
            srv.start()
        # `repro serve` on the same file exits non-zero, naming it
        assert main(["--port", "0", "--journal", path]) != 0
        assert path in capsys.readouterr().err
        with open(path, "rb") as fh:
            assert fh.read() == before  # left byte-for-byte unchanged
        # an existing empty file is a fresh journal
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        with VerificationServer(journal_path=str(empty)) as fresh:
            assert fresh.journal is not None

    def test_the_sidecar_journal_reports_as_any_journal_does(self, tmp_path):
        with obs.enabled(tracing=False) as tel, VerificationServer(
            journal_path=str(tmp_path / "svc.jsonl")
        ) as srv:
            client = program_client(srv, "s1")
            try:
                assert client.check(1, 2) is False  # a denial: a critical flush
                snap = tel.snapshot()
            finally:
                client.close()
            assert snap["sources"]["journal"]["records_written"] == srv.journal.records_written
            assert snap["histograms"]["repro_journal_flush_ns"]["count"] >= 1


class TestSidecarProcessLifecycle:
    def test_kill_then_stop_leaves_no_pipe_open(self):
        """A sidecar's stdout pipe closes once its child is gone."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            sidecar = SidecarProcess()
            sidecar.kill9()
            assert not sidecar.alive()
            sidecar.stop()
            del sidecar
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_remote_url("remote://127.0.0.1:9009") == ("127.0.0.1", 9009)

    def test_rejects_other_schemes_and_missing_ports(self):
        for bad in ("tcp://x:1", "remote://", "remote://host", "remote://host:port"):
            with pytest.raises(ValueError):
                parse_remote_url(bad)
