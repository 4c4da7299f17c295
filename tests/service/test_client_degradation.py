"""Satellite of PR 7's acceptance test: graceful degradation end to end.

Two layers.  The in-process tests pin the client's degrade/reconcile
mechanics against a server whose sessions we can inspect directly.  The
subprocess test is the honest version of the story: a *real* sidecar
process is ``SIGKILL``\\ ed in the middle of a join-heavy workload, and
the run must

* complete without hanging and without any join unblocking unverified —
  every join is either answered by the sidecar or force-checked against
  the Armus wait-for graph (the verifier reports ``unsound`` while
  degraded, which is what arms the force-check), and the client counts
  each exactly once;
* after the sidecar restarts from its journal, reconcile until the
  server's verdict stream covers every check the client ever made —
  the "exact verifier stats" the recovery contract promises.
"""

from __future__ import annotations

import gc
import threading
import time
import warnings

import pytest

from repro import obs
from repro.core.policy import make_policy
from repro.errors import ServiceDegradedWarning
from repro.runtime.threaded import TaskRuntime
from repro.service.client import RemoteVerifier
from repro.service.proc import SidecarProcess
from repro.service.server import VerificationServer
from repro.tools.journal import read_journal


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def remote_url(server: VerificationServer) -> str:
    host, port = server.address
    return f"remote://{host}:{port}"


class TestDegradedFromBirth:
    def test_unreachable_sidecar_degrades_with_a_warning(self):
        # nothing listens on this port (connect refused immediately)
        from repro.runtime.retry import RetryPolicy

        with pytest.warns(ServiceDegradedWarning, match="degraded to local"):
            rv = RemoteVerifier(
                "remote://127.0.0.1:1",
                "TJ-SP",
                retry=RetryPolicy(max_attempts=1, base_delay=0.01, max_delay=0.01),
            )
        try:
            assert rv.degraded and rv.unsound
            root = rv.on_init()
            kid = rv.on_fork(root)
            # fail-open local answer, remembered for reconcile
            assert rv.check_join(root, kid) is True
            assert rv.service_snapshot()["degraded"] is True
        finally:
            rv.close()

    def test_reconnect_replays_the_gap_and_rechecks(self, tmp_path):
        with VerificationServer(
            journal_path=str(tmp_path / "svc.jsonl"), flush_every=1
        ) as srv:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ServiceDegradedWarning)
                # born degraded on purpose: everything below is local
                rv = RemoteVerifier(
                    remote_url(srv),
                    "TJ-SP",
                    session="birth",
                    connect=False,
                    liveness_timeout=5.0,  # keep the heartbeat out of the way
                )
            try:
                root = rv.on_init()
                kids = [rv.on_fork(root) for _ in range(4)]
                for kid in kids:
                    assert rv.check_join(root, kid) is True  # local answers
                assert "birth" not in srv.sessions  # nothing reached the server

                assert rv.try_reconnect() is True
                snap = rv.service_snapshot()
                assert snap["degraded"] is False
                assert snap["reconciles"] == 1
                assert snap["events_replayed"] == 5  # init + 4 forks
                assert snap["rechecks_sent"] == 4

                # the server re-derived every locally-answered verdict:
                # its session stats now match an uninterrupted run
                assert wait_until(
                    lambda: srv.session("birth").snapshot()["joins_checked"] == 4
                )
                session = srv.session("birth").snapshot()
                assert session["forks"] == 5
                assert session["joins_rejected"] == 0
            finally:
                rv.close()

    def test_a_reconnect_with_nothing_to_replay_is_no_reconcile(self, tmp_path):
        with obs.enabled(tracing=False) as tel, VerificationServer(
            journal_path=str(tmp_path / "svc.jsonl"), ack_every=1
        ) as srv, warnings.catch_warnings():
            warnings.simplefilter("ignore", ServiceDegradedWarning)
            with RemoteVerifier(remote_url(srv), session="s1", liveness_timeout=5.0) as rv:
                root = rv.on_init()
                kid = rv.on_fork(root)
                rv._test_drop_connection()  # episode 1: a local check to recheck
                assert rv.check_join(root, kid) is True
                assert rv.try_reconnect() is True
                assert wait_until(lambda: srv.session("s1").snapshot()["joins_checked"] == 1)
                rv._test_drop_connection()  # episode 2: nothing to replay
                assert rv.try_reconnect() is True
                snap = tel.snapshot()
                assert (rv.degradations, rv.reconciles) == (2, 1)
                assert snap["counters"]['repro_service_reconciles_total{session="s1"}'] == 1
                # the sidecar journal reports as any journal does
                assert snap["sources"]["journal"]["records_written"] == srv.journal.records_written
                assert snap["histograms"]["repro_journal_flush_ns"]["count"] >= 1


class TestKill9MidWorkload:
    """The acceptance scenario, against a real subprocess sidecar."""

    WAVES = 6
    WIDTH = 4  # WAVES * WIDTH joins total

    def _workload(self, rt):
        """Join-heavy: the root forks waves of children and joins each."""

        def leaf(i: int) -> int:
            time.sleep(0.002)
            return i

        def body() -> int:
            done = 0
            for _ in range(self.WAVES):
                futures = [rt.fork(leaf, i) for i in range(self.WIDTH)]
                for future in futures:
                    done += future.join()
            return done

        return rt.run(body)

    def test_kill9_degrades_and_reconcile_restores_exact_stats(self, tmp_path):
        journal_path = str(tmp_path / "sidecar.jsonl")
        total_joins = self.WAVES * self.WIDTH
        kill_after = total_joins // 3
        session_id = "kill9-acceptance"

        sidecar = SidecarProcess(
            journal_path=journal_path, ack_every=4, liveness_timeout=0.5
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ServiceDegradedWarning)
                policy = make_policy("TJ-SP")
                rv = RemoteVerifier(
                    sidecar.url,
                    policy,
                    fail_mode="open",
                    session=session_id,
                    liveness_timeout=0.5,
                )
                rt = TaskRuntime(policy, fail_mode="open", verifier=rv)

                killed = threading.Event()

                def assassin() -> None:
                    while not killed.is_set():
                        if rv.stats.joins_checked >= kill_after:
                            sidecar.kill9()
                            killed.set()
                            return
                        time.sleep(0.001)

                hitman = threading.Thread(target=assassin, daemon=True)
                hitman.start()
                result = self._workload(rt)
                killed.set()
                hitman.join(timeout=5.0)

                # the workload finished correctly despite the kill...
                assert result == sum(range(self.WIDTH)) * self.WAVES
                assert not sidecar.alive()
                assert rv.degraded and rv.degradations >= 1
                # ...and no join unblocked unverified: the client counted
                # every single one (remote or local+Armus-force-checked)
                assert rv.stats.joins_checked == total_joins
                assert rv.stats.joins_rejected == 0
                # while degraded the verifier is unsound, which is what
                # makes the hybrid force-check joins against Armus; the
                # wait-for graph must end empty (all joins completed)
                assert rv.unsound
                assert rt.detector is not None
                snap = rv.service_snapshot()
                degraded_window = snap["rechecks_sent"] + len(rv._degraded_checks)
                assert degraded_window >= 1  # the kill landed mid-workload

                # restart on the same port + journal; reconcile until the
                # server's verdict stream covers every client check
                sidecar.restart()
                deadline = time.monotonic() + 20.0
                verdicts = 0
                while time.monotonic() < deadline:
                    if rv.degraded:
                        rv.try_reconnect()
                    verdicts = sum(
                        1
                        for r in read_journal(journal_path).records
                        if r.get("kind") == "verdict"
                        and r.get("session") == session_id
                    )
                    if not rv.degraded and verdicts >= total_joins:
                        break
                    time.sleep(0.05)

                assert not rv.degraded
                assert verdicts >= total_joins, (
                    f"journal holds {verdicts} verdicts for {total_joins} "
                    "client checks: reconcile failed to restore exact stats"
                )
                snap = rv.service_snapshot()
                assert snap["reconciles"] >= 1
                assert snap["rechecks_sent"] >= 1
                # every recorded verdict is a permit: this workload only
                # joins own children, which TJ always allows
                records = read_journal(journal_path).records
                assert all(
                    r["ok"]
                    for r in records
                    if r.get("kind") == "verdict" and r.get("session") == session_id
                )
                rv.close()
        finally:
            sidecar.stop()


class TestRuntimeSelectsRemoteByUrl:
    """`runtime(..., verifier="remote://host:port")` — the public path."""

    def test_url_string_builds_an_owned_remote_verifier(self, tmp_path):
        with VerificationServer(
            journal_path=str(tmp_path / "svc.jsonl"), flush_every=1
        ) as srv:
            rt = TaskRuntime(make_policy("TJ-SP"), verifier=remote_url(srv))

            def leaf() -> int:
                return 1

            def body() -> int:
                futures = [rt.fork(leaf) for _ in range(3)]
                return sum(f.join() for f in futures)

            assert rt.run(body) == 3
            # exactly one auto-named session saw the whole program
            assert len(srv.sessions) == 1
            snap = next(iter(srv.sessions.values())).snapshot()
            assert snap["forks"] == 4  # root + 3 leaves
            assert snap["joins_checked"] == 3
            assert snap["quarantined"] is False
            # the runtime owned the remote verifier and closed it on exit
            assert rt.verifier._closed.is_set()


class TestSidecarProcessLifecycle:
    def test_kill_restart_stop_leaves_no_pipe_open(self):
        """Every incarnation's stdout pipe closes once its child is gone."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            sidecar = SidecarProcess()
            sidecar.kill9()
            sidecar.restart()
            sidecar.stop()
            del sidecar
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]
