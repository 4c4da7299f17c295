"""The sidecar's stats plane: the ``stats`` wire kind, frame fitting,
and the keepalive that keeps it reachable.

PR 10 turned the sidecar's ``stats`` reply into a telemetry carrier: when
the server was constructed under an active telemetry session, the reply
ships the sidecar's span ring (``trace``, for the parent's merged
distributed trace) and its metrics snapshot (``metrics``, for the fleet
view) alongside the counters.  That makes the reply the one frame in the
vocabulary that can outgrow :data:`MAX_FRAME`, so ``_fit_stats_reply``
trims the trace tail; and because the parent's :class:`SessionClient`
may idle for a whole run between escalations, ``ping()`` exists so the
liveness sweeper doesn't reap the connection before the final stats
pull.  All three are exercised here over real loopback TCP.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.service.client import SessionClient
from repro.service.server import VerificationServer, _fit_stats_reply
from repro.service.wire import MAX_FRAME

from .test_server import raw_session, remote_url, wait_until


@pytest.fixture()
def server(tmp_path):
    srv = VerificationServer(
        journal_path=str(tmp_path / "service.jsonl"), flush_every=1
    )
    with srv:
        yield srv


def _ask_stats(stream, req: int = 7) -> dict:
    stream.send({"kind": "stats", "req": req})
    while True:
        reply = stream.recv()
        assert reply is not None, "connection closed before stats_reply"
        if reply["kind"] == "stats_reply":
            assert reply["req"] == req
            return reply["stats"]


class TestStatsWireKind:
    def test_roundtrip_without_telemetry_is_bare_counters(self, server):
        stream, welcome = raw_session(server, "bare")
        try:
            assert welcome["kind"] == "welcome"
            stats = _ask_stats(stream)
            assert stats["sessions"] == 1
            assert "bare" in stats["per_session"]
            # no telemetry at construction: no distributed payload
            assert "trace" not in stats
            assert "metrics" not in stats
        finally:
            stream.sock.close()

    def test_reply_ships_trace_and_metrics_under_telemetry(self, tmp_path):
        with obs.enabled():
            srv = VerificationServer(
                journal_path=str(tmp_path / "service.jsonl")
            )
            with srv:
                stream, _ = raw_session(srv, "traced")
                try:
                    stream.send({"kind": "init", "task": 0, "cseq": 0})
                    stream.send({"kind": "fork", "parent": 0, "child": 1, "cseq": 1})
                    stream.send({"kind": "check", "waiter": 0, "joinee": 1, "req": 1})
                    while stream.recv()["kind"] != "verdict":
                        pass
                    stats = _ask_stats(stream)
                finally:
                    stream.sock.close()
        trace = stats["trace"]
        assert trace["label"] == "sidecar"
        # the check above left a join_check span in the shipped ring
        assert any(ev[1] == "join_check" for ev in trace["events"])
        assert "counters" in stats["metrics"]

    def test_stats_answers_ahead_of_the_verification_stream(self, server):
        # Introspection rides the connection reader, not the session
        # inbox: a stats query right behind a burst of state events is
        # answered without waiting for the session thread to drain them.
        stream, _ = raw_session(server, "busy")
        try:
            stream.send({"kind": "init", "task": 0, "cseq": 0})
            for seq in range(1, 33):
                stream.send({"kind": "fork", "parent": 0, "child": seq, "cseq": seq})
            stats = _ask_stats(stream)
            assert stats["sessions"] == 1
        finally:
            stream.sock.close()


class TestFitStatsReply:
    def _reply(self, events: list) -> dict:
        return {
            "kind": "stats_reply",
            "req": 1,
            "stats": {"server": {}, "trace": {"label": "sidecar", "events": events}},
        }

    def test_small_reply_passes_through_untouched(self):
        reply = self._reply([["X", "join_check", "dispatch", 1, 2, 3, {}]])
        fitted = _fit_stats_reply(reply)
        assert fitted is reply
        assert "trimmed" not in fitted["stats"]["trace"]
        assert len(fitted["stats"]["trace"]["events"]) == 1

    def test_oversized_trace_is_trimmed_from_the_oldest_end(self):
        pad = "x" * 512
        events = [["X", f"span-{i}", "dispatch", i, 1, 1, {"pad": pad}] for i in range(4096)]
        reply = self._reply(events)
        fitted = _fit_stats_reply(reply)
        size = len(json.dumps(fitted, separators=(",", ":")).encode("utf-8"))
        assert size <= MAX_FRAME - 4096
        trace = fitted["stats"]["trace"]
        kept = trace["events"]
        assert kept, "trimming must keep the newest tail, not empty the ring"
        # newest events survive; the drop count is recorded exactly
        assert kept[-1][1] == "span-4095"
        assert trace["trimmed"] == 4096 - len(kept)
        assert kept[0][1] == f"span-{trace['trimmed']}"

    def test_reply_without_trimmable_trace_is_returned_as_is(self):
        # Oversized but with no trace events to drop: the fitter yields
        # to the frame encoder's own MAX_FRAME error rather than guess.
        reply = {
            "kind": "stats_reply",
            "req": 1,
            "stats": {"server": {"blob": "y" * MAX_FRAME}},
        }
        assert _fit_stats_reply(reply) is reply


class TestKeepalive:
    def test_idle_connection_is_reaped_but_pinging_client_survives(self, tmp_path):
        srv = VerificationServer(
            journal_path=str(tmp_path / "service.jsonl"), liveness_timeout=0.75
        )
        with srv:
            pinger = SessionClient(remote_url(srv), "pinger")
            assert pinger.connect()
            idle_stream, _ = raw_session(srv, "idler")
            try:
                deadline = time.monotonic() + 1.6
                while time.monotonic() < deadline:
                    pinger.ping()
                    time.sleep(0.2)
                assert wait_until(lambda: srv.liveness_closes >= 1)
                assert not pinger.degraded
                stats = pinger.stats()
                assert stats is not None
                assert stats["liveness_closes"] >= 1
            finally:
                idle_stream.sock.close()
                pinger.close()
