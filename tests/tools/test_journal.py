"""The trace journal: writer batching, torn-tail reader, clean replay.

The durability contract under test: records are buffered, *critical*
records (start, denied verdicts, block, avoided, quarantine, retry)
reach the OS immediately, and the reader tolerates exactly the damage a
``kill -9`` can cause — one truncated final record — while refusing to
paper over anything else.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.errors import JournalCorruptError, JournalError
from repro.runtime.pool import WorkSharingRuntime
from repro.runtime.threaded import TaskRuntime
from repro.tools.journal import ServiceJournal, TraceJournal, read_journal
from repro.tools.replay import replay_journal


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "trace.jsonl")


def _durable_lines(path):
    """Lines currently visible in the file (what kill -9 would preserve)."""
    with open(path) as fh:
        return [line for line in fh.read().split("\n") if line]


class _V:
    """Minimal vertex stand-in with identity."""


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class TestWriter:
    def test_round_trip_of_every_record_kind(self, path):
        a, b, c = _V(), _V(), _V()
        with TraceJournal(path) as j:
            j.log_start(policy="TJ-SP", runtime="TaskRuntime", fail_mode="open")
            j.log_init(a)
            j.log_fork(a, b)
            j.log_fork(a, c)
            j.log_verdict(b, c, False)
            j.log_verdict(a, b, True)
            j.log_block(a, b)
            j.log_unblock(a, b)
            j.log_join(a, b)
            j.log_avoided(b, c)
            j.log_quarantine("TJ-SP", "permits", "ZeroDivisionError('x')")
            j.log_retry(b, c, 1, "RuntimeError('down')")
        result = read_journal(path)
        assert not result.torn_tail
        kinds = [r["kind"] for r in result.records]
        assert kinds == [
            "start", "init", "fork", "fork", "verdict", "verdict",
            "block", "unblock", "join", "avoided", "quarantine", "retry",
        ]
        assert [r["seq"] for r in result.records] == list(range(12))
        # names are interned in first-seen order and stay stable
        assert result.records[1]["task"] == "t0"
        assert result.records[2] == {
            "kind": "fork", "parent": "t0", "child": "t1", "seq": 2,
        }
        assert result.records[4]["ok"] is False
        assert result.records[11]["attempt"] == 1

    def test_arbitrary_strings_are_json_quoted(self, path):
        with TraceJournal(path) as j:
            j.log_start(policy='we"ird\\name', runtime="x\ny", fail_mode="open")
            j.log_quarantine("p", "permits", 'Err("quoted \\ stuff")')
        records = read_journal(path).records
        assert records[0]["policy"] == 'we"ird\\name'
        assert records[0]["runtime"] == "x\ny"
        assert records[1]["error"] == 'Err("quoted \\ stuff")'

    def test_noncritical_records_batch_critical_flush_now(self, path):
        a, b = _V(), _V()
        j = TraceJournal(path, flush_every=64)
        j.log_init(a)
        j.log_fork(a, b)
        assert _durable_lines(path) == []  # buffered, not yet durable
        j.log_block(a, b)  # critical: flush before you sleep
        durable = _durable_lines(path)
        assert len(durable) == 3  # the flush carries the buffer with it
        assert json.loads(durable[-1])["kind"] == "block"
        j.close()

    def test_flush_every_bound_is_honoured(self, path):
        vs = [_V() for _ in range(8)]
        j = TraceJournal(path, flush_every=4)
        j.log_init(vs[0])
        for v in vs[1:4]:
            j.log_fork(vs[0], v)
        assert len(_durable_lines(path)) == 4  # 4th append hit the bound
        j.close()

    def test_closed_journal_refuses_appends(self, path):
        j = TraceJournal(path)
        j.close()
        j.close()  # idempotent
        with pytest.raises(JournalError):
            j.log_init(_V())

    def test_flush_every_validated(self, path):
        with pytest.raises(ValueError):
            TraceJournal(path, flush_every=0)

    def test_interned_names_survive_id_reuse(self, path):
        """The journal pins vertices, so a GC'd vertex's recycled id()
        can never alias a dead task's name."""
        j = TraceJournal(path)
        names = set()
        for _ in range(64):
            names.add(j.name_of(_V()))  # vertices die immediately
        assert len(names) == 64
        j.close()


# ----------------------------------------------------------------------
# reader: exactly crash-shaped damage is tolerated
# ----------------------------------------------------------------------
class TestReader:
    def _journal(self, path, n=4):
        vs = [_V() for _ in range(n)]
        with TraceJournal(path) as j:
            j.log_init(vs[0])
            for v in vs[1:]:
                j.log_fork(vs[0], v)
        return path

    def test_empty_file_is_an_empty_journal(self, path):
        open(path, "w").close()
        result = read_journal(path)
        assert result.records == [] and not result.torn_tail

    def test_torn_tail_without_newline_is_dropped(self, path):
        self._journal(path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[:-20])  # cut inside the final record
        result = read_journal(path)
        assert result.torn_tail
        assert len(result.records) == 3
        assert result.tail  # the fragment is kept for diagnostics

    def test_unparsable_final_complete_line_is_a_torn_tail(self, path):
        """A crash can land inside the payload but after a newline made
        it to disk from a previous write: still tail damage, not corruption."""
        self._journal(path)
        with open(path, "a") as fh:
            fh.write('{"kind":"blo\n')
        result = read_journal(path)
        assert result.torn_tail
        assert len(result.records) == 4

    def test_midfile_garbage_is_corruption(self, path):
        self._journal(path)
        lines = _durable_lines(path)
        lines[1] = lines[1][:-5] + "@@@@}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_sequence_gap_is_corruption(self, path):
        self._journal(path)
        lines = _durable_lines(path)
        del lines[1]  # a missing record must not be silently skipped
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)


# ----------------------------------------------------------------------
# runtime integration + clean-run replay
# ----------------------------------------------------------------------
class TestRuntimeIntegration:
    def test_run_writes_and_closes_a_path_journal(self, path):
        rt = TaskRuntime(policy="TJ-SP", journal=path)

        def main():
            futures = [rt.fork(lambda i=i: i) for i in range(3)]
            return sum(f.join() for f in futures)

        assert rt.run(main) == 3
        result = read_journal(path)  # closed + flushed: fully durable
        kinds = [r["kind"] for r in result.records]
        assert kinds[0] == "start"
        assert kinds.count("fork") == 3
        assert kinds.count("verdict") == 3
        assert kinds.count("join") == 3
        header = result.records[0]
        assert header["policy"] == "TJ-SP"
        assert header["fail_mode"] == "raise"
        with pytest.raises(JournalError):
            rt.journal.log_init(_V())  # the runtime closed its own journal

    @pytest.mark.parametrize("runtime", [TaskRuntime, WorkSharingRuntime])
    def test_complete_is_journalled_before_run_closes_the_journal(
        self, path, runtime, monkeypatch
    ):
        """A task journals ``complete`` before its future completes, so
        the root's join cannot return, and ``run`` close an owned
        journal, while a worker is still writing the record."""
        log_complete = TraceJournal.log_complete

        def slow_log_complete(journal, vertex, ok=True):
            time.sleep(0.02)
            log_complete(journal, vertex, ok)

        monkeypatch.setattr(TraceJournal, "log_complete", slow_log_complete)
        worker_errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: worker_errors.append(args.exc_value)
        )
        rt = runtime(policy="TJ-SP", journal=path)

        def main():
            futures = [rt.fork(lambda i=i: i) for i in range(4)]
            return [f.join() for f in futures]

        assert rt.run(main) == [0, 1, 2, 3]
        time.sleep(0.1)  # a worker writing after the close would fail by now
        kinds = [r["kind"] for r in read_journal(path).records]
        assert kinds.count("complete") == 4
        assert worker_errors == []

    @pytest.mark.parametrize("runtime", [TaskRuntime, WorkSharingRuntime])
    def test_run_waits_for_a_task_the_root_never_joined(
        self, path, runtime, monkeypatch
    ):
        """``run`` returns only once every forked task has terminated, so
        a task the root never joins still journals ``complete`` before
        ``run`` closes an owned journal."""
        worker_errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: worker_errors.append(args.exc_value)
        )
        rt = runtime(policy="TJ-SP", journal=path)

        def main():
            rt.fork(time.sleep, 0.05)  # never joined
            return rt.fork(lambda: 1).join()

        assert rt.run(main) == 1
        time.sleep(0.1)  # a worker writing after the close would fail by now
        kinds = [r["kind"] for r in read_journal(path).records]
        assert kinds.count("fork") == kinds.count("complete") == 2
        assert worker_errors == []

    def test_clean_run_replay_reconstructs_and_rechecks(self, path):
        rt = TaskRuntime(policy="TJ-SP", journal=path)

        def main():
            futures = [rt.fork(lambda i=i: i) for i in range(4)]
            return [f.join() for f in futures]

        rt.run(main)
        replay = replay_journal(path)
        assert not replay.died_blocked
        assert replay.blocked_at_death == []
        assert replay.forks == 4
        assert len(replay.tasks) == 5  # root + 4 children
        assert replay.quarantine is None
        # TJ-SP is stable: every journalled verdict was re-derived fresh
        assert replay.rechecked == 4
        assert replay.recheck_mismatches == []
        assert "blocked at death: none" in replay.report()

    def test_replay_flags_a_forged_verdict(self, path):
        rt = TaskRuntime(policy="TJ-SP", journal=path)

        def main():
            return rt.fork(lambda: 1).join()

        rt.run(main)
        lines = _durable_lines(path)
        doctored = []
        for line in lines:
            rec = json.loads(line)
            if rec["kind"] == "verdict":
                rec["ok"] = not rec["ok"]  # forge the verdict
            doctored.append(json.dumps(rec))
        with open(path, "w") as fh:
            fh.write("\n".join(doctored) + "\n")
        replay = replay_journal(path)
        assert len(replay.recheck_mismatches) == 1
        assert "MISMATCH" in replay.report()


# ----------------------------------------------------------------------
# blocked-at-death honesty
# ----------------------------------------------------------------------
class TestBlockedAtDeath:
    """``died_blocked`` must track the *records*, never be inferred away."""

    def _write(self, path, records):
        with open(path, "w") as fh:
            for seq, rec in enumerate(records):
                fh.write(json.dumps({**rec, "seq": seq}) + "\n")

    def test_final_block_is_died_blocked_even_after_joinee_completed(self, path):
        """Regression: the joinee's earlier ``complete`` record must NOT
        clear a final un-unblocked ``block`` — the waiter provably never
        woke (a lost-wakeup class of bug), and hiding the edge because
        "the joinee finished anyway" would mask exactly that."""
        self._write(
            path,
            [
                {"kind": "start", "policy": "TJ-SP", "runtime": "TaskRuntime",
                 "fail_mode": "raise"},
                {"kind": "init", "task": "t0"},
                {"kind": "fork", "parent": "t0", "child": "t1"},
                {"kind": "complete", "task": "t1", "ok": True},
                {"kind": "verdict", "waiter": "t0", "joinee": "t1", "ok": True},
                {"kind": "block", "waiter": "t0", "joinee": "t1"},
            ],
        )
        replay = replay_journal(path)
        assert replay.died_blocked
        assert replay.blocked_at_death == [("t0", "t1")]
        assert replay.completed == ["t1"]
        assert "blocked at death" in replay.report()

    def test_unblock_clears_the_edge(self, path):
        self._write(
            path,
            [
                {"kind": "start", "policy": "TJ-SP", "runtime": "TaskRuntime",
                 "fail_mode": "raise"},
                {"kind": "init", "task": "t0"},
                {"kind": "fork", "parent": "t0", "child": "t1"},
                {"kind": "verdict", "waiter": "t0", "joinee": "t1", "ok": True},
                {"kind": "block", "waiter": "t0", "joinee": "t1"},
                {"kind": "unblock", "waiter": "t0", "joinee": "t1"},
                {"kind": "join", "waiter": "t0", "joinee": "t1"},
            ],
        )
        replay = replay_journal(path)
        assert not replay.died_blocked
        assert replay.blocked_at_death == []

    def test_reblocked_edge_counts_again(self, path):
        """block, unblock, block: the last state wins — still blocked."""
        self._write(
            path,
            [
                {"kind": "start", "policy": "TJ-SP", "runtime": "TaskRuntime",
                 "fail_mode": "raise"},
                {"kind": "init", "task": "t0"},
                {"kind": "fork", "parent": "t0", "child": "t1"},
                {"kind": "verdict", "waiter": "t0", "joinee": "t1", "ok": True},
                {"kind": "block", "waiter": "t0", "joinee": "t1"},
                {"kind": "unblock", "waiter": "t0", "joinee": "t1"},
                {"kind": "block", "waiter": "t0", "joinee": "t1"},
            ],
        )
        replay = replay_journal(path)
        assert replay.died_blocked
        assert replay.blocked_at_death == [("t0", "t1")]


# ----------------------------------------------------------------------
# sidecar journals: one namespace per tenant, or per session
# ----------------------------------------------------------------------
def _init(rid):
    return {"kind": "init", "task": rid}


def _fork(parent, child, edge=None, depth=None):
    record = {"kind": "fork", "parent": parent, "child": child}
    if edge is not None:
        record.update(edge=edge, depth=depth)
    return record


def _verdict(waiter, joinee, ok):
    return {"kind": "verdict", "waiter": waiter, "joinee": joinee, "ok": ok}


class TestSidecarJournal:
    """A sidecar journal interleaves sessions that each name vertices by
    their own client rids; every verdict in it is TJ-SP's true answer."""

    def _write(self, path, stream):
        """Write ``(session, record)`` pairs in arrival order, a start
        record as ``{"kind": "start", "tenant": ...}``."""
        cseq: dict = {}
        with ServiceJournal(path) as journal:
            for session, rec in stream:
                if rec["kind"] == "start":
                    journal.log_session(session, "TJ-SP", "open", rec["tenant"])
                elif rec["kind"] == "verdict":
                    journal.log_verdict(session, rec["waiter"], rec["joinee"], rec["ok"])
                else:
                    cseq[session] = cseq.get(session, -1) + 1
                    journal.log_event(session, {**rec, "cseq": cseq[session]})

    def _tenant_journal(self, path):
        """Three sessions of one ``ProcessRuntime`` tenant: the workers
        fork under the parent session's vertices, and w1's fork of the
        later sibling (edge 1) arrives before w0's of the earlier one."""
        start = {"kind": "start", "tenant": "T"}
        self._write(path, [
            ("T-p", start),
            ("T-p", _init(0)),
            ("T-p", _fork(0, 1, edge=0, depth=1)),
            ("T-p", _fork(0, 2, edge=1, depth=1)),
            ("T-w0", start),
            ("T-w1", start),
            ("T-w1", _fork(1, 11, edge=1, depth=2)),
            ("T-w0", _fork(1, 10, edge=0, depth=2)),
            ("T-w1", _verdict(11, 10, True)),  # the later sibling joins
            ("T-w0", _verdict(10, 11, False)),
            ("T-w0", _verdict(10, 2, False)),  # 2 is later than 10's parent
            ("T-p", _verdict(2, 10, True)),
            ("T-p", _verdict(0, 11, True)),  # an ancestor joins
        ])

    def test_tenant_sessions_replay_as_one_tree_placed_by_edge_and_depth(self, path):
        self._tenant_journal(path)
        replay = replay_journal(path)
        assert replay.rechecked == 5
        assert replay.recheck_mismatches == []
        assert replay.tasks == ["T:0", "T:1", "T:2", "T:11", "T:10"]
        assert replay.denied == [("T:10", "T:11"), ("T:10", "T:2")]
        assert "5 verdicts re-derived, 0 mismatches" in replay.report()

    def test_sessions_without_a_tenant_keep_their_own_rids(self, path):
        """Two plain sessions reuse rids 0-2 and fork the two siblings in
        opposite orders, so each verdict holds in its own session only."""
        start = {"kind": "start", "tenant": None}
        self._write(path, [
            ("s1", start),
            ("s1", _init(0)),
            ("s1", _fork(0, 1)),
            ("s1", _fork(0, 2)),
            ("s2", start),
            ("s2", _init(0)),
            ("s2", _fork(0, 2)),
            ("s2", _fork(0, 1)),
            ("s1", _verdict(2, 1, True)),
            ("s2", _verdict(1, 2, True)),
            ("s1", _verdict(1, 2, False)),
            ("s2", _verdict(2, 1, False)),
        ])
        replay = replay_journal(path)
        assert replay.rechecked == 4
        assert replay.recheck_mismatches == []
        assert replay.denied == [("s1:1", "s1:2"), ("s2:2", "s2:1")]

    def test_trace_export_refuses_a_sidecar_journal(self, path):
        from repro.tools.trace_export import journal_to_trace

        self._tenant_journal(path)
        with pytest.raises(JournalError, match="sidecar journal"):
            journal_to_trace(path)

    def test_predict_refuses_a_sidecar_journal(self, path):
        from repro.predict import predict_deadlocks

        self._tenant_journal(path)
        with pytest.raises(JournalError, match="sidecar journal"):
            predict_deadlocks(path)

