"""Work-first joins on the pool: a join runs its still-queued joinee.

A :class:`WorkSharingRuntime` join whose joinee still waits in the
queue claims it and runs its body on the joiner's own thread instead of
parking (Java's ``ForkJoinTask.join`` does the same).  These tests pin
that the claim is one-shot, that the inline join stays exactly as
observable as a parked one (verdict, waits-for edge, watchdog diagnosis,
journal), which joins still park, and that nesting is bounded per thread.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    JoinTimeoutError,
    TaskFailedError,
)
from repro.runtime import TaskRuntime, WorkSharingRuntime
from repro.runtime.retry import RetryPolicy
from repro.tools.cli import main as cli_main
from repro.tools.journal import read_journal
from repro.tools.replay import replay_journal


def _run(rt, fn, *args, timeout=30.0):
    """``rt.run(fn, *args)`` on a helper thread, failing after *timeout*."""
    box = {}

    def target():
        try:
            box["value"] = rt.run(fn, *args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"run did not finish within {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _occupy(rt):
    """Fork a task that holds the pool's only worker until the returned
    gate opens: everything forked after it stays in the queue."""
    gate, running = threading.Event(), threading.Event()

    def hold():
        running.set()
        gate.wait(30)

    future = rt.fork(hold)
    assert running.wait(10)
    return gate, future


# ----------------------------------------------------------------------
# exactly once
# ----------------------------------------------------------------------
def test_every_body_runs_exactly_once_under_claim_races():
    """More pool workers than cores and a 1 µs switch interval: joins and
    workers race for every queue cell, and exactly one of them wins."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            rt = WorkSharingRuntime("TJ-SP", workers=8)
            runs: Counter = Counter()
            lock = threading.Lock()
            futures = []

            def leaf(i):
                with lock:
                    runs[i] += 1
                return i

            def mid(base):
                futs = [rt.fork(leaf, base + k) for k in range(6)]
                with lock:
                    futures.extend(futs)
                return sum(f.join() for f in futs)

            def root():
                futs = [rt.fork(mid, 6 * m) for m in range(30)]
                futures.extend(futs)
                return sum(f.join() for f in futs)

            assert _run(rt, root, timeout=60) == sum(range(180))
            assert runs == Counter(range(180))
            assert all(f.done() for f in futures) and len(futures) == 210
            assert rt._metrics_snapshot()["outstanding"] == 0
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# the edge stays visible
# ----------------------------------------------------------------------
def _crossed_siblings(rt, catch):
    """Root forks t1, t2; t2 joins t1 and t1 joins t2, both inline on the
    root's thread (the pool's worker is held).  Returns what each join
    raised (``catch`` is caught inside the tasks)."""
    seen = {}

    def main():
        gate, held = _occupy(rt)
        box = {}

        def t1():
            try:
                return box["f2"].join()
            except catch as exc:
                seen["t1"] = exc
                return "t1"

        def t2():
            try:
                return box["f1"].join()
            except catch as exc:
                seen["t2"] = exc
                return "t2"

        box["f1"] = rt.fork(t1)
        box["f2"] = rt.fork(t2)
        try:
            return box["f2"].join()  # claims t2, which claims t1
        finally:
            gate.set()
            held.join()

    return _run(rt, main), seen


def test_a_flagged_join_closing_a_cycle_through_an_inline_edge_is_refused():
    """t2 runs inline under the root and joins t1 (permitted), which runs
    inline under t2 and joins t2 (flagged: a younger sibling).  The Armus
    check sees the inline edge t2 -> t1 and refuses the cycle."""
    rt = WorkSharingRuntime("TJ-SP", workers=1)
    result, seen = _crossed_siblings(rt, DeadlockAvoidedError)
    assert result == "t1"
    assert set(seen) == {"t1"} and isinstance(seen["t1"], DeadlockAvoidedError)
    assert rt.detector.stats.deadlocks_avoided == 1
    assert rt.inline_joins == 2
    assert rt.blocked_joins() == []


def test_the_watchdog_diagnoses_a_true_cycle_through_an_inline_edge():
    """Unchecked, t1 parks on t2, which runs inline below it on the same
    thread: a true cycle.  The watchdog sees the inline edge t2 -> t1,
    and t2's inline join raises the diagnosis itself, not a
    TaskFailedError wrapping t1's."""
    rt = WorkSharingRuntime(None, workers=1, watchdog=0.02, on_unjoined_failure="ignore")
    result, seen = _crossed_siblings(rt, (DeadlockDetectedError, TaskFailedError))
    assert result == "t2"
    assert type(seen["t2"]) is DeadlockDetectedError
    assert type(seen["t1"]) is DeadlockDetectedError  # t1's parked wait
    assert rt.watchdog.deadlocks_detected >= 2
    assert rt.inline_joins == 2


def test_ctrl_c_in_an_inline_body_on_the_main_thread_ends_the_join():
    """A parked main-thread join raises KeyboardInterrupt on Ctrl-C; the
    same interrupt landing in the body the join runs inline does too,
    instead of surfacing as that task's TaskFailedError."""
    rt = WorkSharingRuntime("TJ-SP", workers=1, on_unjoined_failure="ignore")

    def interrupted():
        raise KeyboardInterrupt  # where a SIGINT would land

    def main():
        gate, held = _occupy(rt)
        try:
            rt.fork(interrupted).join()
        finally:
            gate.set()
            held.join()

    with pytest.raises(KeyboardInterrupt):
        rt.run(main)  # on the main thread, like an interactive run
    assert rt.inline_joins == 1


# ----------------------------------------------------------------------
# what still parks
# ----------------------------------------------------------------------
def test_a_task_cancelled_while_queued_never_runs():
    rt = WorkSharingRuntime("TJ-SP", workers=1)
    ran = []

    def main():
        gate, held = _occupy(rt)
        future = rt.fork(ran.append, 1)
        future.cancel()
        with pytest.raises(TaskFailedError) as info:
            future.join()
        gate.set()
        held.join()
        return info.value.root_cause

    assert type(_run(rt, main)).__name__ == "TaskCancelledError"
    assert ran == []


def test_a_join_with_a_deadline_parks():
    rt = WorkSharingRuntime("TJ-SP", workers=1)
    ran = []

    def main():
        gate, held = _occupy(rt)
        future = rt.fork(ran.append, 1)
        with pytest.raises(JoinTimeoutError):
            future.join(timeout=0.1)
        assert ran == []  # the joinee was never claimed
        gate.set()
        held.join()
        future.join(timeout=30)

    _run(rt, main)
    assert ran == [1]
    assert rt.inline_joins == 0


def test_a_retrying_task_is_joined_parked():
    rt = WorkSharingRuntime("TJ-SP", workers=1)
    threads = []

    def flaky():
        threads.append(threading.get_ident())
        if len(threads) == 1:
            raise RuntimeError("first attempt")
        return "ok"

    def main():
        gate, held = _occupy(rt)
        future = rt.fork(flaky, retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        opener = threading.Timer(0.2, gate.set)
        opener.start()
        value = future.join()  # parks until the held worker frees up
        held.join()
        return value, threading.get_ident()

    value, root_thread = _run(rt, main)
    assert value == "ok"
    assert len(threads) == 2 and root_thread not in threads
    assert rt.inline_joins == 0


def test_the_thread_runtime_never_runs_a_joinee_inline():
    rt = TaskRuntime("TJ-SP")

    def main():
        futures = [rt.fork(threading.get_ident) for _ in range(20)]
        return [f.join() for f in futures], threading.get_ident()

    idents, root_thread = _run(rt, main)
    assert root_thread not in idents


# ----------------------------------------------------------------------
# depth
# ----------------------------------------------------------------------
def _chain(rt, depth):
    if depth == 0:
        return 0
    return rt.fork(_chain, rt, depth - 1).join() + 1


def test_a_600_deep_chain_finishes_on_a_one_worker_pool():
    """Nesting is bounded per thread: past the bound a join parks and the
    pool compensates, so no thread's stack grows with the chain."""
    for _ in range(5):
        rt = WorkSharingRuntime("TJ-SP", workers=1)
        assert _run(rt, _chain, rt, 600, timeout=10) == 600
        assert rt.inline_joins > 0 and rt.compensations > 0


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
def test_an_inline_join_journals_the_blocked_join_it_was(tmp_path):
    """The inline join writes block, then the joinee's own records, then
    unblock and join; a journal cut inside the inline body replays as a
    run that died in that blocked join."""
    path = str(tmp_path / "inline.jsonl")
    rt = WorkSharingRuntime("TJ-SP", workers=1, journal=path)

    def main():
        gate, held = _occupy(rt)
        value = rt.fork(lambda: 7).join()
        gate.set()
        held.join()
        return value

    assert _run(rt, main) == 7
    assert rt.inline_joins == 1
    records = read_journal(path).records
    kinds = [r["kind"] for r in records]
    block = next(i for i, r in enumerate(records) if r["kind"] == "block")
    edge = (records[block]["waiter"], records[block]["joinee"])
    unblock = next(
        i for i, r in enumerate(records)
        if r["kind"] == "unblock" and (r["waiter"], r["joinee"]) == edge
    )
    assert kinds[block + 1 : unblock] == ["complete"]  # the body ran inside
    assert kinds[unblock + 1] == "join"
    assert cli_main(["journal-replay", path]) == 0
    assert replay_journal(path).blocked_at_death == []

    cut = tmp_path / "cut.jsonl"
    with open(path) as src:
        lines = src.readlines()
    cut.write_text("".join(lines[:unblock]))  # through the body's complete
    assert replay_journal(str(cut)).blocked_at_death == [edge]
