"""The multi-process runtime: verified dispatch, escalation accounting,
worker-death recovery, and the pickling boundary.

Dispatched bodies must be module-level (they cross a process boundary),
so every task body here is a top-level function.  Pool geometry is kept
tiny (two workers, small shared-tree segments) — each test still starts
a couple of worker processes, so this file leans on a handful of dense
programs rather than many micro-cases.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.constructs import finish
from repro.errors import (
    ReproError,
    RuntimeStateError,
    TaskFailedError,
)
from repro.runtime import ProcessRuntime, require_current_task
from repro.runtime.procs import ShardVerifier
from repro.core.shared_tree import SharedFlatTree, SharedTJPolicy

MODES = ["shm"]


def _rt(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("seg0", 64)
    kw.setdefault("stripe", 16)
    return ProcessRuntime(**kw)


# ----------------------------------------------------------------------
# dispatched bodies (module level: they are pickled by reference)
# ----------------------------------------------------------------------
def square(x):
    return x * x


def subtree(rt, base, fanout):
    futs = [rt.fork(square, base + i) for i in range(fanout)]
    return sum(rt.join_batch(futs))


def deep_subtree(rt, base, mids, leaves):
    # In-worker forks are plain engine forks (no engine prepended),
    # so the engine rides along as an explicit argument.
    futs = [
        rt.fork(subtree_level, rt, base + 100 * m, leaves) for m in range(mids)
    ]
    return sum(rt.join_batch(futs))


def subtree_level(rt, base, leaves):
    futs = [rt.fork(square, base + i) for i in range(leaves)]
    return sum(rt.join_batch(futs))


def lying_subtree(rt, base, fanout):
    """``subtree`` on a worker whose sidecar client flips the first
    verdict it audits (the patch outlives this body, the flip does not)."""
    client = rt.verifier.sidecar
    audit, flipped = client.audit, []

    def flip_once(waiter, joinee, ok):
        audit(waiter, joinee, ok if flipped else not ok)
        flipped.append(joinee)

    client.audit = flip_once
    return subtree(rt, base, fanout)


def boom(rt):
    raise ValueError("boom in worker")


def returns_unpicklable(rt):
    return lambda: 1  # pragma: no cover - never called


def slow_then_square(rt, x, delay):
    time.sleep(delay)
    return x * x


def cancellable_loop(rt, barrier_path):
    with open(barrier_path, "w") as fh:
        fh.write("running")
    task = require_current_task()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        task.cancel_token.raise_if_cancelled(task)
        time.sleep(0.01)
    return "never cancelled"  # pragma: no cover


# ----------------------------------------------------------------------
# round trips and verdict accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_fork_join_round_trip(mode):
    rt = _rt(spawn_paths=mode)

    def root():
        futs = [rt.fork(subtree, 10 * t, 4) for t in range(6)]
        return rt.join_batch(futs)

    totals = rt.run(root)
    assert totals == [sum((10 * t + i) ** 2 for i in range(4)) for t in range(6)]
    # Only parent-side dispatches count here; the 24 leaves are
    # in-worker tasks hosted by the workers' own engines.
    assert rt.tasks_dispatched == rt.tasks_completed == 6
    assert rt.worker_deaths == 0


@pytest.mark.parametrize("mode", MODES)
def test_join_stats_split_local_vs_cross(mode):
    rt = _rt(spawn_paths=mode)

    def root():
        futs = [rt.fork(subtree, 10 * t, 5) for t in range(4)]
        return rt.join_batch(futs)

    rt.run(root)
    js = rt.join_stats()
    # The parent joining its dispatched tasks is local (it forked them);
    # each dispatched task joining its in-worker children is the
    # cross-process edge.
    assert js["cross_joins"] == 20  # 4 subtrees x 5 leaves
    assert js["local_joins"] >= 4  # the parent's joins at minimum
    # No sidecar: every escalation resolves against the local authority.
    assert js["degraded_joins"] == js["cross_joins"]
    assert 0.0 < js["escalation_ratio"] < 1.0


def test_fork_heavy_shape_keeps_escalation_in_the_minority():
    rt = _rt()

    def root():
        futs = [rt.fork(deep_subtree, 1000 * t, 3, 6) for t in range(4)]
        return rt.join_batch(futs)

    rt.run(root)
    js = rt.join_stats()
    # Only the dispatched tasks' own joins escalate; the two in-worker
    # levels below them are local.  That is the >90%-local design point
    # scaled down: here 12 cross out of 12 + (12*6 local + 4 parent).
    assert js["local_joins"] > js["cross_joins"]
    assert js["escalation_ratio"] < 0.5


def test_sidecar_resolves_cross_joins_without_degradation():
    rt = _rt(sidecar="auto")

    def root():
        futs = [rt.fork(subtree, 10 * t, 5) for t in range(4)]
        return rt.join_batch(futs)

    rt.run(root)
    js = rt.join_stats()
    assert js["cross_joins"] == 20
    assert js["degraded_joins"] == 0
    assert js["announced"] > 0


def test_the_sidecar_journal_replays_every_verdict(tmp_path):
    """``repro journal-replay`` reads the journal of a procs run's sidecar:
    the parent's and each worker's session share one tenant namespace."""
    from repro.service.server import VerificationServer
    from repro.tools.replay import replay_journal

    path = str(tmp_path / "sidecar.jsonl")
    with VerificationServer(journal_path=path) as srv:
        host, port = srv.address
        rt = _rt(sidecar=f"remote://{host}:{port}")

        def root():
            futs = [rt.fork(subtree, 10 * t, 5) for t in range(4)]
            return rt.join_batch(futs)

        rt.run(root)
    replay = replay_journal(path)
    assert replay.rechecked == rt.join_stats()["cross_joins"] == 20
    assert replay.recheck_mismatches == []


@pytest.mark.parametrize("lie", [False, True])
def test_the_sidecar_audit_catches_a_flipped_verdict(tmp_path, lie):
    """A worker that audits one verdict other than the one it acted on
    shows as one audit mismatch, and as one recheck mismatch that makes
    ``repro journal-replay`` exit 1; an honest run reads 0 and exits 0."""
    from repro.service.server import VerificationServer
    from repro.tools.cli import main as cli_main
    from repro.tools.replay import replay_journal

    path = str(tmp_path / "sidecar.jsonl")
    with VerificationServer(journal_path=path) as srv:
        host, port = srv.address
        rt = _rt(workers=1, sidecar=f"remote://{host}:{port}")
        first = lying_subtree if lie else subtree

        def root():
            futs = [rt.fork(first, 0, 5)]
            futs += [rt.fork(subtree, 10 * t, 5) for t in range(1, 4)]
            return rt.join_batch(futs)

        rt.run(root)
    js = rt.join_stats()
    assert js["cross_joins"] == 20
    assert js["degraded_joins"] == 0
    assert js["audit_mismatches"] == int(lie)
    assert len(replay_journal(path).recheck_mismatches) == int(lie)
    assert cli_main(["journal-replay", path]) == int(lie)


def test_finish_construct_drives_the_worker_engine():
    rt = _rt()
    seen = []

    def root():
        with finish(rt) as scope:
            for t in range(3):
                seen.append(scope.async_(subtree, 100 * t, 3))
        return [f._result_now() for f in seen]

    totals = rt.run(root)
    assert totals == [sum((100 * t + i) ** 2 for i in range(3)) for t in range(3)]


# ----------------------------------------------------------------------
# failures crossing the process boundary
# ----------------------------------------------------------------------
def test_worker_exception_round_trips_to_the_parent():
    rt = _rt(workers=1)

    def root():
        fut = rt.fork(boom)
        with pytest.raises(TaskFailedError) as exc_info:
            rt.join(fut)
        return exc_info.value

    err = rt.run(root)
    assert isinstance(err.__cause__, ValueError)
    assert "boom in worker" in str(err.__cause__)


def test_unpicklable_fn_fails_synchronously():
    rt = _rt(workers=1)

    def root():
        with pytest.raises(RuntimeStateError, match="picklable"):
            rt.fork(lambda: 1)
        return "ok"

    assert rt.run(root) == "ok"


def test_unpicklable_result_becomes_a_described_error():
    rt = _rt(workers=1)

    def root():
        fut = rt.fork(returns_unpicklable)
        with pytest.raises(TaskFailedError) as exc_info:
            rt.join(fut)
        return exc_info.value

    err = rt.run(root)
    assert isinstance(err.__cause__, ReproError)
    assert "unpicklable" in str(err.__cause__)


def test_cancel_relays_to_the_worker(tmp_path):
    rt = _rt(workers=1)
    barrier = str(tmp_path / "running")

    def root():
        fut = rt.fork(cancellable_loop, barrier)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(barrier):
            assert time.monotonic() < deadline, "worker never started the body"
            time.sleep(0.01)
        fut.cancel()
        with pytest.raises(ReproError):
            rt.join(fut, timeout=10.0)
        return "cancelled"

    t0 = time.monotonic()
    assert rt.run(root) == "cancelled"
    # The loop runs 20s if cancellation never lands.
    assert time.monotonic() - t0 < 15.0


# ----------------------------------------------------------------------
# worker death and redispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_sigkill_mid_task_redispatches_under_fresh_vertices(mode):
    rt = _rt(workers=3, spawn_paths=mode)
    killed = []

    def killer():
        time.sleep(0.6)
        victim = rt._workers[0].proc
        if victim.is_alive():
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    def root():
        threading.Thread(target=killer, daemon=True).start()
        futs = [rt.fork(slow_then_square, t, 0.3) for t in range(9)]
        return rt.join_batch(futs)

    totals = rt.run(root)
    assert totals == [t * t for t in range(9)]
    assert killed, "the killer thread never fired"
    assert rt.worker_deaths == 1
    assert rt.tasks_redispatched >= 1


def test_redispatch_off_fails_the_stranded_futures():
    rt = _rt(workers=2, redispatch=False, on_unjoined_failure="ignore")

    def killer():
        time.sleep(0.4)
        for w in rt._workers:
            if w.proc.is_alive():
                os.kill(w.proc.pid, signal.SIGKILL)
                return

    def root():
        threading.Thread(target=killer, daemon=True).start()
        futs = [rt.fork(slow_then_square, t, 0.4) for t in range(6)]
        outcomes = []
        for f in futs:
            try:
                outcomes.append(("ok", rt.join(f, timeout=15.0)))
            except ReproError as exc:
                outcomes.append(("err", type(exc).__name__))
        return outcomes

    outcomes = rt.run(root)
    assert rt.worker_deaths == 1
    assert rt.tasks_redispatched == 0
    assert any(kind == "err" for kind, _ in outcomes)
    assert any(kind == "ok" for kind, _ in outcomes)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------
def test_rejects_non_tj_sp_policies():
    # Only the flat TJ-SP runs on the shared-memory forest; other TJ-SP
    # names must not be accepted and then silently replaced by it.
    for policy in ("KJ-VC", "TJ-SP-legacy"):
        with pytest.raises(ValueError, match="TJ-SP"):
            ProcessRuntime(policy=policy)


def test_rejects_spawn_paths_other_than_shm():
    for spawn_paths in ("wire", "auto"):
        with pytest.raises(ValueError, match="shm"):
            ProcessRuntime(spawn_paths=spawn_paths)
    assert ProcessRuntime(workers=1, spawn_paths="shm").spawn_paths == "shm"


def test_one_root_per_runtime():
    rt = _rt(workers=1)
    assert rt.run(lambda: "first") == "first"
    with pytest.raises(RuntimeStateError):
        rt.run(lambda: "second")


def test_shard_verifier_counts_and_locality():
    with SharedFlatTree.create(nprocs=2, stripe=8, seg0=16) as tree:
        shard = ShardVerifier(SharedTJPolicy(tree))
        root = shard.on_init()
        child = shard.on_fork(root)
        assert shard.is_local(root) and shard.is_local(child)
        assert shard.check_join(root, child) is True
        # a joiner forked by another process (region 1): visible in the
        # forest but not local -> its joins count as cross-process edges
        other = SharedFlatTree.attach(tree.handle(), region=1)
        try:
            remote = SharedTJPolicy(other).add_child(root)
        finally:
            other.close()
        grand = shard.on_fork(remote)
        assert not shard.is_local(remote) and shard.is_local(grand)
        assert shard.check_join(remote, grand) is True
        stats = shard.procs_stats()
        assert stats["local_joins"] == 1
        assert stats["cross_joins"] == 1
        assert stats["degraded_joins"] == 1  # no sidecar attached
