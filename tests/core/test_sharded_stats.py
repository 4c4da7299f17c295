"""Sharded verifier statistics: exactness under concurrent storms.

The seed ``Verifier`` serialised every event on a global lock; the
sharded version gives each thread a private counter shard and aggregates
on read.  These tests drive concurrent fork/join storms and assert the
aggregated totals are *exactly* the number of events issued — sharding
must not trade away a single count.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import TJSpawnPathsFlat, Verifier
from repro.core.policy import NullPolicy

N_THREADS = 8
FORKS_PER_THREAD = 400
CHECKS_PER_THREAD = 900


@pytest.fixture
def verifier():
    return Verifier(TJSpawnPathsFlat())


class TestShardedCountsExact:
    def test_concurrent_fork_join_storm_sums_exactly(self, verifier):
        root = verifier.on_init()
        # Per the Section 5.1 contract, add_child calls never share a
        # parent: give every thread its own subtree root, created serially.
        subtree_roots = [verifier.on_fork(root) for _ in range(N_THREADS)]
        barrier = threading.Barrier(N_THREADS)

        def storm(i: int) -> None:
            barrier.wait()
            node = subtree_roots[i]
            locals_ = [node]
            for _ in range(FORKS_PER_THREAD):
                node = verifier.on_fork(node)
                locals_.append(node)
            for k in range(CHECKS_PER_THREAD):
                a = locals_[k % len(locals_)]
                b = locals_[(k * 7 + 3) % len(locals_)]
                verifier.check_join(a, b)

        threads = [threading.Thread(target=storm, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = verifier.stats
        assert stats.forks == 1 + N_THREADS + N_THREADS * FORKS_PER_THREAD
        assert stats.joins_checked == N_THREADS * CHECKS_PER_THREAD
        assert stats.joins_permitted + stats.joins_rejected == stats.joins_checked

    def test_rejections_counted_exactly_across_threads(self):
        verifier = Verifier(TJSpawnPathsFlat())
        root = verifier.on_init()
        children = [verifier.on_fork(root) for _ in range(N_THREADS)]
        rounds = 500
        barrier = threading.Barrier(N_THREADS)

        def hammer(i: int) -> None:
            barrier.wait()
            # child -> root is always rejected (a child may not join an
            # ancestor); root -> child would be permitted.
            for _ in range(rounds):
                assert not verifier.check_join(children[i], root)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = verifier.stats
        assert stats.joins_checked == N_THREADS * rounds
        assert stats.joins_rejected == N_THREADS * rounds
        assert stats.rejection_rate == 1.0

    def test_batch_check_counts_whole_batch(self, verifier):
        root = verifier.on_init()
        kids = [verifier.on_fork(root) for _ in range(10)]
        verdicts = verifier.check_joins(root, kids)
        assert verdicts == [True] * 10
        assert verifier.stats.joins_checked == 10
        assert verifier.stats.joins_rejected == 0
        # mixed batch: joining the root is rejected, joining the older
        # sibling (forked earlier, hence TJ-greater) is permitted
        verdicts = verifier.check_joins(kids[1], [root, kids[0]])
        assert verdicts == [False, True]
        stats = verifier.stats
        assert stats.joins_checked == 12
        assert stats.joins_rejected == 1

    def test_reads_during_writes_are_safe_snapshots(self):
        verifier = Verifier(NullPolicy())
        root = verifier.on_init()
        stop = threading.Event()
        seen: list[int] = []

        def writer() -> None:
            for _ in range(20000):
                verifier.check_join(root, root)
            stop.set()

        def reader() -> None:
            while not stop.is_set():
                snap = verifier.stats
                # monotone, never negative, internally consistent
                assert snap.joins_checked >= 0
                assert snap.joins_permitted + snap.joins_rejected == snap.joins_checked
                seen.append(snap.joins_checked)

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start(), r.start()
        w.join(), r.join()
        assert verifier.stats.joins_checked == 20000
        assert seen == sorted(seen)  # snapshots are monotone

    def test_shards_survive_thread_death(self, verifier):
        """Counts recorded by a finished thread stay in the aggregate."""
        root = verifier.on_init()

        def once() -> None:
            verifier.check_join(root, root)

        for _ in range(5):
            t = threading.Thread(target=once)
            t.start()
            t.join()
        assert verifier.stats.joins_checked == 5


class TestShardRetirement:
    """Dead threads' shards are folded away, not leaked (thread-per-task
    runtimes would otherwise accumulate one shard per task forever)."""

    def test_shard_list_stays_bounded_under_thread_churn(self, verifier):
        root = verifier.on_init()

        def once() -> None:
            verifier.check_join(root, root)

        for _ in range(100):
            t = threading.Thread(target=once)
            t.start()
            t.join()
            verifier.stats  # reads fold dead shards as they go
        # every one of the 100 worker shards has been retired; at most
        # the current (main) thread's shard may remain live
        assert len(verifier._shards) <= 1

    def test_folding_is_exact_under_churn_and_concurrency(self, verifier):
        """Retirement must not lose or double-count a single event, even
        with reads interleaved with waves of short-lived writers."""
        root = verifier.on_init()
        waves, per_wave, checks = 10, 6, 37

        def storm() -> None:
            sub = verifier.on_fork(root)
            for _ in range(checks):
                verifier.check_join(sub, root)

        for _ in range(waves):
            threads = [threading.Thread(target=storm) for _ in range(per_wave)]
            for t in threads:
                t.start()
            verifier.stats  # concurrent read while writers live
            for t in threads:
                t.join()
        stats = verifier.stats
        assert stats.forks == 1 + waves * per_wave
        assert stats.joins_checked == waves * per_wave * checks
        assert stats.joins_rejected == waves * per_wave * checks
        assert len(verifier._shards) <= 1

    def test_registration_also_folds(self, verifier):
        """Folding happens at shard registration too, so a runtime that
        never reads stats still cannot leak shards."""
        root = verifier.on_init()

        def once() -> None:
            verifier.check_join(root, root)

        for _ in range(50):
            t = threading.Thread(target=once)
            t.start()
            t.join()
        # no stats read in the loop: the next registration prunes
        assert len(verifier._shards) <= 2  # last dead shard + main's
        assert verifier.stats.joins_checked == 50
