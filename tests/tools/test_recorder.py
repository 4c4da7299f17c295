"""Unit and integration tests for the trace recorder."""

from repro import TaskRuntime
from repro.core import TJSpawnPathsLegacy
from repro.formal.actions import Fork, Init, Join
from repro.formal.trace import is_structurally_valid, is_tj_valid
from repro.tools import TraceRecordingPolicy


class TestRecorderUnit:
    def test_records_init_and_forks(self):
        rec = TraceRecordingPolicy(TJSpawnPathsLegacy())
        root = rec.add_child(None)
        a = rec.add_child(root)
        rec.add_child(a)
        assert rec.snapshot() == [Init("t0"), Fork("t0", "t1"), Fork("t1", "t2")]

    def test_records_joins_at_check_time(self):
        rec = TraceRecordingPolicy(TJSpawnPathsLegacy())
        root = rec.add_child(None)
        a = rec.add_child(root)
        assert rec.permits(root, a)
        assert not rec.permits(a, root)  # recorded even though rejected
        joins = [x for x in rec.snapshot() if isinstance(x, Join)]
        assert joins == [Join("t0", "t1"), Join("t1", "t0")]

    def test_records_join_when_inner_policy_raises(self):
        """A crashing inner policy still leaves the attempt in the trace,
        tagged denied — an exception is 'no verdict reached', and an
        offline reader must never mistake it for a permit."""

        class Exploding(TJSpawnPathsLegacy):
            def permits(self, joiner, joinee):
                raise ZeroDivisionError("synthetic policy bug")

        rec = TraceRecordingPolicy(Exploding())
        root = rec.add_child(None)
        a = rec.add_child(root)
        try:
            rec.permits(root, a)
        except ZeroDivisionError:
            pass
        else:  # pragma: no cover - the recorder must re-raise
            raise AssertionError("recorder swallowed the policy bug")
        joins = [x for x in rec.snapshot() if isinstance(x, Join)]
        assert joins == [Join("t0", "t1")]
        assert joins[0].permitted is False

    def test_join_permitted_tag_does_not_affect_equality(self):
        """`permitted` is diagnostic metadata: traces recorded online
        compare equal to offline-built ones that never saw verdicts."""
        assert Join("t0", "t1", permitted=False) == Join("t0", "t1")
        assert Join("t0", "t1", permitted=True) == Join("t0", "t1", permitted=False)

    def test_delegation(self):
        inner = TJSpawnPathsLegacy()
        rec = TraceRecordingPolicy(inner)
        assert rec.name == "TJ-SP-legacy"
        root = rec.add_child(None)
        rec.add_child(root)
        assert rec.space_units() == inner.space_units() > 0

    def test_snapshot_is_a_copy(self):
        rec = TraceRecordingPolicy(TJSpawnPathsLegacy())
        rec.add_child(None)
        snap = rec.snapshot()
        snap.clear()
        assert rec.snapshot() != []


class TestRecorderIntegration:
    def test_recorded_runtime_trace_is_tj_valid(self):
        rec = TraceRecordingPolicy(TJSpawnPathsLegacy())
        rt = TaskRuntime(policy=rec)

        def fib(n):
            if n < 2:
                return n
            a, b = rt.fork(fib, n - 1), rt.fork(fib, n - 2)
            return a.join() + b.join()

        assert rt.run(fib, 8) == 21
        trace = rec.snapshot()
        assert is_structurally_valid(trace)
        assert is_tj_valid(trace)
        assert sum(isinstance(a, Fork) for a in trace) == rt.tasks_started
