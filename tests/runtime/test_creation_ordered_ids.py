"""The premise both TJ-SP kernels rest on: a vertex id is its creation rank.

The kernels store only each vertex's parent and decide a join by
climbing the larger of two ids, which is sound only if every ancestor's
id is below its descendants' and siblings' ids follow their fork order.
Real programs fork from many threads at once here — thread-per-task
``TaskRuntime``, the ``WorkSharingRuntime`` pool, and ``RetryPolicy``
re-forks, which come from the failing task's thread and race the
parent's own forks — through both kernels.  Every recorded fork tree is
checked three ways: parent id below child id, siblings in fork order,
and ``permits`` equal to :class:`~repro.formal.TJOrderOracle` on every
pair.  A kernel that hands out ids from per-thread blocks fails the
same check.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.core._cbuild import compiled_module
from repro.core.policy import JoinPolicy
from repro.core.tj_sp_flat import FlatTreePy
from repro.formal import TJOrderOracle
from repro.runtime import RetryPolicy, WorkSharingRuntime
from repro.runtime.threaded import TaskRuntime

KERNELS = ["py"] + (["c"] if compiled_module() is not None else [])


def _kernel(name: str):
    return FlatTreePy() if name == "py" else compiled_module().FlatTree()


class ThreadBlockIds(FlatTreePy):
    """Ids from per-thread blocks: each thread reserves rows under the
    lock, 1, 2, 4, ... up to 64 at a time, and fills them without it, so
    ids stay dense but follow the reserving thread, not creation order."""

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()

    def add_child(self, parent: int) -> int:
        local = self._local
        if not getattr(local, "free", None):
            size = getattr(local, "size", 1)
            local.size = min(2 * size, 64)
            with self._lock:
                start = len(self.parent)
                self.parent.extend([-1] * size)
            local.free = list(range(start + size - 1, start - 1, -1))
        vid = local.free.pop()
        self.parent[vid] = parent
        return vid


class Recorded(JoinPolicy):
    """A kernel as the ``TJ-SP`` policy, logging each fork as it returns.

    The runtimes serialise the forks of one parent (its own thread, or
    its fork lock once a retry may re-fork it), so the log holds each
    parent's children in fork order.
    """

    name = "TJ-SP"
    stable_permits = True

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.forks: list[tuple] = []
        self._lock = threading.Lock()

    def add_child(self, parent):
        vid = self.kernel.add_child(-1 if parent is None else parent)
        with self._lock:
            self.forks.append((parent, vid))
        return vid

    def permits(self, joiner, joinee) -> bool:
        return self.kernel.permits(joiner, joinee)


def violations(policy: Recorded) -> list[str]:
    """Every way the recorded fork tree breaks the creation-rank premise."""
    found = []
    oracle = TJOrderOracle()
    children = defaultdict(list)
    for parent, vid in policy.forks:
        if parent is None:
            oracle.init(vid)
            continue
        if not parent < vid:
            found.append(f"parent {parent} has a larger id than its child {vid}")
        children[parent].append(vid)
        oracle.fork(parent, vid)
    for parent, kids in children.items():
        if kids != sorted(kids):
            found.append(f"children of {parent} out of fork order: {kids}")
    ids = [vid for _, vid in policy.forks]
    for a in ids:
        for b in ids:
            want = a != b and oracle.less(a, b)
            if policy.permits(a, b) != want:
                found.append(f"permits({a}, {b}) is {not want}, the TJ order says {want}")
    return found


# ----------------------------------------------------------------------
# the programs
# ----------------------------------------------------------------------
def _fan(rt, width: int, depth: int) -> int:
    """Fork *width* tasks that each fan out again, *depth* levels deep,
    then join them all: every task forks from its own thread."""
    if depth == 0:
        return 1
    futures = [rt.fork(_fan, rt, width, depth - 1) for _ in range(width)]
    return 1 + sum(f.join() for f in futures)


def thread_per_task(policy) -> None:
    rt = TaskRuntime(policy=policy)
    assert rt.run(lambda: _fan(rt, 3, 3)) == 1 + 3 + 9 + 27


def pool(policy) -> None:
    rt = WorkSharingRuntime(policy=policy, workers=4)
    assert rt.run(lambda: _fan(rt, 3, 3)) == 1 + 3 + 9 + 27


def retry(policy) -> None:
    """A task forks two children, then fails once; its retry is
    re-forked under the root from the failing task's thread, after the
    root has forked eight more siblings from its own."""
    rt = TaskRuntime(policy=policy)
    spec = RetryPolicy(max_attempts=2, base_delay=0.0005, max_delay=0.001)
    forked, go = threading.Event(), threading.Event()
    attempts = []

    def flaky():
        for _ in range(2):
            rt.fork(lambda: None).join()
        attempts.append(1)
        if len(attempts) == 1:
            forked.set()
            go.wait(10.0)
            raise RuntimeError("first attempt down")
        return len(attempts)

    def main():
        first = rt.fork(flaky, retry=spec)
        assert forked.wait(10.0)
        siblings = [rt.fork(_fan, rt, 2, 1) for _ in range(8)]
        go.set()
        return first.join(), sum(f.join() for f in siblings)

    assert rt.run(main) == (2, 3 * 8)
    assert rt.tasks_retried == 1


PROGRAMS = {"thread-per-task": thread_per_task, "pool": pool, "retry": retry}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_ids_are_creation_ranks_under_threads(program, kernel):
    policy = Recorded(_kernel(kernel))
    PROGRAMS[program](policy)
    assert len(policy.forks) > 20
    assert violations(policy) == []


def test_per_thread_id_blocks_fail_the_check():
    """The check can fail: with ids from per-thread blocks the retry
    takes an id its thread reserved before the root's last siblings, so
    sibling order and the climb's verdicts both break."""
    policy = Recorded(ThreadBlockIds())
    retry(policy)
    found = violations(policy)
    assert any("out of fork order" in v for v in found)
    assert any(v.startswith("permits(") for v in found)
