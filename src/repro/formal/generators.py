"""Random trace generators.

Used both by the property tests (as building blocks for hypothesis
strategies) and by the precision ablation benchmark, which measures how
often KJ rejects joins that TJ admits on randomly generated TJ-valid
workloads.

All generators take a :class:`random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from .actions import Action, Fork, Init, Join, Task
from .fork_tree import ForkTree
from .kj_relation import KJKnowledge
from .tj_relation import TJOrderOracle

__all__ = [
    "random_fork_trace",
    "random_tj_valid_trace",
    "random_kj_valid_trace",
    "random_deadlocking_trace",
    "chain_fork_trace",
    "star_fork_trace",
    "balanced_fork_trace",
]


def _task_name(i: int) -> str:
    return f"t{i}"


def random_fork_trace(rng: random.Random, n_tasks: int) -> list[Action]:
    """``init`` plus ``n_tasks - 1`` forks from uniformly random parents."""
    if n_tasks < 1:
        raise ValueError("need at least the root task")
    trace: list[Action] = [Init(_task_name(0))]
    tasks = [_task_name(0)]
    for i in range(1, n_tasks):
        parent = rng.choice(tasks)
        child = _task_name(i)
        trace.append(Fork(parent, child))
        tasks.append(child)
    return trace


def random_tj_valid_trace(
    rng: random.Random,
    n_tasks: int,
    n_joins: int,
    *,
    fork_bias: float = 0.5,
) -> list[Action]:
    """A TJ-valid trace interleaving forks with TJ-permitted joins.

    ``fork_bias`` is the probability of emitting a fork (while tasks
    remain) instead of a join at each step.  Joins pick a uniformly random
    pair with ``a < b`` — including pairs KJ would reject, which is what
    makes these traces useful for the precision experiment.
    """
    trace: list[Action] = [Init(_task_name(0))]
    oracle = TJOrderOracle()
    oracle.init(_task_name(0))
    tasks = [_task_name(0)]
    forks_left = n_tasks - 1
    joins_left = n_joins
    while forks_left > 0 or joins_left > 0:
        do_fork = forks_left > 0 and (joins_left == 0 or rng.random() < fork_bias)
        if do_fork:
            parent = rng.choice(tasks)
            child = _task_name(len(tasks))
            trace.append(Fork(parent, child))
            oracle.fork(parent, child)
            tasks.append(child)
            forks_left -= 1
        else:
            if len(tasks) < 2:
                joins_left -= 1
                continue
            a, b = rng.sample(tasks, 2)
            if oracle.less(b, a):
                a, b = b, a
            trace.append(Join(a, b))
            joins_left -= 1
    return trace


def random_kj_valid_trace(
    rng: random.Random,
    n_tasks: int,
    n_joins: int,
    *,
    fork_bias: float = 0.5,
) -> list[Action]:
    """A KJ-valid trace: joins picked from the current knowledge relation."""
    trace: list[Action] = [Init(_task_name(0))]
    knowledge = KJKnowledge()
    knowledge.init(_task_name(0))
    tasks = [_task_name(0)]
    forks_left = n_tasks - 1
    joins_left = n_joins
    while forks_left > 0 or joins_left > 0:
        do_fork = forks_left > 0 and (joins_left == 0 or rng.random() < fork_bias)
        if do_fork:
            parent = rng.choice(tasks)
            child = _task_name(len(tasks))
            trace.append(Fork(parent, child))
            knowledge.fork(parent, child)
            tasks.append(child)
            forks_left -= 1
        else:
            # sorted: set order follows PYTHONHASHSEED, the trace must not
            known = [
                (a, b) for a in tasks for b in sorted(knowledge.knowledge_of(a)) if a != b
            ]
            joins_left -= 1
            if not known:
                continue
            a, b = rng.choice(known)
            trace.append(Join(a, b))
            knowledge.join(a, b)
    return trace


def random_deadlocking_trace(
    rng: random.Random, n_tasks: int, cycle_len: int = 2
) -> list[Action]:
    """A structurally valid trace whose joins contain a deadlock cycle.

    The cycle is planted among ``cycle_len`` sibling children of the root;
    remaining tasks fork randomly.  By Theorem 3.11 no such trace is
    TJ-valid, which the soundness property tests assert.
    """
    cycle_len = max(2, min(cycle_len, n_tasks - 1))
    trace = random_fork_trace(rng, max(n_tasks, cycle_len + 1))
    tasks = [a.child for a in trace if isinstance(a, Fork)]
    ring = tasks[:cycle_len]
    for i, a in enumerate(ring):
        trace.append(Join(a, ring[(i + 1) % len(ring)]))
    return trace


def chain_fork_trace(n_tasks: int) -> list[Action]:
    """A degenerate deep tree: each task forks the next (height = n - 1)."""
    trace: list[Action] = [Init(_task_name(0))]
    for i in range(1, n_tasks):
        trace.append(Fork(_task_name(i - 1), _task_name(i)))
    return trace


def star_fork_trace(n_tasks: int) -> list[Action]:
    """A flat tree: the root forks everything (height = 1)."""
    trace: list[Action] = [Init(_task_name(0))]
    for i in range(1, n_tasks):
        trace.append(Fork(_task_name(0), _task_name(i)))
    return trace


def balanced_fork_trace(n_tasks: int, arity: int = 2) -> list[Action]:
    """A balanced ``arity``-ary tree in breadth-first fork order."""
    if arity < 1:
        raise ValueError("arity must be positive")
    trace: list[Action] = [Init(_task_name(0))]
    for i in range(1, n_tasks):
        parent = _task_name((i - 1) // arity)
        trace.append(Fork(parent, _task_name(i)))
    return trace
